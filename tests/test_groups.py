import numpy as np
import pytest
from scipy.linalg import expm

from coorbit.groups import (
    InvariantMetric,
    UnsupportedGroupError,
    ad_on_cartan_complement,
    adjoint_action,
    algebra_matrix,
    build_group,
    coadjoint_action,
    embed_cartan_covector,
    euler_elements,
    group_volumes,
    group_volumes_quadrature,
    half_weight,
    random_unitary,
    trace_metric,
    torus_metric,
)


def test_build_group_examples():
    t1 = build_group("torus", 1)
    assert (t1.dim, t1.rank, t1.n_pos) == (1, 1, 0)
    assert len(t1.positive_roots) == 0
    assert np.allclose(t1.delta, 0.0)

    su2 = build_group("su", 2)
    assert (su2.dim, su2.rank, su2.n_pos) == (3, 1, 1)
    assert len(su2.positive_roots) == 1

    u2 = build_group("u", 2)
    assert (u2.dim, u2.rank, u2.n_pos) == (4, 2, 1)


def test_build_group_string_forms():
    assert build_group("t2").rank == 2
    assert build_group("torus(3)").rank == 3
    assert build_group("su3").dim == 8
    assert build_group("u3").dim == 9
    with pytest.raises(UnsupportedGroupError):
        build_group("sp4")
    with pytest.raises(UnsupportedGroupError):
        build_group("su", 1)


def test_weyl_group_orders():
    assert build_group("t2").weyl_order == 1
    assert build_group("su2").weyl_order == 2
    assert build_group("u2").weyl_order == 2
    assert build_group("su3").weyl_order == 6
    assert build_group("u3").weyl_order == 6


@pytest.mark.parametrize("kind", ["su2", "u2", "su3"])
def test_weyl_preserves_roots_up_to_sign(kind):
    g = build_group(kind)
    roots = [tuple(np.round(r, 9)) for r in g.positive_roots]
    full = set(roots) | {tuple(np.round(-np.array(r), 9)) for r in roots}
    for mat, sign in g.weyl_elements:
        assert sign in (-1, 1)
        for beta in g.positive_roots:
            image = tuple(np.round(mat @ beta, 9))
            assert image in full


def test_delta_in_lattice():
    # torus and SU(n): delta has integral coordinates in the lattice basis
    for kind in ("t2", "su2", "su3"):
        g = build_group(kind)
        coords = np.linalg.solve(g.lattice_basis, g.delta)
        assert np.allclose(coords, np.round(coords), atol=1e-12)
    # U(2): delta = (1/2, -1/2) is not integral; 2 delta is (the labels
    # live on delta + L(G))
    u2 = build_group("u2")
    assert not np.allclose(u2.delta, np.round(u2.delta))
    assert np.allclose(2 * u2.delta, np.round(2 * u2.delta))


@pytest.mark.parametrize("kind", ["su2", "u2"])
def test_metric_ad_invariance_sampled(kind):
    g = build_group(kind)
    metric = trace_metric(g)
    rng = np.random.default_rng(0)
    for _ in range(100):
        xi = sum(c * np.asarray(b) for c, b in
                 zip(rng.standard_normal(g.dim), g.basis_matrices))
        u = expm(xi)
        A = sum(c * np.asarray(b) for c, b in
                zip(rng.standard_normal(g.dim), g.basis_matrices))
        B = sum(c * np.asarray(b) for c, b in
                zip(rng.standard_normal(g.dim), g.basis_matrices))
        lhs = metric.inner_matrices(u @ A @ u.conj().T, u @ B @ u.conj().T)
        rhs = metric.inner_matrices(A, B)
        na = np.sqrt(metric.inner_matrices(A, A))
        nb = np.sqrt(metric.inner_matrices(B, B))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, na * nb)


def test_metric_rejects_bad_gram():
    g = build_group("su2")
    with pytest.raises(ValueError):
        trace_metric(g, scale=-1.0)
    t2 = build_group("t2")
    with pytest.raises(ValueError):
        torus_metric(t2, [[1.0, 2.0], [2.0, 1.0]])  # indefinite
    # SPD grams that are not scale x trace form (SU(2) trace form = 2 I)
    for gram, scale in ((np.diag([2.0, 1.0, 1.0]), 1.0), (4.0 * np.eye(3), 1.0)):
        with pytest.raises(ValueError):
            InvariantMetric(g, gram, scale=scale)
    u2 = build_group("u2")
    with pytest.raises(ValueError):
        InvariantMetric(u2, np.eye(4))           # trace form is diag(1, 1, 2, 2)


def test_sharp_su2_paper_values():
    g = build_group("su2")
    metric = trace_metric(g)
    nu = 5.0
    # nu^phi = (nu/2) Z: single Cartan coefficient nu/2
    assert np.allclose(metric.sharp([nu]), [nu / 2])
    assert np.isclose(metric.norm_covector([nu]), nu / np.sqrt(2))
    # unit elements
    assert np.allclose(metric.unit_covector([nu]), [np.sqrt(2)])
    assert np.isclose(metric.norm_vector(
        np.concatenate([metric.unit_sharp([nu]), np.zeros(g.dim - 1)])), 1.0)


def test_sharp_u2_paper_values():
    g = build_group("u2")
    metric = trace_metric(g)
    coords = np.array([2.5, -0.5])
    assert np.allclose(metric.sharp(coords), coords)  # nu^phi = nu1 R + nu2 S


def test_sharp_torus_identity():
    g = build_group("t3")
    metric = trace_metric(g)
    gamma = np.array([1.0, -2.0, 0.5])
    assert np.allclose(metric.sharp(gamma), gamma)


def test_sharp_scaling_covariance():
    # (c phi)-sharp = (1/c) phi-sharp and ||gamma||_{c phi} = c^{-1/2} ||gamma||_phi;
    # with power-of-two scales both identities are exact in floating point
    for kind, gamma in (("su2", [3.0]), ("u2", [1.5, 0.5]), ("t2", [2.0, -1.0])):
        g = build_group(kind)
        m1 = trace_metric(g)
        for c in (2.0, 4.0):
            mc = trace_metric(g, scale=c) if kind != "t2" else \
                torus_metric(g, c * np.eye(2))
            assert np.array_equal(mc.sharp(gamma), np.asarray(m1.sharp(gamma)) / c)
            assert np.isclose(mc.norm_covector(gamma),
                              m1.norm_covector(gamma) / np.sqrt(c), rtol=1e-15)


def test_volume_scaling_covariance():
    for kind in ("su2", "u2"):
        g = build_group(kind)
        base = group_volumes(trace_metric(g))[0]
        for c in (2.0, 4.0):
            scaled = group_volumes(trace_metric(g, scale=c))[0]
            assert np.isclose(scaled, c ** (g.dim / 2) * base, rtol=1e-13)


def test_group_volumes_paper_values():
    su2 = build_group("su2")
    vol_g, vol_t = group_volumes(trace_metric(su2))
    assert np.isclose(vol_g, 2 ** 1.5 * 2 * np.pi ** 2, rtol=1e-14)
    assert np.isclose(vol_t, np.sqrt(2) * 2 * np.pi, rtol=1e-14)

    u2 = build_group("u2")
    vol_g, vol_t = group_volumes(trace_metric(u2))
    assert np.isclose(vol_g, 8 * np.pi ** 3, rtol=1e-14)
    assert np.isclose(vol_t, (2 * np.pi) ** 2, rtol=1e-14)

    t3 = build_group("t3")
    vol_g, vol_t = group_volumes(trace_metric(t3))
    assert np.isclose(vol_g, (2 * np.pi) ** 3, rtol=1e-14)
    assert vol_g == vol_t


def test_group_volumes_quadrature_cross_check():
    for kind in ("su2", "u2"):
        g = build_group(kind)
        m = trace_metric(g)
        assert np.isclose(group_volumes_quadrature(m), group_volumes(m)[0], rtol=1e-10)
    t2 = build_group("t2")
    m = torus_metric(t2, np.diag([2.0, 3.0]))
    assert np.isclose(group_volumes_quadrature(m), group_volumes(m)[0], rtol=1e-14)


def test_ad_on_cartan_complement_su2():
    g = build_group("su2")
    metric = trace_metric(g)
    for nu in (2.0, 4.0, 7.0):
        mat, det = ad_on_cartan_complement(metric, metric.sharp([nu]))
        assert np.isclose(det, nu ** 2, rtol=1e-13)  # |det S_{nu^phi}| = nu^2
        assert np.allclose(mat + mat.T, 0.0, atol=1e-14)


def test_ad_on_cartan_complement_u2():
    g = build_group("u2")
    metric = trace_metric(g)
    nu = np.array([2.5, 0.5])
    mat, det = ad_on_cartan_complement(metric, metric.sharp(nu))
    assert np.isclose(det, (nu[0] - nu[1]) ** 2, rtol=1e-13)
    # non-regular tau gives determinant zero (a valid return)
    _, det0 = ad_on_cartan_complement(metric, metric.sharp([1.0, 1.0]))
    assert det0 == 0.0


def test_ad_on_cartan_complement_torus_and_skewness():
    t2 = build_group("t2")
    mat, det = ad_on_cartan_complement(trace_metric(t2), [1.0, 2.0])
    assert mat.shape == (0, 0) and det == 1.0
    rng = np.random.default_rng(1)
    for kind in ("su2", "u2", "su3"):
        g = build_group(kind)
        metric = trace_metric(g)
        for _ in range(100):
            tau = rng.standard_normal(g.rank)
            mat, _ = ad_on_cartan_complement(metric, tau)
            assert np.linalg.norm(mat + mat.T) <= 1e-12


def test_adjoint_identity_and_coadjoint_isometry():
    rng = np.random.default_rng(2)
    for kind in ("su2", "u2"):
        g = build_group(kind)
        metric = trace_metric(g)
        xi = rng.standard_normal(g.dim)
        assert np.allclose(adjoint_action(g, g.identity_element(), xi), xi)
        gamma = embed_cartan_covector(g, rng.standard_normal(g.rank))
        for _ in range(20):
            u = random_unitary(g.n, rng, special=(kind == "su2"))
            moved = coadjoint_action(g, u, gamma)
            assert np.isclose(metric.norm_covector_full(moved),
                              metric.norm_covector_full(gamma), rtol=1e-11)


def test_coadjoint_intertwines_sharp():
    # (Coad_g gamma)^phi = Ad_g (gamma^phi)
    rng = np.random.default_rng(3)
    g = build_group("u2")
    metric = trace_metric(g)
    gamma = embed_cartan_covector(g, np.array([1.5, -0.5]))
    for _ in range(10):
        u = random_unitary(2, rng)
        lhs = metric.sharp_full(coadjoint_action(g, u, gamma))
        rhs = adjoint_action(g, u, metric.sharp_full(gamma))
        assert np.allclose(lhs, rhs, atol=1e-11)


def test_su2_coadjoint_sweeps_sphere():
    # Coad_g(nu) covers the sphere of radius ||nu||_phi = nu/sqrt(2)
    rng = np.random.default_rng(4)
    g = build_group("su2")
    metric = trace_metric(g)
    nu = 3.0
    gamma = embed_cartan_covector(g, [nu])
    sharp_z = []
    for _ in range(300):
        u = random_unitary(2, rng, special=True)
        moved = coadjoint_action(g, u, gamma)
        assert np.isclose(metric.norm_covector_full(moved), nu / np.sqrt(2), rtol=1e-10)
        sharp_z.append(metric.sharp_full(moved)[0])  # Z-component of the sharp
    sharp_z = np.array(sharp_z)
    # the Z-coefficient of nu^phi ranges over [-nu/2, nu/2]
    assert sharp_z.min() < -0.9 * nu / 2 and sharp_z.max() > 0.9 * nu / 2


def test_adjoint_rejects_non_unitary():
    g = build_group("su2")
    with pytest.raises(ValueError):
        adjoint_action(g, np.diag([2.0, 0.5]), np.array([1.0, 0.0, 0.0]))


def test_half_weight_validation():
    su2 = build_group("su2")
    half_weight(su2, 3.0)
    with pytest.raises(ValueError):
        half_weight(su2, 0.0)      # not dominant regular
    with pytest.raises(ValueError):
        half_weight(su2, 2.5)      # nu - delta not integral
    u2 = build_group("u2")
    nu = half_weight(u2, (1.5, 0.5))
    assert np.allclose(nu.highest_weight, [1.0, 1.0])
    with pytest.raises(ValueError):
        half_weight(u2, (0.5, 1.5))    # not dominant
    with pytest.raises(ValueError):
        half_weight(u2, (1.0, 0.0))    # integers are not valid U(2) labels
    t2 = build_group("t2")
    with pytest.raises(ValueError):
        half_weight(t2, (0.0, 0.0))
    assert half_weight(u2, (1.5, 0.5)).scaling_is_valid(3)
    assert not half_weight(u2, (1.5, 0.5)).scaling_is_valid(2)
    hw = half_weight(u2, (1.5, 0.5))
    assert half_weight(u2, hw) is hw


def test_algebra_matrix_round_trip():
    from coorbit.groups import matrix_coefficients
    rng = np.random.default_rng(5)
    for kind in ("su2", "u2", "su3"):
        g = build_group(kind)
        coeffs = rng.standard_normal(g.dim)
        mat = algebra_matrix(g, coeffs)
        assert np.linalg.norm(mat + mat.conj().T) < 1e-12
        assert np.allclose(matrix_coefficients(g, mat), coeffs, atol=1e-12)


def test_euler_elements_match_rotation_product():
    # closed form vs the explicit product Rz(alpha) Ry(beta) Rz(gamma) e^{i tau}
    def rz(t):
        return np.diag([np.exp(0.5j * t), np.exp(-0.5j * t)])

    def ry(t):
        return np.array([[np.cos(t / 2), -np.sin(t / 2)],
                         [np.sin(t / 2), np.cos(t / 2)]], dtype=complex)

    rng = np.random.default_rng(12)
    params = rng.uniform([0, 0, 0, 0], [2 * np.pi, np.pi, 4 * np.pi, np.pi], size=(40, 4))
    for cols in (3, 4):
        gs = euler_elements(params[:, :cols])
        assert gs.shape == (40, 2, 2)
        for g, (a, b, c, t) in zip(gs, params):
            phase = np.exp(1j * t) if cols == 4 else 1.0
            assert np.allclose(g, phase * rz(a) @ ry(b) @ rz(c), rtol=0, atol=1e-14)
            assert np.allclose(g @ g.conj().T, np.eye(2), rtol=0, atol=1e-14)
        if cols == 3:
            assert np.allclose(np.linalg.det(gs), 1.0, rtol=0, atol=1e-14)
