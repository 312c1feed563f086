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
    euler_elements,
    gauss_legendre,
    group_volumes,
    haar_quadrature,
    half_weight,
    random_unitary,
    trace_metric,
)

from oracles import coadjoint, group_volumes_quadrature, weyl_matrices


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

    u1 = build_group("u", 1)
    assert u1.positive_roots.shape == (0, 1) and np.array_equal(u1.delta, [0.0])


def test_build_group_string_forms():
    assert build_group("t2").rank == 2
    assert build_group("torus(3)").rank == 3
    assert build_group("su3").dim == 8
    assert build_group("u3").dim == 9
    with pytest.raises(UnsupportedGroupError):
        build_group("sp4")
    with pytest.raises(UnsupportedGroupError):
        build_group("su", 1)
    # the algebra basis is dense (dim n^2 complex entries), so n stops at 7
    for kind in ("su8", "u8"):
        with pytest.raises(UnsupportedGroupError, match="n=8 too large"):
            build_group(kind)


def test_weyl_group_orders():
    assert build_group("t2").weyl_order == 1
    assert build_group("su2").weyl_order == 2
    assert build_group("u2").weyl_order == 2
    assert build_group("su3").weyl_order == 6
    assert build_group("u3").weyl_order == 6
    assert build_group("su7").weyl_order == 5040
    for g in (build_group("su3"), build_group("u4")):
        assert g.weyl_order == len(weyl_matrices(g))


@pytest.mark.parametrize("kind", ["su2", "u2", "su3", "su4", "su5", "u3", "u4", "u5"])
def test_weyl_preserves_roots_up_to_sign(kind):
    # the matrices are exact integers, so the images are compared exactly
    g = build_group(kind)
    roots = {tuple(r) for r in g.positive_roots}
    full = roots | {tuple(-np.array(r)) for r in roots}
    for sign, mat in weyl_matrices(g):
        assert sign in (-1, 1)
        assert np.array_equal(mat, np.rint(mat))
        for beta in g.positive_roots:
            assert tuple(mat @ beta) in full


def test_delta_in_lattice():
    # torus and SU(n): delta is integral (the Cartan coordinates are
    # coordinates in a basis of the lattice of integral forms)
    for kind in ("t2", "su2", "su3"):
        g = build_group(kind)
        assert np.allclose(g.delta, np.round(g.delta), atol=1e-12)
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
        InvariantMetric(t2, [[1.0, 2.0], [2.0, 1.0]])  # indefinite
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
    # unit elements: nu / ||nu|| = sqrt(2), and the unit sharp has phi-norm 1
    assert np.allclose(np.array([nu]) / metric.norm_covector([nu]), [np.sqrt(2)])
    unit = algebra_matrix(g, metric.sharp([nu]) / metric.norm_covector([nu]))
    assert np.isclose(metric.inner_matrices(unit, unit), 1.0)


def test_inner_of_coefficients_is_the_matrix_inner():
    rng = np.random.default_rng(3)
    for kind, scale in (("su2", 1.0), ("u2", 2.5), ("su3", 0.7)):
        g = build_group(kind)
        metric = trace_metric(g, scale)
        for n in (g.rank, g.dim):                # Cartan, then full coefficients
            a, b = rng.standard_normal((2, n))
            expected = metric.inner_matrices(algebra_matrix(g, a), algebra_matrix(g, b))
            assert np.isclose(metric.inner(a, b), expected, rtol=1e-13), (kind, n)
    t2 = InvariantMetric(build_group("t2"), [[2.7, 0.9], [0.9, 1.3]])
    assert np.isclose(t2.inner([1.0, 2.0], [0.5, -1.0]), -1.25, rtol=1e-15)
    with pytest.raises(ValueError):
        t2.inner([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])


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
                InvariantMetric(g, c * np.eye(2))
            assert np.array_equal(mc.sharp(gamma), np.asarray(m1.sharp(gamma)) / c)
            assert np.isclose(mc.norm_covector(gamma),
                              m1.norm_covector(gamma) / np.sqrt(c), rtol=1e-15)


def test_cached_inverse_gram_matches_the_solve():
    rng = np.random.default_rng(12)
    metrics = [trace_metric(build_group(kind), scale=c)
               for kind in ("t1", "t2", "su2", "u2") for c in (1.0, 2.7)]
    metrics.append(InvariantMetric(build_group("t2"), [[2.7, 0.9], [0.9, 1.3]]))
    for metric in metrics:
        gram, cartan = metric.gram, metric.gram[:metric.group.rank, :metric.group.rank]
        for _ in range(5):
            gamma = rng.standard_normal(metric.group.rank)
            full = rng.standard_normal(metric.group.dim)
            pairs = [
                (metric.sharp(gamma), np.linalg.solve(cartan, gamma)),
                (metric.sharp(full), np.linalg.solve(gram, full)),
                (metric.norm_covector(gamma), np.sqrt(gamma @ np.linalg.solve(cartan, gamma))),
                (metric.norm_covector(full), np.sqrt(full @ np.linalg.solve(gram, full))),
            ]
            for got, want in pairs:
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_cartan_data_are_leading_coordinates():
    # every supported Gram matrix is block-diagonal, so a Cartan datum is
    # the leading rank coordinates of a full one: its sharp, norm and
    # matrix agree with those of its zero extension, whose sharp stays in t
    rng = np.random.default_rng(14)
    for kind in ("t1", "t2", "t3", "su2", "su3", "su4", "u2", "u3", "u4"):
        g = build_group(kind)
        r = g.rank
        for scale in (1.0, 2.7, 0.3):
            metric = trace_metric(g, scale)
            assert not metric.gram[:r, r:].any()
            for _ in range(5):
                gamma = rng.standard_normal(r)
                full = np.pad(gamma, (0, g.dim - r))
                sharp = metric.sharp(full)
                assert not sharp[r:].any()
                assert np.allclose(metric.sharp(gamma), sharp[:r], rtol=1e-14, atol=1e-14)
                assert np.isclose(metric.norm_covector(gamma), metric.norm_covector(full),
                                  rtol=1e-14)
                if g.is_matrix_group:
                    assert np.array_equal(algebra_matrix(g, gamma), algebra_matrix(g, full))
            stack = rng.standard_normal((3, r))
            assert np.allclose(metric.sharp(stack),
                               [metric.sharp(row) for row in stack], rtol=1e-14, atol=1e-14)
        # a length that is neither rank nor dim is refused
        with pytest.raises(ValueError, match="Cartan or"):
            trace_metric(g).sharp(np.ones(r + 1))
        with pytest.raises(ValueError, match="Cartan or"):
            trace_metric(g).norm_covector(np.ones(r + 1))
        if g.is_matrix_group:
            with pytest.raises(ValueError, match="Cartan or"):
                algebra_matrix(g, np.ones(r + 1))


def test_coroots_are_integral_and_dual_to_the_roots():
    # beta^vee = 2 beta^phi / phi(beta, beta) with the sharp solved on the
    # Cartan block of the trace Gram matrix; the coroots are integers and
    # pair to 2 with their roots
    for kind in ("t2", "su2", "su3", "su4", "u2", "u3"):
        g = build_group(kind)
        r = g.rank
        assert g.coroots.shape == (r, g.n_pos) and g.coroots.dtype.kind == "i"
        sharps = np.linalg.solve(g.trace_gram[:r, :r], g.positive_roots.T)
        lengths = np.einsum("bi,ib->b", g.positive_roots, sharps)   # phi(beta, beta)
        np.testing.assert_allclose(g.coroots, 2 * sharps / lengths, rtol=0, atol=1e-14)
        assert np.array_equal(np.einsum("bi,ib->b", g.positive_roots, g.coroots),
                              np.full(g.n_pos, 2.0))


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
    m = InvariantMetric(t2, np.diag([2.0, 3.0]))
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
        assert np.allclose(adjoint_action(g, np.eye(g.n), xi), xi)
        gamma = np.pad(rng.standard_normal(g.rank), (0, g.dim - g.rank))
        for _ in range(20):
            u = random_unitary(g.n, rng, special=(kind == "su2"))
            moved = coadjoint(g.basis_matrices, u, gamma)
            assert np.isclose(metric.norm_covector(moved),
                              metric.norm_covector(gamma), rtol=1e-11)


def test_coadjoint_intertwines_sharp():
    # (Coad_g gamma)^phi = Ad_g (gamma^phi)
    rng = np.random.default_rng(3)
    g = build_group("u2")
    metric = trace_metric(g)
    gamma = np.array([1.5, -0.5, 0.0, 0.0])
    for _ in range(10):
        u = random_unitary(2, rng)
        lhs = metric.sharp(coadjoint(g.basis_matrices, u, gamma))
        rhs = adjoint_action(g, u, metric.sharp(gamma))
        assert np.allclose(lhs, rhs, atol=1e-11)


def test_su2_coadjoint_sweeps_sphere():
    # Coad_g(nu) covers the sphere of radius ||nu||_phi = nu/sqrt(2)
    rng = np.random.default_rng(4)
    g = build_group("su2")
    metric = trace_metric(g)
    nu = 3.0
    gamma = np.array([nu, 0.0, 0.0])
    sharp_z = []
    for _ in range(300):
        u = random_unitary(2, rng, special=True)
        moved = coadjoint(g.basis_matrices, u, gamma)
        assert np.isclose(metric.norm_covector(moved), nu / np.sqrt(2), rtol=1e-10)
        sharp_z.append(metric.sharp(moved)[0])  # Z-component of the sharp
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


def test_trace_gram_and_projection_match_the_trace_loop():
    # reference: one trace per basis pair / per basis matrix
    from coorbit.groups import matrix_coefficients
    rng = np.random.default_rng(6)
    for kind in ("su2", "u2", "su3", "u3"):
        g = build_group(kind)
        B = g.basis_matrices
        gram = np.array([[-np.trace(a @ b).real for b in B] for a in B])
        assert np.array_equal(g.trace_gram, gram)
        mat = rng.standard_normal((g.n, g.n)) + 1j * rng.standard_normal((g.n, g.n))
        vals = np.array([-np.trace(mat @ b).real for b in B])
        assert np.allclose(matrix_coefficients(g, mat), np.linalg.solve(gram, vals),
                           rtol=1e-14, atol=1e-14)
    assert np.array_equal(build_group("t3").trace_gram, np.eye(3))


def test_half_weight_dominance_matches_the_metric_pairing():
    # the verdict is phi(nu, beta) > 0 for every positive root under the trace form
    for kind in ("su2", "u2", "su3", "u3"):
        g = build_group(kind)
        metric = trace_metric(g)
        steps = np.arange(-2, 3)
        for lam in np.stack(np.meshgrid(*[steps] * g.rank), axis=-1).reshape(-1, g.rank):
            coords = lam + g.delta
            regular = all(metric.pair_covectors(coords, b) > 0 for b in g.positive_roots)
            if regular:
                assert np.array_equal(half_weight(g, coords).coords, coords)
            else:
                with pytest.raises(ValueError, match="not regular dominant"):
                    half_weight(g, coords)


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
        gs = euler_elements(*params[:, :cols].T)
        assert gs.shape == (40, 2, 2)
        for g, (a, b, c, t) in zip(gs, params):
            phase = np.exp(1j * t) if cols == 4 else 1.0
            assert np.allclose(g, phase * rz(a) @ ry(b) @ rz(c), rtol=0, atol=1e-14)
            assert np.allclose(g @ g.conj().T, np.eye(2), rtol=0, atol=1e-14)
        if cols == 3:
            assert np.allclose(np.linalg.det(gs), 1.0, rtol=0, atol=1e-14)

    # the Haar grid broadcasts its (tau,) beta, alpha, gamma axis vectors:
    # bit for bit the elements of its meshgrid rows, passed as flat arrays.
    # U(2) is checked on its first two tau slabs (tau = 0 and a phase) and
    # its last, which keeps level 48 (24 slabs of 48^3 nodes) fast
    for kind in ("su2", "u2"):
        group = build_group(kind)
        for level in (4, 12, 19, 48):
            nodes, _ = haar_quadrature(group, level)
            betas = 0.5 * np.pi * (gauss_legendre(level)[0] + 1.0)
            alphas = 2 * np.pi * np.arange(level) / level
            gammas = 4 * np.pi * np.arange(level) / level
            b, a, c = (v.ravel() for v in np.meshgrid(betas, alphas, gammas, indexing="ij"))
            m = max(4, level // 2)
            taus = [None] if kind == "su2" else np.pi * np.arange(m) / m
            slabs = nodes.reshape(len(taus), len(a), 2, 2)
            for j in sorted({0, 1, len(taus) - 1} & set(range(len(taus)))):
                tau = None if taus[j] is None else np.full(len(a), taus[j])
                assert np.array_equal(slabs[j], euler_elements(a, b, c, tau)), (kind, level, j)


def test_gauss_legendre_is_numpys_rule_computed_once_and_read_only():
    from numpy.polynomial.legendre import leggauss

    # every order from 1 to 130, bit for bit, which covers each one the
    # package asks for: Haar levels 12 and 19 (the suite's conjugation
    # check), 24 and 37 (the pairing default), 48 (the Haar default);
    # simplex orders 24 (model construction), 32 and 60; sphere and
    # locus-line orders 64 and 120
    for n in range(1, 131):
        x, w = gauss_legendre(n)
        ref_x, ref_w = leggauss(n)
        assert x.tobytes() == ref_x.tobytes() and w.tobytes() == ref_w.tobytes(), n
        again = gauss_legendre(n)
        assert again[0] is x and again[1] is w
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w *= 2.0
    with pytest.raises(ValueError, match="positive integer"):
        gauss_legendre(0)
