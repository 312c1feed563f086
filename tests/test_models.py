import numpy as np
import pytest

from coorbit.groups import AssumptionViolation, half_weight, random_unitary
from coorbit.models import (
    MODEL_IDS,
    ConeDistance,
    LocusSample,
    TorusModel,
    build_model,
    hermitian_inner,
    simplex_quadrature,
    unit_point,
)

from oracles import (
    coadjoint,
    fiber_phase_moment,
    lifted_action,
    random_sphere_point,
    simplex_quadrature_loop,
)


def t3_cp3_model():
    # rank-3 torus on CP^3; used for the multi-normal-vector invariants
    return TorusModel("t3-cp3", [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
                      (2.0, 1.0, 1.0))


def test_catalog_builds_and_configs():
    for mid in MODEL_IDS:
        model = build_model(mid)
        cfg = model.config()
        assert cfg["id"] == mid
        assert model.min_moment_norm > 1e-3


def test_model_holds_the_metric_group():
    # one CompactGroup per model: CompactGroup compares by identity
    for mid in MODEL_IDS:
        for scale in (1.0, 2.5):
            model = build_model(mid, scale)
            assert model.group is model.metric.group, (mid, scale)


def test_moment_map_fixed_points_give_lift_weights():
    model = build_model("s1-cp1-w12")
    assert np.isclose(model.moment_map(unit_point([1, 0]))[0], 1.0)
    assert np.isclose(model.moment_map(unit_point([0, 1]))[0], 2.0)
    model2 = build_model("s1-cp2-w123")
    for j, w in enumerate((1.0, 2.0, 3.0)):
        e = np.zeros(3, dtype=complex)
        e[j] = 1.0
        assert np.isclose(model2.moment_map(e)[0], w)


def test_moment_map_finite_difference_oracle():
    rng = np.random.default_rng(0)
    for mid in MODEL_IDS:
        model = build_model(mid)
        for _ in range(3):
            x = random_sphere_point(model.d, rng)
            xi = rng.standard_normal(model.group.dim)
            fd = fiber_phase_moment(model, x, xi)
            assert np.isclose(model.moment_map(x) @ xi, fd, atol=1e-5)


def test_su2_moment_norm_constant():
    # Duistermaat-Heckman consistency: lambda(m) = 1/2 everywhere
    model = build_model("su2-cp1")
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = random_sphere_point(model.d, rng)
        assert np.isclose(model.metric.norm_covector(model.moment_map(x)), 1 / np.sqrt(2),
                          rtol=1e-12)


def test_su2_duistermaat_heckman_consistency():
    # the moment image of (CP^1, 2 omega) is a single coadjoint orbit
    # whose symplectic volume must equal int_M 2 omega = 2 vol(CP^1) = 2 pi;
    # this pins lambda(m) = 1/2 independently of the kernel checks
    from coorbit.characters import orbit_volume
    model = build_model("su2-cp1")
    nu = model.default_nu
    s = model.locus_decompose(nu, model.default_locus_point(nu))
    q_dominant = s.sigma * nu.coords     # dominant coordinates of Phi(m)
    vol_orbit = orbit_volume(model.group, q_dominant)
    assert np.isclose(vol_orbit, 2 * np.pi, rtol=1e-12)


def test_moment_equivariance():
    rng = np.random.default_rng(2)
    for mid in ("su2-cp1", "u2-cp2"):
        model = build_model(mid)
        for _ in range(10):
            x = random_sphere_point(model.d, rng)
            g = random_unitary(model.group.n, rng, special=(model.group.kind == "su"))
            lhs = model.moment_map(lifted_action(model, [g])[0] @ x)
            rhs = coadjoint(model.group.basis_matrices, g, model.moment_map(x))
            assert np.allclose(lhs, rhs, atol=1e-10)
    model = build_model("t2-cp2")
    x = random_sphere_point(model.d, rng)
    theta = rng.uniform(0, 2 * np.pi, 2)
    assert np.allclose(model.moment_map(lifted_action(model, [theta])[0] @ x),
                       model.moment_map(x), atol=1e-12)


def test_hamilton_condition_finite_difference():
    # 2 omega(xi_M, u) = d<Phi, xi>(u): pins the Hamiltonian convention
    rng = np.random.default_rng(3)
    for mid in MODEL_IDS:
        model = build_model(mid)
        for _ in range(4):
            x = random_sphere_point(model.d, rng)
            xi = rng.standard_normal(model.group.dim)
            u = model.horizontal(x, rng.standard_normal(model.ambient_dim)
                                 + 1j * rng.standard_normal(model.ambient_dim))
            u /= np.linalg.norm(u)
            lhs = -2 * hermitian_inner(model.val(x, xi), u).imag
            h = 1e-6
            fp = model.moment_map(model.displace(x, 0.0, h * u)) @ xi
            fm = model.moment_map(model.displace(x, 0.0, -h * u)) @ xi
            rhs = (fp - fm) / (2 * h)
            assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))


def test_val_fixed_point_and_nonvanishing():
    model = build_model("s1-cp1-w12")
    assert np.linalg.norm(model.val(unit_point([1, 0]), [1.0])) < 1e-14
    equator = unit_point([1, 1])
    assert np.linalg.norm(model.val(equator, [1.0])) > 0.1


def test_local_freeness_on_locus():
    # smallest singular value of val restricted to the annihilator of Phi
    from scipy.linalg import null_space
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        x = model.default_locus_point(nu)
        phi = model.moment_map(x)
        ann = null_space(phi[None, :])
        if ann.shape[1] == 0:
            continue  # the annihilator is trivial (d_G = 1); vacuously free
        vm = model.val_matrix(x) @ ann
        real = np.concatenate([vm.real, vm.imag], axis=0)
        sv = np.linalg.svd(real, compute_uv=False)
        assert sv[-1] > 1e-3, mid


def test_locus_decompose_torus():
    model = build_model("s1-cp1-w12")
    nu = model.default_nu
    x = model.default_locus_point(nu)
    s = model.locus_decompose(nu, x)
    assert isinstance(s, LocusSample)
    assert np.isclose(s.sigma, model.metric.norm_covector(s.phi)
                      / model.metric.norm_covector(nu.coords))
    assert np.allclose(s.h, 0.0)
    assert s.residual < 1e-12


def test_locus_decompose_su2_sigma():
    model = build_model("su2-cp1")
    rng = np.random.default_rng(4)
    for nu_val in (1.0, 3.0):
        nu = half_weight(model.group, nu_val)
        for _ in range(5):
            x = random_sphere_point(model.d, rng)
            s = model.locus_decompose(nu, x)
            assert isinstance(s, LocusSample)
            assert np.isclose(s.sigma, 1.0 / nu_val, rtol=1e-10)


def test_locus_sample_invariants():
    from coorbit.groups import algebra_matrix
    for mid in ("su2-cp1", "u2-cp2", "t2-cp2"):
        model = build_model(mid)
        nu = model.default_nu
        x = model.default_locus_point(nu)
        s = model.locus_decompose(nu, x)
        group = model.group
        metric = model.metric
        # Phi = sigma Coad_h nu
        if group.is_matrix_group:
            nu_sharp = algebra_matrix(group, np.concatenate(
                [metric.sharp(nu.coords), np.zeros(group.dim - group.rank)]))
            moved = s.h @ nu_sharp @ s.h.conj().T
            phi_sharp = algebra_matrix(group, metric.sharp(s.phi))
            resid = phi_sharp - s.sigma * moved
            assert np.sqrt(metric.inner_matrices(resid, resid)) < 1e-10
            # [eta, Phi^phi] = 0 for eta in t_m
            for eta in s.t_basis:
                em = algebra_matrix(group, eta)
                comm = em @ phi_sharp - phi_sharp @ em
                assert np.sqrt(metric.inner_matrices(comm, comm)) < 1e-10
        # <Phi, eta> = 0 for eta in t'_m, and phi-orthonormality
        for i, eta in enumerate(s.t_prime_basis):
            assert abs(s.phi @ eta) < 1e-10
            for j, eta2 in enumerate(s.t_prime_basis):
                ip = eta @ metric.gram @ eta2
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10


def test_locus_decompose_off_cone_distance():
    model = build_model("t2-cp2")
    nu = model.default_nu
    x = unit_point(np.sqrt([0.25, 0.45, 0.30]))
    out = model.locus_decompose(nu, x)
    assert isinstance(out, ConeDistance)
    assert out.distance > 0.05
    model2 = build_model("u2-cp2")
    out2 = model2.locus_decompose(model2.default_nu,
                                  unit_point(np.sqrt([0.5, 0.3, 0.2])))
    assert isinstance(out2, ConeDistance) and out2.distance > 0.01


def test_cone_distance_at_nonpositive_sigma_is_moment_norm():
    # Phi pairs negatively with nu, so the nearest cone point is the apex
    rng = np.random.default_rng(12)
    model = build_model("t2-cp2")         # Phi = (t1 + t3, t2 + t3) >= 0
    nu = half_weight(model.group, (-1.0, -1.0))
    cases = [(model, nu, random_sphere_point(model.d, rng)) for _ in range(5)]
    model = build_model("u2-cp2")         # |c|^2 >= |v|^2 makes both q_j >= 0
    nu = half_weight(model.group, (-0.5, -1.5))
    for _ in range(5):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v *= np.sqrt(0.3) / np.linalg.norm(v)
        c = np.sqrt(0.7) * np.exp(1j * rng.uniform(0, 6))
        cases.append((model, nu, unit_point([v[0], v[1], c])))
    for model, nu, x in cases:
        out = model.locus_decompose(nu, x)
        assert isinstance(out, ConeDistance), model.id
        assert np.isclose(out.distance, model.metric.norm_covector(model.moment_map(x)),
                          rtol=1e-12, atol=0), model.id


def _locus_stack(model, nu, rng, count=12):
    """count points of the locus of nu on model, spread over it."""
    group = model.group
    if group.rank == 1:
        points = [random_sphere_point(model.d, rng) for _ in range(count)]   # the locus is all of M
        if group.kind == "torus":
            points[0] = model.default_locus_point(nu)
        return np.array(points)
    t = model.locus_simplex_curve(nu)(rng.uniform(0.02, 0.98, count))
    x = np.sqrt(t) * np.exp(1j * rng.uniform(0, 2 * np.pi, t.shape))
    if group.kind == "u":                      # move along the U(2)-invariant locus
        gs = np.stack([random_unitary(2, rng) for _ in range(count)])
        x = np.einsum("nij,nj->ni", lifted_action(model, gs), x)
    return x


def test_locus_decompose_stack_matches_per_point():
    from coorbit.predictor import leading_coefficient, predict_near_diagonal

    rng = np.random.default_rng(31)
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        xs = _locus_stack(model, nu, rng)
        stacked = model.locus_decompose(nu, xs)
        singles = [model.locus_decompose(nu, x) for x in xs]
        assert isinstance(stacked, LocusSample), mid
        assert all(isinstance(s, LocusSample) for s in singles), mid
        n = len(xs)
        assert stacked.phi.shape == (n, model.group.dim) and stacked.sigma.shape == (n,)
        assert stacked.residual.shape == (n,)

        def close(a, b):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-13, err_msg=mid)

        close(stacked.phi, [s.phi for s in singles])
        close(stacked.sigma, [s.sigma for s in singles])
        close(stacked.residual, [s.residual for s in singles])
        for field in ("t_basis", "t_prime_basis"):
            per_point = [getattr(s, field) for s in singles]
            for j, vec in enumerate(getattr(stacked, field)):
                assert vec.shape == (n, model.group.dim)
                close(vec, [basis[j] for basis in per_point])
        for h, s in zip(stacked.h, singles):
            if model.group.kind == "torus":
                close(h, s.h)
            else:   # equal up to the stabilising torus: h^-1 h' is diagonal and unitary
                rel = h.conj().T @ s.h
                close(rel - np.diag(np.diag(rel)), 0.0)
                close(np.abs(np.diag(rel)), 1.0)
        D, scalar = model.d_phi(nu, stacked)
        per_point = [model.d_phi(nu, s) for s in singles]
        close(D, [p[0] for p in per_point])
        close(scalar, [p[1] for p in per_point])
        psi = leading_coefficient(model, nu, stacked)
        assert psi.shape == (n,)
        close(psi, [leading_coefficient(model, nu, s) for s in singles])
        with pytest.raises(ValueError):
            predict_near_diagonal(model, nu, stacked, 64)


def test_locus_decompose_mixed_stack_gives_cone_distances():
    rng = np.random.default_rng(32)
    for mid, off in (("t2-cp2", [0.25, 0.45, 0.30]), ("u2-cp2", [0.5, 0.3, 0.2])):
        model = build_model(mid)
        nu = model.default_nu
        xs = _locus_stack(model, nu, rng, count=6)
        xs = np.concatenate([xs[:3], [unit_point(np.sqrt(off))], xs[3:]])
        out = model.locus_decompose(nu, xs)
        assert isinstance(out, ConeDistance), mid
        assert out.distance.shape == (len(xs),) and out.phi.shape == (len(xs), 2 if mid == "t2-cp2" else 4)
        for x, dist in zip(xs, out.distance):
            single = model.locus_decompose(nu, x)
            if isinstance(single, ConeDistance):
                np.testing.assert_allclose(dist, single.distance, rtol=1e-13, atol=0)
                assert dist > 0.01
            else:
                assert dist <= 1e-10 * max(1.0, model.metric.norm_covector(model.moment_map(x)))
        assert sum(isinstance(model.locus_decompose(nu, x), ConeDistance) for x in xs) == 1


def test_group_elements_are_validated_singly_and_as_a_stack():
    rng = np.random.default_rng(13)
    for mid in MODEL_IDS:
        model = build_model(mid)
        group = model.group
        if group.kind == "torus":
            gs = rng.uniform(0, 2 * np.pi, (4, group.rank))
            bad = np.full(group.rank, 0.3 + 0.2j)          # complex angles
        else:
            gs = np.stack([random_unitary(group.n, rng, special=group.kind == "su")
                           for _ in range(4)])
            bad = 1.1 * gs[0]
        assert group.check_element(gs) is gs
        for candidate in (bad, np.stack([gs[0], bad])):
            with pytest.raises(ValueError):
                group.check_element(candidate)
    su2 = build_model("su2-cp1")
    with pytest.raises(ValueError):
        su2.group.check_element(np.exp(0.3j) * np.eye(2))  # unitary, det != 1


def test_moment_map_stack_and_min_norm_reference():
    rng = np.random.default_rng(14)
    for mid in MODEL_IDS:
        model = build_model(mid)
        xs = np.stack([random_sphere_point(model.d, rng) for _ in range(6)])
        per_point = [[-hermitian_inner(a @ x, x).imag for a in model.generators] for x in xs]
        np.testing.assert_allclose(model.moment_map(xs), per_point, rtol=0, atol=1e-14)
        # construction-time minimum vs the per-point loop over the same draw
        draw = np.random.default_rng(11)
        points = [random_sphere_point(model.d, draw) for _ in range(400)]
        points += list(np.eye(model.ambient_dim, dtype=complex))
        worst = min(model.metric.norm_covector(model.moment_map(x)) for x in points)
        assert np.isclose(model.min_moment_norm, worst, rtol=1e-14, atol=0), mid


def test_model_construction_rejects_vanishing_moment():
    with pytest.raises(AssumptionViolation):
        TorusModel("bad", [[0, 1]], (1.0,))  # Phi([1:0]) = 0


def test_d_phi():
    # rank 1: empty matrix, scalar 1
    model = build_model("su2-cp1")
    nu = model.default_nu
    s = model.locus_decompose(nu, model.default_locus_point(nu))
    D, scalar = model.d_phi(nu, s)
    assert D.shape == (0, 0) and scalar == 1.0
    # u2: single t' direction, scalar = ||eta_M||
    model = build_model("u2-cp2")
    nu = model.default_nu
    s = model.locus_decompose(nu, model.default_locus_point(nu))
    D, scalar = model.d_phi(nu, s)
    eta = s.t_prime_basis[0]
    assert np.isclose(scalar, np.linalg.norm(model.val(s.x, eta)), rtol=1e-12)


def test_d_phi_basis_invariance():
    # the sqrt-determinant is independent of the phi-orthonormal basis
    model = t3_cp3_model()
    nu = model.default_nu
    x = unit_point(np.sqrt([0.5, 0.2, 0.2, 0.1]))
    s = model.locus_decompose(nu, x)
    assert isinstance(s, LocusSample)
    _, scalar = model.d_phi(nu, s)
    # rotate the 2-dim t' basis by assorted angles
    b1, b2 = s.t_prime_basis
    for ang in (0.3, 1.1, 2.0):
        r1 = np.cos(ang) * b1 + np.sin(ang) * b2
        r2 = -np.sin(ang) * b1 + np.cos(ang) * b2
        rotated = LocusSample(model, nu, s.x, s.phi, s.sigma, s.h,
                              s.t_basis, (r1, r2), s.residual)
        _, scalar2 = model.d_phi(nu, rotated)
        assert np.isclose(scalar2, scalar, rtol=1e-12)


def test_normal_space_dimensions():
    for mid, expected in (("s1-cp1-w12", 0), ("su2-cp1", 0),
                          ("t2-cp2", 1), ("u2-cp2", 1)):
        model = build_model(mid)
        nu = model.default_nu
        s = model.locus_decompose(nu, model.default_locus_point(nu))
        assert len(model.normal_space(nu, s)) == expected


def test_normal_space_orthogonal_to_locus_tangent():
    # finite-difference tangent vectors of M_O vs the computed normals
    for mid in ("t2-cp2", "u2-cp2"):
        model = build_model(mid)
        nu = model.default_nu
        curve = model.locus_simplex_curve(nu)
        h = 1e-5
        for s_par in (0.35, 0.6):
            x = unit_point(np.sqrt(curve(s_par)))
            samp = model.locus_decompose(nu, x)
            n = model.normal_space(nu, samp)[0]
            # tangents: the curve direction and the torus orbit directions
            tangents = [model.horizontal(
                x, (np.sqrt(curve(s_par + h)) - np.sqrt(curve(s_par - h))) / (2 * h))]
            for j in range(model.group.rank):
                tangents.append(model.val(x, np.eye(model.group.dim)[j]))
            for t in tangents:
                cosine = abs(hermitian_inner(n, t).real) / (np.linalg.norm(n) * np.linalg.norm(t))
                assert cosine < 1e-4, mid


def test_normal_vectors_symplectically_involutive():
    # omega(v1, v2) = 0 for normal vectors (needs rank >= 3 for two of them)
    model = t3_cp3_model()
    nu = model.default_nu
    x = unit_point(np.sqrt([0.5, 0.2, 0.2, 0.1]))
    s = model.locus_decompose(nu, x)
    normals = model.normal_space(nu, s)
    assert len(normals) == 2
    assert abs(hermitian_inner(normals[0], normals[1]).imag) < 1e-12


def test_normal_space_inside_J_of_orbit_directions():
    for mid in ("t2-cp2", "u2-cp2"):
        model = build_model(mid)
        nu = model.default_nu
        s = model.locus_decompose(nu, model.default_locus_point(nu))
        n = model.normal_space(nu, s)[0]
        vm = model.val_matrix(s.x)
        J_orbit = 1j * vm
        stack = np.concatenate([J_orbit.real, J_orbit.imag], axis=0)
        target = np.concatenate([n.real, n.imag])
        coef, res, *_ = np.linalg.lstsq(stack, target, rcond=None)
        assert np.linalg.norm(stack @ coef - target) < 1e-10


def test_w_space_dimensions_and_orthogonality():
    model = build_model("s1-cp1-w12")
    x = model.default_locus_point()
    assert len(model.w_space(x)) == 0          # group + J directions fill T_mM
    model2 = build_model("s1-cp2-w123")
    x2 = model2.default_locus_point()
    wb = model2.w_space(x2)
    assert len(wb) == 1                        # complex one-dimensional
    # orthogonal to the orbit directions in the Hermitian sense
    v = model2.val(x2, [1.0])
    assert abs(hermitian_inner(wb[0], v)) < 1e-12
    # full-group fixed point: w space is all of T_mM
    e1 = unit_point([1, 0])
    assert len(build_model("s1-cp1-w12").w_space(e1)) == 1


def test_w_space_meets_normal_space_trivially():
    model = build_model("t2-cp2")
    nu = model.default_nu
    s = model.locus_decompose(nu, model.default_locus_point(nu))
    n = model.normal_space(nu, s)[0]
    for w in model.w_space(s.x):
        cosine = abs(hermitian_inner(n, w)) / (np.linalg.norm(n) * np.linalg.norm(w))
        assert cosine < np.cos(1e-3)


def test_displace_chart_properties():
    model = build_model("s1-cp2-w123")
    rng = np.random.default_rng(5)
    x = random_sphere_point(model.d, rng)
    assert np.allclose(model.displace(x, 0.0, np.zeros(3)), x)
    v = model.horizontal(x, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    v *= 0.3 / np.linalg.norm(v)
    # alpha-horizontality of the theta = 0 curve at tau = 0
    h = 1e-7
    vel = (model.displace(x, 0.0, h * v) - model.displace(x, 0.0, -h * v)) / (2 * h)
    alpha = np.imag(np.vdot(x, vel))
    assert abs(alpha) < 1e-8
    # theta-translation is fiber rotation
    assert np.allclose(model.displace(x, 0.7, v),
                       np.exp(0.7j) * model.displace(x, 0.0, v))
    with pytest.raises(ValueError):
        model.displace(x, 0.0, 5.0 * v / np.linalg.norm(v))
    with pytest.raises(ValueError):
        model.displace(x, 0.0, x * 0.1)   # not horizontal


def find_locus_point(model, nu, seeds):
    """Locate a point of M_O by refining cone-distance minimizers.

    Random seeds followed by Nelder-Mead refinement of the squared cone
    distance.  Raises :class:`AssumptionViolation` when the locus is
    empty (nothing comes close to the cone).
    """
    from scipy.optimize import minimize

    nu = half_weight(model.group, nu)
    rng = np.random.default_rng(5)

    def distance_of(vec):
        x = unit_point(vec[:model.ambient_dim] + 1j * vec[model.ambient_dim:])
        out = model.locus_decompose(nu, x, tol=1e-9)
        if isinstance(out, LocusSample):
            return 0.0, x
        return out.distance, x

    best = (np.inf, None)
    for _ in range(seeds):
        vec = rng.standard_normal(2 * model.ambient_dim)
        d, x = distance_of(vec)
        if d < best[0]:
            best = (d, vec)
    res = minimize(lambda v: distance_of(v)[0] ** 2, best[1],
                   method="Nelder-Mead",
                   options={"xatol": 1e-14, "fatol": 1e-26, "maxiter": 4000})
    dist, x = distance_of(res.x)
    if dist > 1e-6:
        raise AssumptionViolation(
            f"locus of nu = {nu.coords} appears empty on {model.id} "
            f"(best refined cone distance {dist:.3g})")
    return model.locus_decompose(nu, x, tol=1e-8)


def test_null_space_matches_scipy():
    from scipy.linalg import null_space
    from coorbit.models import _null_space
    rng = np.random.default_rng(3)
    for shape in ((1, 3), (2, 3), (1, 4), (3, 5), (2, 2)):
        for imag in (0.0, 1.0):
            a = rng.standard_normal(shape) + 1j * imag * rng.standard_normal(shape)
            assert np.array_equal(_null_space(a), null_space(a))
    # the rank rule: singular values up to max(s) eps max(M, N) = 6.7e-16
    # count as zero
    for s2, nullity in ((1e-15, 1), (4e-16, 2), (0.0, 2)):
        a = np.array([[1.0, 0.0, 0.0], [0.0, s2, 0.0]])
        assert _null_space(a).shape == (3, nullity)
        assert np.array_equal(_null_space(a), null_space(a))


def test_find_locus_point_and_empty_locus():
    model = build_model("t2-cp2")
    sample = find_locus_point(model, (2.0, 1.0), seeds=60)
    assert isinstance(sample, LocusSample)
    assert sample.residual < 1e-8
    with pytest.raises(AssumptionViolation):
        find_locus_point(model, (2.0, -1.0), seeds=40)


def test_simplex_quadrature_moments():
    # exact Beta-integral moments on the simplex
    from math import factorial
    for d in (1, 2, 3):
        nodes, w = simplex_quadrature(d, 16)
        assert np.isclose(w.sum(), 1.0 / factorial(d), rtol=1e-13)
        alpha = [2] + [1] * d
        vals = np.prod(nodes ** np.array(alpha), axis=1)
        exact = np.prod([factorial(a) for a in alpha]) / factorial(sum(alpha) + d)
        assert np.isclose(vals @ w, exact, rtol=1e-12)


def test_simplex_quadrature_equals_loop_reference():
    # the array construction keeps the loop's operation order exactly
    for d in (2, 3):
        for n in (1, 7, 16):
            nodes, w = simplex_quadrature(d, n)
            ref_nodes, ref_w = simplex_quadrature_loop(d, n)
            assert np.array_equal(nodes, ref_nodes), (d, n)
            assert np.array_equal(w, ref_w), (d, n)
    with pytest.raises(ValueError):
        simplex_quadrature(4, 8)


def test_unitary_lift_commutes_with_fiber_rotation():
    # the lift of exp(xi) is the flow of the model's generators at xi
    from scipy.linalg import expm
    rng = np.random.default_rng(6)
    for mid in MODEL_IDS:
        model = build_model(mid)
        xi = rng.uniform(-np.pi, np.pi, model.group.dim)
        g = xi if model.group.kind == "torus" else expm(
            np.einsum("j,jab->ab", xi, np.asarray(model.group.basis_matrices)))
        U = lifted_action(model, [g])[0]
        assert np.allclose(U, expm(np.einsum("j,jab->ab", xi, model.generators)), atol=1e-12)
        assert np.allclose(U @ U.conj().T, np.eye(model.ambient_dim), atol=1e-12)
        x = random_sphere_point(model.d, rng)
        assert np.allclose(U @ (1j * x), 1j * (U @ x))
