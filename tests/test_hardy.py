import numpy as np

from coorbit.groups import half_weight, random_unitary, trace_metric
from coorbit.characters import character_at_element, weyl_dimension
from coorbit.hardy import (
    equivariant_kernel,
    equivariant_kernel_log,
    diag_profile,
    isotypic_basis,
    isotypic_dim,
    level_basis,
    level_kernel,
    level_kernel_closed,
    monomial_log_norms,
    off_orbit_value,
    orbit_separation,
    szego_kernel,
)
from coorbit.models import MODEL_IDS, build_model, simplex_quadrature, unit_point

from oracles import lattice_count


def random_sphere_point(d, rng):
    z = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
    return z / np.linalg.norm(z)


# -- level bases ---------------------------------------------------------------

def test_level_kernel_homogeneity_invariant():
    # sum_a |z^a(x)|^2 / ||z^a||^2 is constant = dim / vol(X)
    rng = np.random.default_rng(0)
    for d, n in ((1, 7), (2, 5)):
        basis = level_basis(d, n)
        vol = np.pi ** d / np.prod(np.arange(1, d + 1))
        expected = basis.dim / vol
        for _ in range(5):
            x = random_sphere_point(d, rng)
            val = level_kernel(d, n, x, x)
            assert abs(val - expected) < 1e-10 * expected


def test_monomial_norms_quadrature_audit():
    # ||z^a||^2 = vol(X) a! d!/(n+d)! against a simplex Beta quadrature
    for d, alpha in ((1, (3, 2)), (2, (2, 1, 3)), (2, (0, 0, 4))):
        alpha = np.array(alpha)
        n = alpha.sum()
        nodes, w = simplex_quadrature(d, 24)
        integral = (2 * np.pi) ** (d + 1) / 2 ** d / (2 * np.pi) \
            * float(np.prod(nodes ** alpha, axis=1) @ w)
        closed = np.exp(monomial_log_norms(d, alpha[None, :])[0])
        assert abs(integral - closed) < 1e-10 * closed


def test_level_kernel_closed_form_identity():
    rng = np.random.default_rng(1)
    for d, n in ((1, 6), (2, 4)):
        x, y = random_sphere_point(d, rng), random_sphere_point(d, rng)
        assert abs(level_kernel(d, n, x, y)
                   - level_kernel_closed(d, n, x, y)) < 1e-12


def test_level_kernel_diagonal_and_orthogonal_points():
    from math import comb
    d, n = 2, 5
    x = unit_point([1, 0, 0])
    vol = np.pi ** 2 / 2
    assert abs(level_kernel(d, n, x, x) - comb(n + d, d) / vol) < 1e-12
    y = unit_point([0, 1, 0])   # <x, y> = 0
    assert abs(level_kernel(d, n, x, y)) == 0.0


def test_level_kernel_reproducing_property():
    # int_X |Pi_n(x, y)|^2 dV_X(y) = Pi_n(x, x), via simplex x phase grids
    d, n = 1, 4
    rng = np.random.default_rng(2)
    x = random_sphere_point(d, rng)
    nodes, w = simplex_quadrature(d, 20)
    m_phase = 4 * n + 5
    phases = 2 * np.pi * np.arange(m_phase) / m_phase
    total = 0.0
    for t, wt in zip(nodes, w):
        for p1 in phases:
            y = np.sqrt(t) * np.exp(1j * np.array([0.0, p1]))
            total += wt / m_phase * abs(level_kernel(d, n, x, y)) ** 2
    total *= (2 * np.pi) ** (d + 1) / 2 ** d / (2 * np.pi)
    assert abs(total - level_kernel(d, n, x, x).real) < 1e-6


def test_szego_kernel_sums_levels():
    rng = np.random.default_rng(3)
    x, y = random_sphere_point(1, rng), random_sphere_point(1, rng)
    total = sum(level_kernel_closed(1, n, x, y) for n in range(400))
    assert abs(total - szego_kernel(1, x, y)) < 1e-8


# -- isotypic bookkeeping --------------------------------------------------------

def test_isotypic_dim_examples():
    model = build_model("s1-cp1-w12")
    assert isotypic_dim(model, model.default_nu, 10) == 6      # floor(10/2)+1
    model2 = build_model("su2-cp1")
    assert isotypic_dim(model2, model2.default_nu, 7) == 7     # level 6
    model3 = build_model("u2-cp2")
    assert isotypic_dim(model3, model3.default_nu, 4) == 0     # even k: no label
    assert isotypic_dim(model3, model3.default_nu, 7) == 7


def test_isotypic_dim_brute_force_lattice_oracle():
    for mid, ks in (("s1-cp1-w12", (5, 9)), ("s1-cp2-w123", (7,)), ("t2-cp2", (3,))):
        model = build_model(mid)
        nu = model.default_nu
        for k in ks:
            target = np.round(k * nu.coords).astype(int)
            assert isotypic_dim(model, nu, k) == lattice_count(model.weights, target)


def test_isotypic_dim_u2_equals_rep_dimension():
    from coorbit.characters import scaled_dimension
    model = build_model("u2-cp2")
    nu = model.default_nu
    for k in (1, 3, 9, 33):
        assert isotypic_dim(model, nu, k) == scaled_dimension(model.group, nu, k)


# -- equivariant kernels -----------------------------------------------------------

def test_kernel_hermitian_symmetry_and_positivity():
    rng = np.random.default_rng(4)
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        k = model.valid_k(6)
        x, y = (random_sphere_point(model.d, rng) for _ in range(2))
        a = equivariant_kernel(model, nu, k, x, y)
        b = equivariant_kernel(model, nu, k, y, x)
        assert abs(a - np.conj(b)) < 1e-12 * max(1.0, abs(a))
        assert equivariant_kernel(model, nu, k, x, x).real >= 0.0


def test_kernel_cauchy_schwarz():
    rng = np.random.default_rng(5)
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        k = model.valid_k(8)
        for _ in range(5):
            x, y = (random_sphere_point(model.d, rng) for _ in range(2))
            lhs = abs(equivariant_kernel(model, nu, k, x, y)) ** 2
            rhs = (equivariant_kernel(model, nu, k, x, x).real
                   * equivariant_kernel(model, nu, k, y, y).real)
            assert lhs <= rhs * (1 + 1e-10)


def test_kernel_trace_equals_isotypic_dim():
    # int_X Pi(x, x) dV_X = dim, by simplex quadrature (the diagonal is
    # torus-invariant in every model)
    for mid in ("s1-cp1-w12", "t2-cp2", "su2-cp1", "u2-cp2"):
        model = build_model(mid)
        nu = model.default_nu
        k = model.valid_k(4)
        dim = isotypic_dim(model, nu, k)
        nodes, w = simplex_quadrature(model.d, 28)
        vals = np.array([equivariant_kernel(model, nu, k,
                                            np.sqrt(t), np.sqrt(t)).real
                         for t in nodes])
        trace = np.pi ** model.d * float(vals @ w)
        assert abs(trace - dim) < 1e-6 * max(1, dim), mid


def test_kernel_su2_equals_level_kernel_sum():
    # dual route: the closed-form SU(2) kernel vs the explicit level sum
    model = build_model("su2-cp1")
    nu = model.default_nu
    rng = np.random.default_rng(6)
    x, y = (random_sphere_point(1, rng) for _ in range(2))
    k = 9
    direct = equivariant_kernel(model, nu, k, x, y)
    via_sum = level_kernel(1, k - 1, x, y)
    assert abs(direct - via_sum) < 1e-10 * max(1.0, abs(direct))


def test_kernel_equivariance():
    rng = np.random.default_rng(7)
    for mid in ("s1-cp1-w12", "su2-cp1", "u2-cp2"):
        model = build_model(mid)
        nu = model.default_nu
        k = model.valid_k(5)
        x, y = (random_sphere_point(model.d, rng) for _ in range(2))
        g = (rng.uniform(0, 2 * np.pi, model.group.rank)
             if model.group.kind == "torus"
             else random_unitary(model.group.n, rng, special=(model.group.kind == "su")))
        U = model.unitary(g)
        a = equivariant_kernel(model, nu, k, U @ x, U @ y)
        b = equivariant_kernel(model, nu, k, x, y)
        assert abs(a - b) < 1e-10 * max(1.0, abs(b))


def test_peter_weyl_consistency_small_k():
    # basis-projection kernel vs the character-integral projector
    from coorbit.groups import haar_quadrature
    rng = np.random.default_rng(8)
    cases = (("s1-cp1-w12", 3, 64), ("su2-cp1", 2, 12),
             ("t2-cp2", 2, 32), ("u2-cp2", 3, 10))
    for mid, k, level in cases:
        model = build_model(mid)
        nu = model.default_nu
        group = model.group
        knu = half_weight(group, k * nu.coords)
        d = weyl_dimension(group, trace_metric(group), knu)
        x, y = (random_sphere_point(model.d, rng) for _ in range(2))
        basis = isotypic_basis(model, nu, k)
        nmax = int(basis.levels.max())
        nodes, weights = haar_quadrature(group, level)
        moved = [model.unitary(g).conj().T @ x for g in nodes]
        chis = np.array([np.conj(character_at_element(group, knu, g)) for g in nodes])
        total = 0j
        for n in range(nmax + 2):
            vals = np.array([level_kernel_closed(model.d, n, mx, y) for mx in moved])
            total += d * np.sum(weights * chis * vals)
        direct = equivariant_kernel(model, nu, k, x, y)
        assert abs(direct - total) < 1e-6 * max(1.0, abs(direct)), mid


def test_isotypic_basis_cached_on_the_model():
    import weakref
    model = build_model("s1-cp2-w123")
    basis = isotypic_basis(model, model.default_nu, 16)
    assert isotypic_basis(model, tuple(model.default_nu.coords), 16) is basis
    assert isotypic_basis(build_model("s1-cp2-w123"), model.default_nu, 16) is not basis
    ref = weakref.ref(model)
    del model
    assert ref() is None                       # the cache pins no model


def test_level_orthogonality_of_disjoint_weight_kernels():
    # kernels built from disjoint monomial sets are L^2-orthogonal
    model = build_model("s1-cp1-w12")
    nu = model.default_nu
    rng = np.random.default_rng(9)
    x = random_sphere_point(1, rng)
    b1 = isotypic_basis(model, nu, 4)
    b2 = isotypic_basis(model, nu, 5)
    assert not set(map(tuple, b1.alphas)) & set(map(tuple, b2.alphas))
    nodes, w = simplex_quadrature(1, 24)
    m_phase = 13   # above twice the top monomial degree
    phases = 2 * np.pi * np.arange(m_phase) / m_phase
    total = 0j
    for t, wt in zip(nodes, w):
        for p0 in phases:
            for p1 in phases:
                y = np.sqrt(t) * np.exp(1j * np.array([p0, p1]))
                total += wt / m_phase ** 2 * (
                    equivariant_kernel(model, nu, 4, x, y)
                    * np.conj(equivariant_kernel(model, nu, 5, x, y)))
    total *= (2 * np.pi) ** 2 / 2 / (2 * np.pi)
    assert abs(total) < 1e-8


def test_chart_validation_gaussian_limit():
    # (vol/dim_n) Pi_n(x + v/sqrt(n), x) -> exp(psi2(v, 0)) = exp(-|v|^2/2)
    rng = np.random.default_rng(10)
    d = 1
    x = random_sphere_point(d, rng)
    model = build_model("s1-cp1-w12")
    v = model.horizontal(x, rng.standard_normal(2) + 1j * rng.standard_normal(2))
    v *= 0.9 / np.linalg.norm(v)
    target = np.exp(-0.5 * np.linalg.norm(v) ** 2)
    errs, ns = [], []
    vol = np.pi
    for n in (64, 128, 256, 512):
        y = model.displace(x, 0.0, v / np.sqrt(n))
        dim = n + 1
        val = level_kernel_closed(d, n, y, x) * vol / dim
        errs.append(abs(val - target))
        ns.append(n)
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope < -0.45          # within the O(n^{-1/2}) claim
    assert errs[-1] < 0.01


def test_diag_profile_peak_and_width():
    # the diagonal peaks on the locus and has width ~ k^{-1/2}
    model = build_model("t2-cp2")
    nu = model.default_nu
    curve = model.locus_simplex_curve(nu)
    t0 = curve(0.5)
    x0 = model.point(np.sqrt(t0))
    sample = model.locus_decompose(nu, x0)
    n_vec = model.normal_space(nu, sample)[0]
    n_vec = n_vec / np.linalg.norm(n_vec)
    widths, ks = [], []
    for k in (64, 128, 256, 512):
        amps = np.linspace(-2.5, 2.5, 41)
        pts = [model.displace(x0, 0.0, a * n_vec / np.sqrt(k)) for a in amps]
        vals = np.array([v for _, v in diag_profile(model, nu, k, pts)])
        peak_at = amps[np.argmax(vals)]
        assert abs(peak_at) <= 2 * 5.0 / np.sqrt(k) + 0.51  # grid-resolution peak
        half = vals >= 0.5 * vals.max()
        width_scaled = (amps[half].max() - amps[half].min())  # in units of 1/sqrt(k)
        widths.append(width_scaled / np.sqrt(k))
        ks.append(k)
    slope = np.polyfit(np.log(ks), np.log(widths), 1)[0]
    assert abs(slope + 0.5) < 0.05


def test_diag_profile_symmetry():
    # the S^1-(1,2) model is symmetric under conjugating the coordinates
    model = build_model("s1-cp1-w12")
    nu = model.default_nu
    k = 12
    ts = np.linspace(0.1, 0.9, 9)
    pts = [unit_point([np.sqrt(1 - t), np.sqrt(t)]) for t in ts]
    vals = [v for _, v in diag_profile(model, nu, k, pts)]
    conj_vals = [equivariant_kernel(model, nu, k, np.conj(p), np.conj(p)).real
                 for p in pts]
    assert np.allclose(vals, conj_vals, rtol=1e-12)


def test_off_orbit_value_metadata():
    model = build_model("s1-cp1-w12")
    nu = model.default_nu
    x = unit_point([np.sqrt(0.7), np.sqrt(0.3)])
    # y on the same orbit: separation ~ 0
    y = model.unitary(np.array([1.3])) @ x
    ov = off_orbit_value(model, nu, 8, x, y)
    assert ov.separation < 1e-6
    # separated pair: superpolynomial decay of the log-magnitude slope
    y2 = unit_point([np.sqrt(0.45), np.sqrt(0.55)])
    sep = orbit_separation(model, x, y2)
    assert sep > 0.1
    ks = (64, 128, 256, 512)
    lv = [off_orbit_value(model, nu, k, x, y2, separation=sep).log_abs for k in ks]
    slopes = np.diff(lv) / np.diff(np.log(ks))
    assert slopes[-1] < -5.0
    assert np.all(np.diff(slopes) < 0)


def test_log_space_evaluation_survives_large_k():
    # binomial magnitudes near k = 4096 overflow naive arithmetic; the
    # log-space path keeps the 1/k error law intact
    from coorbit.predictor import predict_near_diagonal
    model = build_model("s1-cp1-w12")
    nu = model.default_nu
    x = model.default_locus_point(nu)
    s = model.locus_decompose(nu, x)
    exact = equivariant_kernel(model, nu, 4096, x, x).real
    pred = predict_near_diagonal(model, nu, s, 4096).value.real
    assert np.isfinite(exact) and exact > 0
    assert abs(exact / pred - 1) < 1e-3


def test_mismatched_weights_give_zero_kernel():
    model = build_model("t2-cp2")
    bad_nu = half_weight(model.group, (2.0, -1.0))
    rng = np.random.default_rng(11)
    x, y = (random_sphere_point(2, rng) for _ in range(2))
    for k in (1, 4, 16):
        assert isotypic_dim(model, bad_nu, k) == 0
        assert equivariant_kernel(model, bad_nu, k, x, y) == 0.0
        logmag, _ = equivariant_kernel_log(model, bad_nu, k, x, y)
        assert logmag == -np.inf
