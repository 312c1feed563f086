import numpy as np
import pytest

from coorbit.groups import (
    AssumptionViolation,
    build_group,
    half_weight,
    random_unitary,
    trace_metric,
)
from coorbit.hardy import equivariant_kernel, isotypic_dim
from coorbit.models import MODEL_IDS, build_model, unit_point
from coorbit.predictor import (
    dimension_coefficient,
    gaussian_pair_exponent,
    leading_coefficient,
    phase_hessian,
    predict_near_diagonal,
)

from oracles import lifted_action


# -- the universal Gaussian exponent ----------------------------------------

def test_gaussian_pair_exponent_examples():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert gaussian_pair_exponent(u, u) == 0.0
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.isclose(gaussian_pair_exponent(u, 0 * u),
                      -0.5 * np.linalg.norm(u) ** 2)
    e1 = np.array([1.0, 0.0], dtype=complex)
    assert np.isclose(gaussian_pair_exponent(e1, 1j * e1), -1.0 - 1.0j)
    # Hermitian-type symmetry: psi2(v, u) = conj(psi2(u, v))
    assert np.isclose(gaussian_pair_exponent(v, u),
                      np.conj(gaussian_pair_exponent(u, v)))


# -- leading coefficient ------------------------------------------------------

def closed_form_leading(model, nu, sample):
    r = model.group.rank
    nphi = model.metric.norm_covector(sample.phi)
    _, dsc = model.d_phi(nu, sample)
    if model.group.kind == "torus":
        return (np.sqrt(2) * np.pi) ** (1 - r) / (nphi * dsc)
    if model.group.kind == "su":
        lam = nphi / np.sqrt(2)
        return 1.0 / (2 * lam)
    return 1.0 / (np.sqrt(2) * np.pi) / (nphi * dsc)


def test_leading_coefficient_closed_forms():
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        s = model.locus_decompose(nu, model.default_locus_point(nu))
        psi = leading_coefficient(model, nu, s)
        assert np.isclose(psi, closed_form_leading(model, nu, s), rtol=1e-12), mid


def test_leading_coefficient_metric_independence():
    for mid in MODEL_IDS:
        base = build_model(mid)
        nu = base.default_nu
        x = base.default_locus_point(nu)
        psi0 = leading_coefficient(base, nu, base.locus_decompose(nu, x))
        for c in (2.0, 5.0):
            scaled = build_model(mid, metric_scale=c)
            psi = leading_coefficient(scaled, nu, scaled.locus_decompose(nu, x))
            assert abs(psi / psi0 - 1) <= 1e-10, (mid, c)


def test_leading_coefficient_group_invariance():
    rng = np.random.default_rng(1)
    for mid in ("su2-cp1", "u2-cp2"):
        model = build_model(mid)
        nu = model.default_nu
        x = model.default_locus_point(nu)
        psi0 = leading_coefficient(model, nu, model.locus_decompose(nu, x))
        for _ in range(5):
            g = random_unitary(model.group.n, rng, special=(model.group.kind == "su"))
            moved = lifted_action(model, [g])[0] @ x
            psi = leading_coefficient(model, nu, model.locus_decompose(nu, moved))
            assert abs(psi / psi0 - 1) <= 1e-10


def test_leading_coefficient_needs_locus_sample():
    model = build_model("t2-cp2")
    nu = model.default_nu
    off = model.locus_decompose(nu, unit_point(np.sqrt([0.25, 0.45, 0.3])))
    with pytest.raises(AssumptionViolation):
        leading_coefficient(model, nu, off)


# -- near-diagonal prediction ---------------------------------------------------

def test_prediction_diagonal_closed_form():
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        s = model.locus_decompose(nu, model.default_locus_point(nu))
        psi = leading_coefficient(model, nu, s)
        k = model.valid_k(32)
        pred = predict_near_diagonal(model, nu, s, k)
        power = model.d + (1 - model.group.rank) / 2
        assert pred.value == psi * (k / (s.sigma * np.pi)) ** power
        assert pred.gaussian_factor == 1.0
        assert pred.value.real > 0 and abs(pred.value.imag) == 0.0


def test_prediction_su2_closed_form_k_nu_over_pi():
    model = build_model("su2-cp1")
    for nu_val in (1.0, 2.0):
        nu = half_weight(model.group, nu_val)
        s = model.locus_decompose(nu, model.default_locus_point(nu))
        for k in (8, 64, 512):
            pred = predict_near_diagonal(model, nu, s, k)
            assert np.isclose(pred.value.real, k * nu_val / np.pi, rtol=1e-12)
            exact = equivariant_kernel(model, nu, k,
                                       s.x, s.x).real
            assert np.isclose(exact, pred.value.real, rtol=1e-12)


def test_prediction_monomial_growth():
    model = build_model("t2-cp2")
    nu = model.default_nu
    s = model.locus_decompose(nu, model.default_locus_point(nu))
    power = model.d + (1 - model.group.rank) / 2
    p1 = predict_near_diagonal(model, nu, s, 64).value.real
    p2 = predict_near_diagonal(model, nu, s, 128).value.real
    assert np.isclose(p2 / p1, 2.0 ** power, rtol=1e-14)


def test_prediction_gaussian_factor_modulus():
    model = build_model("t2-cp2")
    nu = model.default_nu
    s = model.locus_decompose(nu, model.default_locus_point(nu))
    v = model.normal_space(nu, s)[0]
    v = v / np.linalg.norm(v)
    pred = predict_near_diagonal(model, nu, s, 64, v1=1.3 * v, v2=0.4 * v)
    assert abs(pred.gaussian_factor) <= 1.0
    expected = np.exp(-(1.3 ** 2 + 0.4 ** 2) / s.sigma)
    assert np.isclose(abs(pred.gaussian_factor), expected, rtol=1e-12)
    js = pred.to_json()
    assert '"sigma"' in js and '"leading_coefficient"' in js


def test_prediction_w_alignment_is_flat():
    model = build_model("s1-cp2-w123")
    nu = model.default_nu
    s = model.locus_decompose(nu, model.default_locus_point(nu))
    w = model.w_space(s.x)[0]
    w = 1.1 * w / np.linalg.norm(w)
    pred = predict_near_diagonal(model, nu, s, 64, w1=w, w2=w)
    assert np.isclose(abs(pred.gaussian_factor), 1.0, rtol=1e-12)


def test_prediction_membership_errors():
    model = build_model("t2-cp2")
    nu = model.default_nu
    s = model.locus_decompose(nu, model.default_locus_point(nu))
    # a generic tangent vector is neither normal nor in the w space
    rng = np.random.default_rng(2)
    t = model.horizontal(s.x, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    t /= np.linalg.norm(t)
    with pytest.raises(AssumptionViolation):
        predict_near_diagonal(model, nu, s, 64, v1=t)
    with pytest.raises(AssumptionViolation):
        predict_near_diagonal(model, nu, s, 64, w1=t)
    off = model.locus_decompose(nu, unit_point(np.sqrt([0.25, 0.45, 0.3])))
    with pytest.raises(AssumptionViolation):
        predict_near_diagonal(model, nu, off, 64)
    v = model.normal_space(nu, s)[0]
    with pytest.raises(AssumptionViolation):
        predict_near_diagonal(model, nu, s, 64, v1=50.0 * v)  # beyond k^epsilon


def test_two_point_prediction_with_phase():
    # distinct displacements: the exact kernel reproduces the full
    # complex leading term, including the imaginary part of psi2
    model = build_model("s1-cp2-w123")
    nu = model.default_nu
    x = model.default_locus_point(nu)
    s = model.locus_decompose(nu, x)
    w = model.w_space(x)[0]
    w = w / np.linalg.norm(w)
    k = 512
    w1, w2 = 1.1 * w, 0.8j * w
    x1 = model.displace(x, 0.0, w1 / np.sqrt(k))
    x2 = model.displace(x, 0.0, w2 / np.sqrt(k))
    exact = equivariant_kernel(model, nu, k, x1, x2)
    pred = predict_near_diagonal(model, nu, s, k, w1=w1, w2=w2).value
    assert abs(pred.imag) > 0.1 * abs(pred)      # the phase is genuinely nontrivial
    assert abs(exact / pred - 1) < 0.05
    # and the v-analogue on the rank-2 model stays real to leading order
    model2 = build_model("t2-cp2")
    nu2 = model2.default_nu
    s2 = model2.locus_decompose(nu2, model2.default_locus_point(nu2))
    vhat = model2.normal_space(nu2, s2)[0]
    vhat = vhat / np.linalg.norm(vhat)
    x1 = model2.displace(s2.x, 0.0, 0.9 * vhat / np.sqrt(k))
    x2 = model2.displace(s2.x, 0.0, -0.5 * vhat / np.sqrt(k))
    exact = equivariant_kernel(model2, nu2, k, x1, x2)
    pred = predict_near_diagonal(model2, nu2, s2, k, v1=0.9 * vhat, v2=-0.5 * vhat).value
    assert abs(exact / pred - 1) < 0.05


# -- dimension coefficient --------------------------------------------------------

def test_dimension_coefficient_closed_forms():
    # lattice-count oracles: pi/2, pi^2/12, and pi for the group models
    assert np.isclose(dimension_coefficient(build_model("s1-cp1-w12")),
                      np.pi / 2, rtol=1e-12)
    assert np.isclose(dimension_coefficient(build_model("s1-cp2-w123")),
                      np.pi ** 2 / 12, rtol=1e-12)
    assert np.isclose(dimension_coefficient(build_model("su2-cp1")),
                      np.pi, rtol=1e-12)
    assert np.isclose(dimension_coefficient(build_model("t2-cp2")),
                      np.pi, rtol=1e-10)
    assert np.isclose(dimension_coefficient(build_model("u2-cp2")),
                      np.pi, rtol=1e-10)


def test_dimension_coefficient_vs_exact_counts():
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        d0 = dimension_coefficient(model, nu)
        power = model.d + 1 - model.group.rank
        k = model.valid_k(512)
        dim = isotypic_dim(model, nu, k)
        pred = (k / np.pi) ** power * d0
        assert abs(dim - pred) / pred < 0.02, mid


def test_dimension_coefficient_metric_invariance():
    for c in (2.0, 5.0):
        a = dimension_coefficient(build_model("t2-cp2"), level=80)
        b = dimension_coefficient(build_model("t2-cp2", metric_scale=c), level=80)
        assert abs(a / b - 1) <= 1e-10


def test_dimension_coefficient_empty_locus():
    model = build_model("t2-cp2")
    with pytest.raises(AssumptionViolation):
        dimension_coefficient(model, (2.0, -1.0))


# -- stationary-phase Hessian ------------------------------------------------------

def test_phase_hessian_su2_frozen_value():
    g = build_group("su2")
    det, sig = phase_hessian(trace_metric(g), half_weight(g, 2.0), 0.5)
    assert np.isclose(det, -8.0, rtol=1e-12)
    assert sig == 0


def test_phase_hessian_torus_two_by_two():
    g = build_group("t2")
    m = trace_metric(g)
    nu = half_weight(g, (2.0, 1.0))
    sigma = 0.4
    det, sig = phase_hessian(m, nu, sigma)
    assert np.isclose(det, -sigma ** 2 * m.norm_covector(nu.coords) ** 2, rtol=1e-12)
    assert sig == 0


def test_phase_hessian_all_models():
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        s = model.locus_decompose(nu, model.default_locus_point(nu))
        xi_prime = None
        if model.group.rank >= 2:
            xi_prime = np.zeros(model.group.rank)
            # a direction in t_nu: orthogonal to nu under the duality pairing
            xi_prime[0], xi_prime[1] = nu.coords[1], -nu.coords[0]
        det, sig = phase_hessian(model.metric, nu, s.sigma, xi_prime=xi_prime)
        assert sig == 0
        assert det < 0


def test_phase_hessian_rejects_nonregular():
    g = build_group("u2")
    with pytest.raises(ValueError):
        phase_hessian(trace_metric(g), (1.5, 1.5), 0.5)   # on the wall nu1 = nu2
