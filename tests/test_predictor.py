import numpy as np
import pytest

from coorbit import predictor
from coorbit.groups import (
    AssumptionViolation,
    half_weight,
    random_unitary,
)
from coorbit.hardy import equivariant_kernel, isotypic_dim
from coorbit.models import MODEL_IDS, build_model, unit_point
from coorbit.predictor import (
    dimension_coefficient,
    gaussian_pair_exponent,
    leading_coefficient,
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


def _fields_bitwise_equal(a, b):
    """Every field of two Predictions, compared by its bytes."""
    return vars(a).keys() == vars(b).keys() and all(
        np.asarray(v).tobytes() == np.asarray(getattr(b, f)).tobytes()
        for f, v in vars(a).items())


def test_prediction_stack_matches_per_k_calls():
    # one call for a stack of k gives, field for field and bit for bit,
    # what one call per k gives (u2-cp2 at its odd k)
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        s = model.locus_decompose(nu, model.default_locus_point(nu))
        ks = [model.valid_k(k) for k in (16, 64, 512, 1024, 8192)]
        if mid == "u2-cp2":
            assert all(k % 2 == 1 for k in ks)
        stacked = predict_near_diagonal(model, nu, s, ks)
        assert isinstance(stacked, list) and len(stacked) == len(ks), mid
        for k, pred in zip(ks, stacked):
            one = predict_near_diagonal(model, nu, s, k)
            assert pred.k == k and type(pred.value) is complex, mid
            assert _fields_bitwise_equal(pred, one), (mid, k)
        # a one-element stack is a list of the one-k prediction
        [alone] = predict_near_diagonal(model, nu, s, np.array(ks[:1]))
        assert _fields_bitwise_equal(alone, stacked[0]), mid
    # the stacked displacement path too
    model = build_model("s1-cp2-w123")
    nu = model.default_nu
    s = model.locus_decompose(nu, model.default_locus_point(nu))
    w = model.w_space(s.x)[0]
    w = 1.1 * w / np.linalg.norm(w)
    for k, pred in zip((64, 512), predict_near_diagonal(model, nu, s, (64, 512), w1=w, w2=0.3j * w)):
        assert _fields_bitwise_equal(pred, predict_near_diagonal(model, nu, s, k, w1=w, w2=0.3j * w))


def test_zero_displacement_stack_builds_no_spaces(monkeypatch):
    # at zero displacement no span is built and the leading coefficient is
    # computed once for the whole stack
    def refuse(*args, **kwargs):
        raise AssertionError("a displacement space was built for zero displacements")

    calls = []
    leading = predictor.leading_coefficient
    monkeypatch.setattr(predictor, "leading_coefficient",
                        lambda *args: calls.append(args) or leading(*args))
    for mid in MODEL_IDS:
        model = build_model(mid)
        nu = model.default_nu
        s = model.locus_decompose(nu, model.default_locus_point(nu))
        monkeypatch.setattr(model, "normal_space", refuse)
        monkeypatch.setattr(model, "w_space", refuse)
        calls.clear()
        preds = predict_near_diagonal(model, nu, s, [model.valid_k(k) for k in (64, 128, 256)])
        assert len(preds) == 3 and len(calls) == 1, mid
        zero = np.zeros(model.ambient_dim)
        predict_near_diagonal(model, nu, s, 64, v1=zero, w2=zero)
        assert len(calls) == 2, mid


def test_stacked_prediction_checks_every_displacement():
    model = build_model("t2-cp2")
    nu = model.default_nu
    s = model.locus_decompose(nu, model.default_locus_point(nu))
    ks = [64, 128, 256]
    rng = np.random.default_rng(2)
    t = model.horizontal(s.x, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    t /= np.linalg.norm(t)
    with pytest.raises(AssumptionViolation, match="not normal"):
        predict_near_diagonal(model, nu, s, ks, v2=t)
    with pytest.raises(AssumptionViolation, match="h-orthogonal"):
        predict_near_diagonal(model, nu, s, ks, w1=t)
    # admissible at k = 4096 (radius 12) but not at k = 64 (radius 6): the
    # smallest k of the stack decides, wherever it stands
    v = model.normal_space(nu, s)[0]
    v = 8.0 * v / np.linalg.norm(v)
    predict_near_diagonal(model, nu, s, [4096], v1=v)
    for stack in ([64, 4096], [4096, 64]):
        with pytest.raises(AssumptionViolation, match="admissible radius"):
            predict_near_diagonal(model, nu, s, stack, v1=v)
    for bad in ([], [[64, 128]]):
        with pytest.raises(ValueError):
            predict_near_diagonal(model, nu, s, bad)


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


def test_dimension_coefficient_is_symmetric_in_the_t2_weights():
    # swapping coordinates 0 and 1 of CP^2 together with the two torus
    # factors is a symmetry of t2-cp2 under the trace metric, so delta_0
    # takes one value at (nu_1, nu_2) and (nu_2, nu_1); at (1, 3) it is
    # pi, as min(K_1, K_2) + 1 = k + 1 exponents say
    model = build_model("t2-cp2")
    for nu in ((3.0, 1.0), (2.0, 1.0), (5.0, 2.0), (1.0, 1.0)):
        a = dimension_coefficient(model, nu)
        b = dimension_coefficient(model, nu[::-1])
        assert abs(a - b) <= 1e-14 * abs(a), nu
    assert abs(dimension_coefficient(model, (1.0, 3.0)) / np.pi - 1.0) <= 1e-12


def test_dimension_coefficient_empty_locus():
    model = build_model("t2-cp2")
    with pytest.raises(AssumptionViolation):
        dimension_coefficient(model, (2.0, -1.0))

