"""Faults the suite verdicts must catch.

Each row patches package functions at the names the suites read them by
(``coorbit.harness``), runs only the suites and models whose verdicts
it reaches, at the ``suite all`` settings (k = 64 ... 512, seed 0), and
asserts exactly which verdicts flip from pass to fail.  A verdict that
no plausible fault can flip checks nothing.

Faults that no verdict sees today are strict expected failures: their
assertion is only that some verdict flips, and the change that adds the
verdict catching one must turn its row into a plain pass.  Faults that
other tests already inject are not repeated here: det Z x 1.01
(``test_acceptance.test_criterion_9_hessian``) and ``_exact_dimension``
+ 1 (``test_harness.test_a_dimension_off_by_one_fails_its_three_verdicts``).
"""

import numpy as np
import pytest

from coorbit import harness
from coorbit.harness import ExperimentConfig, run_suite
from coorbit.models import MODEL_IDS, LocusSample

GAUSSIAN_MODELS = harness.ALL_MODELS["gaussian"]


def _verdicts(runs):
    """{"<suite>/<model>:<fit>": passed} over ``runs``, a list of (suite,
    model ids); the characters suite takes the model id None and its keys
    are "characters/<fit>"."""
    out = {}
    for suite, model_ids in runs:
        for mid in model_ids:
            if mid is None:
                _, fits, _ = run_suite(suite, ExperimentConfig(seed=0))
                out.update({f"{suite}/{f.quantity}": f.passed for f in fits})
            else:
                _, fits, _ = run_suite(suite, ExperimentConfig(mid, seed=0))
                out.update({f"{suite}/{mid}:{f.quantity}": f.passed for f in fits})
    return out


# -- faults: each maps the exact function to a wrong one ---------------------

def _times(factor):
    return lambda exact: lambda *args, **kwargs: factor * exact(*args, **kwargs)


def _plus_one(exact):
    return lambda *args, **kwargs: exact(*args, **kwargs) + 1


def _predictions_times_1_02(exact):
    def faulty(*args, **kwargs):
        preds = exact(*args, **kwargs)      # the diag suite asks for a list
        for pred in preds:
            pred.value *= 1.02
        return preds
    return faulty


def _off_diagonal_times_1_5(exact):
    def faulty(model, nu, k, x, y):
        value = exact(model, nu, k, x, y)
        return value if np.array_equal(x, y) else 1.5 * value
    return faulty


def _sigma_times_1_05(exact):
    # harness._locus_base, read by the diag and gaussian suites; only the
    # gaussian suite is run, so this is sigma on the Gaussian side alone
    def faulty(config, model):
        nu, x, s = exact(config, model)
        return nu, x, LocusSample(s.model, s.nu, s.x, s.phi, 1.05 * s.sigma, s.h,
                                  s.t_prime_basis, s.residual)
    return faulty


def _conjugated(exact):
    return lambda *args: np.conj(exact(*args))


def _conjugated_phase(exact):
    def faulty(*args):
        log_abs, phase = exact(*args)
        return log_abs, np.conj(phase)
    return faulty


def _off_orbit_power_law(exact):
    # an off-orbit log|Pi_k| (x != y) replaced by a k^-6 law from its value
    # at the first k of the schedule; diagonal values stay exact
    def faulty(model, nu, k, x, y):
        if np.array_equal(x, y):
            return exact(model, nu, k, x, y)
        k0 = model.valid_k(64)
        log_abs, phase = exact(model, nu, k0, x, y)
        return log_abs - 6.0 * np.log(k / k0), phase
    return faulty


def _blind(reason):
    return pytest.mark.xfail(strict=True, reason=f"no verdict sees this fault yet: {reason}")


# (patches, runs, the verdicts that must flip; None: at least one)
FAULTS = [
    pytest.param(
        {"predict_near_diagonal": _predictions_times_1_02}, [("diag", MODEL_IDS)],
        [f"diag/{mid}:diag-error-exponent" for mid in MODEL_IDS],
        id="diag-prediction-x1.02"),
    pytest.param(
        {"dimension_coefficient": _times(1.005)}, [("dims", MODEL_IDS)],
        # s1-cp1-w12's fit absorbs 0.5%; it flips at x 1.02
        [f"dims/{mid}:dim-growth-exponent"
         for mid in ("s1-cp2-w123", "su2-cp1", "t2-cp2", "u2-cp2")],
        id="dimension-coefficient-x1.005"),
    pytest.param(
        {"kirillov_character": _times(1.001)}, [("characters", [None])],
        [f"characters/{name}" for name in (
            "su2-dimension-at-zero", "su2-kirillov-vs-weyl", "torus-characters",
            "u2-dimension-at-zero", "u2-kirillov-vs-weyl")],
        id="kirillov-character-x1.001"),
    pytest.param(
        {"weyl_dimension": _plus_one}, [("characters", [None])],
        [f"characters/{kind}-{name}" for kind in ("su2", "u2")
         for name in ("dimension-at-zero", "dimension-scaling", "orbit-volume")],
        id="weyl-dimension-plus-1"),
    pytest.param(
        {"equivariant_kernel": _off_diagonal_times_1_5}, [("gaussian", GAUSSIAN_MODELS)],
        # only s1-cp2-w123's locus has a w direction
        ["gaussian/s1-cp2-w123:two-point-w-modulus"],
        id="off-diagonal-kernel-x1.5"),
    pytest.param(
        {"_locus_base": _sigma_times_1_05}, [("gaussian", GAUSSIAN_MODELS)], None,
        id="gaussian-sigma-x1.05",
        marks=_blind("the v-gaussian-slope bands are +-10% and no verdict reads the "
                     "near-locus law at distance k^(eps - 1/2)")),
    pytest.param(
        {"equivariant_kernel": _conjugated, "equivariant_kernel_log": _conjugated_phase},
        [("decay", MODEL_IDS), ("dims", MODEL_IDS)], None,
        id="conjugated-kernel-phase",
        marks=_blind("every verdict reads a modulus or a real part; no weight-phase "
                     "identity Pi(t x, y) = conj chi(t) Pi(x, y) is checked")),
    pytest.param(
        {"equivariant_kernel_log": _off_orbit_power_law}, [("decay", MODEL_IDS)], None,
        id="off-orbit-decay-k^-6",
        marks=_blind("the decay verdict asks for local slopes below -5 that never "
                     "rise, which a k^-6 law meets; no exponential rate is checked")),
]


@pytest.mark.parametrize("patches, runs, expected", FAULTS)
def test_a_fault_flips_the_verdicts_that_read_it(monkeypatch, patches, runs, expected):
    clean = _verdicts(runs)
    assert all(clean.values()), clean
    for name, fault in patches.items():
        monkeypatch.setattr(harness, name, fault(getattr(harness, name)))
    faulty = _verdicts(runs)
    assert faulty.keys() == clean.keys()
    flipped = sorted(q for q, passed in faulty.items() if not passed)
    if expected is None:
        assert flipped
    else:
        assert flipped == sorted(expected)
