"""Experiment suites: character consistency, diagonal scaling, Gaussian
profiles, rapid decrease, and dimension growth, with CSV/JSON emission
and log-log rate fitting.

Every row carries (model, nu, k, quantity, value, predicted, err) so the
acceptance criteria are machine-checkable from the CSV alone.  A fixed
seed makes output byte-identical across runs.
"""

import json
import math
import os

import numpy as np

from .characters import (
    kirillov_character,
    orbit_quadrature,
    peter_weyl_projector_weight,
    scaled_dimension,
    weyl_character,
    weyl_dimension,
)
from .groups import (
    AssumptionViolation,
    build_group,
    half_weight,
    random_unitary,
    trace_metric,
)
from .hardy import (
    equivariant_kernel,
    equivariant_kernel_log,
    isotypic_dim,
    orbit_separation,
)
from .models import MODEL_IDS, LocusSample, build_model, unit_point
from .predictor import (
    dimension_coefficient,
    gaussian_pair_exponent,
    predict_near_diagonal,
)


# The model a suite runs on when none is named.
DEFAULT_MODEL_ID = "s1-cp1-w12"


class ExperimentConfig:
    """Declarative description of one suite run.

    The k schedule is geometric: k_min, k_min*k_factor, ... <= k_max,
    with k_min >= 1, k_max >= k_min and k_factor >= 2, so it is strictly
    increasing.  A fixed seed makes CSV output byte-identical.
    """

    def __init__(self, model_id=DEFAULT_MODEL_ID, nu=None, k_min=64, k_max=512, k_factor=2,
                 out_dir=None, fmt="csv", seed=0):
        self.model_id = model_id
        self.nu = nu
        self.k_min = k_min
        self.k_max = k_max
        self.k_factor = k_factor
        self.out_dir = out_dir
        self.fmt = fmt
        self.seed = seed
        for bad, bound, got in ((k_min < 1, "k_min >= 1", k_min),
                                (k_max < k_min, f"k_max >= k_min = {k_min}", k_max),
                                (k_factor < 2, "k_factor >= 2", k_factor)):
            if bad:
                raise ValueError(f"k schedule needs {bound}; got {got}")
        if k_min * k_factor > k_max:
            raise ValueError(f"k schedule {self.k_schedule} needs at least two k values "
                             "for a rate fit (k_max >= k_min * k_factor)")
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown output format {fmt!r}")
        if model_id.lower() not in MODEL_IDS:
            raise ValueError(f"unknown model id {model_id!r}; "
                             f"known ids: {', '.join(MODEL_IDS)}")

    @property
    def k_schedule(self):
        ks, k = [], self.k_min
        while k <= self.k_max:
            ks.append(k)
            k *= self.k_factor
        return tuple(ks)


# Orbit and locus quadrature level of the character and dims suites.
_QUAD_LEVEL = 64
# Gaussian-profile displacements, in units of 1/sqrt(k).
_DISPLACEMENTS = np.array([0.4, 0.8, 1.2, 1.6, 2.0])


class Row:
    """One CSV row: a measured value, its prediction and their error."""

    def __init__(self, model, nu, k, quantity, value, predicted, err):
        self.model = model
        self.nu = nu
        self.k = k
        self.quantity = quantity
        self.value = value
        self.predicted = predicted
        self.err = err


class FitResult:
    """One verdict: its residual, whether it passed, and the fitted rate."""

    def __init__(self, quantity, residual, passed, exponent=np.nan, intercept=np.nan,
                 band=None, note=""):
        self.quantity = quantity
        self.residual = residual
        self.passed = passed
        self.exponent = exponent
        self.intercept = intercept
        self.band = band
        self.note = note


def _nu_str(coords):
    return ";".join(repr(float(c)) for c in np.atleast_1d(coords))


def _random_regular_cartan(group, metric, rng):
    """Cartan coefficients with phi-norm in [0.3, 1], away from all walls."""
    while True:
        c = rng.uniform(-1.0, 1.0, size=group.rank)
        n = np.sqrt(metric.inner(c, c))
        c = c * (rng.uniform(0.3, 1.0) / n)
        if all(abs(float(beta @ c)) > 2e-2 for beta in group.positive_roots):
            return c


def fit_power(ks, errs):
    """Least-squares slope/intercept of log err vs log k over the top
    half of the schedule; returns (slope, intercept, max log residual)."""
    ks = np.asarray(ks, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = errs > 0
    ks, errs = ks[keep], errs[keep]
    if len(ks) < 2:
        return np.nan, np.nan, np.nan
    half = len(ks) // 2 if len(ks) > 3 else 0
    x, y = np.log(ks[half:]), np.log(errs[half:])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.max(np.abs(y - (slope * x + intercept))))
    return float(slope), float(intercept), residual


# -- shared builders --------------------------------------------------------


def _check(rows, fits, name, row, passed, **fit):
    """Record ``row`` and the fitless verdict ``name`` it backs, whose
    residual is the row's error."""
    rows.append(row)
    fits.append(FitResult(name, row.err, bool(passed), **fit))


def _rate_fit(name, rows, floor, band, at_floor, last_err=np.inf):
    """Verdict on the error law of ``rows`` (one per k): exact when every
    error is at most ``floor`` (recorded with the fields ``at_floor``),
    else a power-law fit whose slope lies in ``band`` and whose last
    error is at most ``last_err``."""
    ks, errs = [r.k for r in rows], [r.err for r in rows]
    if max(errs) <= floor:
        return FitResult(name, max(errs), True, **at_floor)
    slope, intercept, resid = fit_power(ks, errs)
    passed = band[0] <= slope <= band[1] and errs[-1] <= last_err
    return FitResult(name, resid, bool(passed), slope, intercept, band=band)


def _profile(rows, model, nu, x, k, diag, direction, name, predicted):
    """One row of log(Pi(x_a, x_a) / Pi(x, x)) per displacement a, with
    x_a = x moved by a * direction / sqrt(k) and ``predicted`` holding
    one value per a; returns the log-ratios."""
    logs = []
    for a, pred in zip(_DISPLACEMENTS, predicted):
        xa = model.displace(x, 0.0, a * direction / np.sqrt(k))
        log_ratio = np.log(equivariant_kernel(model, nu, k, xa, xa).real / diag)
        rows.append(Row(model.id, _nu_str(nu.coords), k, f"{name}-log-ratio-a={a}",
                        log_ratio, pred, abs(log_ratio - pred)))
        logs.append(log_ratio)
    return np.array(logs)


def _decay_sweep(rows, fits, model, nu, ks, x, y, label, fit_label):
    """One row of log|Pi_{k nu}(x, y)| per k, then the decay fit of the
    local slopes: its residual is the largest rise from one slope to the
    next (negative when every slope falls, 0 with one slope), which must
    be at most 1e-6."""
    logvals = [equivariant_kernel_log(model, nu, k, x, y)[0] for k in ks]
    rows.extend(Row(model.id, _nu_str(nu.coords), k, label, lv, -np.inf, 0.0)
                for k, lv in zip(ks, logvals))
    slopes = np.diff(logvals) / np.diff(np.log(ks))
    rises = np.diff(slopes)
    rise = float(rises.max()) if len(rises) else 0.0
    fits.append(FitResult(fit_label, rise, bool(slopes[-1] < -5.0 and rise <= 1e-6),
                          float(slopes[-1]), band=(-np.inf, -5.0),
                          note="slopes must decrease monotonically"))


# -- suites ---------------------------------------------------------------


def run_character_suite(config):
    """Character cross-checks: orbit-integral vs Weyl (Jacobi-Trudi)
    characters on SU(2) and U(2), dimensions at xi = 0, Weyl invariance,
    the exact scaling law, and the torus closed forms."""
    rng = np.random.default_rng(config.seed)
    rows, fits = [], []

    for kind, nu_coords in (("su2", (4.0,)), ("u2", (2.5, 0.5))):
        group = build_group(kind)
        metric = trace_metric(group)
        nu = half_weight(group, nu_coords)
        nu_s = _nu_str(nu.coords)
        quad = orbit_quadrature(group, metric, nu, level=_QUAD_LEVEL)
        d_nu = weyl_dimension(group, nu)
        xis = np.array([_random_regular_cartan(group, metric, rng) for _ in range(50)])
        kir = np.array([kirillov_character(group, metric, nu, xi, quad=quad) for xi in xis])
        worst = float(np.max(np.abs(kir - weyl_character(group, nu, xis)) / d_nu))
        _check(rows, fits, f"{kind}-kirillov-vs-weyl",
               Row(kind, nu_s, 1, "kirillov-vs-weyl-max-rel-err", worst, 0.0, worst),
               worst <= 1e-6, band=(0.0, 1e-6))

        at_zero = kirillov_character(group, metric, nu, np.zeros(group.rank),
                                     quad=quad).real
        dim_err = abs(at_zero - d_nu)
        _check(rows, fits, f"{kind}-dimension-at-zero",
               Row(kind, nu_s, 1, "orbit-dimension-at-zero", d_nu + dim_err, d_nu, dim_err),
               int(round(at_zero)) == d_nu and dim_err < 1e-6)

        thetas = np.array([rng.uniform(-2.0, 2.0, size=group.rank) for _ in range(10)])
        base = weyl_character(group, nu, thetas)
        # W's one other element negates the SU(2) angle and swaps the U(2)
        # angles; the identity's term is an exact 0
        moved = -thetas if kind == "su2" else thetas[:, ::-1]
        winv = float(np.max(np.abs(weyl_character(group, nu, moved) - base)))
        _check(rows, fits, f"{kind}-weyl-invariance",
               Row(kind, nu_s, 1, "weyl-invariance-max-err", winv, 0.0, winv),
               winv <= 1e-10)

        closed = (2 * np.pi) ** group.n_pos * d_nu
        vol_err = abs(quad.volume - closed) / quad.volume
        _check(rows, fits, f"{kind}-orbit-volume",
               Row(kind, nu_s, 1, "orbit-volume-vs-dimension", quad.volume, closed, vol_err),
               vol_err <= 1e-9)

        scale_ok = all(scaled_dimension(group, nu, k) == k ** group.n_pos * d_nu
                       for k in (2, 3, 5, 8, 13, 21, 34, 64))
        _check(rows, fits, f"{kind}-dimension-scaling",
               Row(kind, nu_s, 64, "dimension-scaling-exact",
                   float(scale_ok), 1.0, float(not scale_ok)),
               scale_ok)

    group = build_group("torus", 2)
    nu = half_weight(group, (2.0, 1.0))
    metric = trace_metric(group)
    thetas = np.array([rng.uniform(-np.pi, np.pi, size=2) for _ in range(20)])
    exact = np.exp(1j * (thetas @ nu.coords))
    quad = orbit_quadrature(group, metric, nu)
    kir = np.array([kirillov_character(group, metric, nu, theta, quad=quad) for theta in thetas])
    err = float(max(np.max(np.abs(weyl_character(group, nu, thetas) - exact)),
                    np.max(np.abs(kir - exact))))
    _check(rows, fits, "torus-characters",
           Row("t2", _nu_str(nu.coords), 1, "torus-character-exactness", err, 0.0, err),
           err <= 1e-12)

    # conjugation invariance of the Haar quadrature pairing
    g = build_group("su2")
    nu = half_weight(g, 2.0)
    h = random_unitary(2, rng, special=True)

    def f(t):
        trace = np.trace(t, axis1=-2, axis2=-1)
        return np.exp(1j * trace.real) * abs(trace) ** 2

    # h t h^H by two flat products over the stack: a = t h^H as (2N, 2) @
    # (2, 2), then (h a)_ik = sum_j h_ij a_jk as (N, 4) @ (4, 4)
    right, left = h.conj().T, np.kron(h, np.eye(2)).T
    base = peter_weyl_projector_weight(g, nu, 1, f, level=12)
    conj = peter_weyl_projector_weight(g, nu, 1, lambda t: f(
        ((t.reshape(-1, 2) @ right).reshape(-1, 4) @ left).reshape(t.shape)), level=12)
    cerr = abs(base - conj) / max(1.0, abs(base))
    _check(rows, fits, "su2-haar-conjugation-invariance",
           Row("su2", _nu_str(nu.coords), 1, "haar-conjugation-invariance", cerr, 0.0, cerr),
           cerr <= 1e-6)
    return rows, fits


def _locus_base(config, model):
    """(nu, x, sample): the configured nu of ``model``, the default locus
    point x and its locus decomposition."""
    nu = model.resolve_nu(config.nu)
    x = model.default_locus_point(nu)
    sample = model.locus_decompose(nu, x)
    if not isinstance(sample, LocusSample):
        raise AssumptionViolation(f"base point of {model.id} is off the locus")
    return nu, x, sample


def run_diag_convergence(config, model):
    """Exact vs predicted diagonal values of ``model`` along the k schedule
    (one prediction call for the whole schedule)."""
    nu, x, sample = _locus_base(config, model)
    ks = [model.valid_k(k) for k in config.k_schedule]
    rows = []
    for k, pred in zip(ks, predict_near_diagonal(model, nu, sample, ks)):
        exact = equivariant_kernel(model, nu, k, x, x).real
        rows.append(Row(model.id, _nu_str(nu.coords), k, "diag-ratio",
                        exact, pred.value.real, abs(exact / pred.value.real - 1.0)))
    band = (-1.2, -0.8)
    return rows, [_rate_fit("diag-error-exponent", rows, 1e-12, band, last_err=0.05,
                            at_floor=dict(band=band, note="both sides closed form; "
                                          "error at rounding floor"))]


def run_gaussian_profile(config, model):
    """Gaussian decay of ``model``'s kernel in locus-normal directions and
    flatness along the h-orthocomplement of the orbit directions."""
    nu, x, sample = _locus_base(config, model)
    sigma = sample.sigma
    rows, fits = [], []
    normal, wbasis = model.normal_space(nu, sample), model.w_space(x)
    if not (normal or wbasis):
        return rows, fits   # nothing to profile, so no diagonal is evaluated
    k0, k1 = model.valid_k(config.k_min), model.valid_k(config.k_max)
    diag1 = equivariant_kernel(model, nu, k1, x, x).real

    if normal:
        vhat = normal[0] / np.linalg.norm(normal[0])
        logs = _profile(rows, model, nu, x, k1, diag1, vhat, "v",
                        [-2.0 * a * a / sigma for a in _DISPLACEMENTS])
        slope = float(np.polyfit(_DISPLACEMENTS ** 2, logs, 1)[0])
        target = -2.0 / sigma
        fits.append(FitResult("v-gaussian-slope", abs(slope - target) / abs(target),
                              abs(slope - target) <= 0.1 * abs(target), slope,
                              band=(1.1 * target, 0.9 * target)))

    if wbasis:
        what = wbasis[0] / np.linalg.norm(wbasis[0])
        flat = np.zeros(len(_DISPLACEMENTS))
        diag0 = equivariant_kernel(model, nu, k0, x, x).real
        dev0 = np.max(np.abs(_profile(rows, model, nu, x, k0, diag0, what, "w", flat)))
        dev1 = np.max(np.abs(_profile(rows, model, nu, x, k1, diag1, what, "w", flat)))
        band_c = dev0 * np.sqrt(k0)
        bound = 1.25 * band_c / np.sqrt(k1)
        fits.append(FitResult("w-flatness-band", dev1, bool(dev1 <= bound),
                              band=(0.0, bound),
                              note=f"C calibrated at k={k0}: {band_c:.3g}"))

        # two-point modulus with w2 = -w1
        w1 = _DISPLACEMENTS[len(_DISPLACEMENTS) // 2] * what
        x1 = model.displace(x, 0.0, w1 / np.sqrt(k1))
        x2 = model.displace(x, 0.0, -w1 / np.sqrt(k1))
        val = abs(equivariant_kernel(model, nu, k1, x1, x2))
        pred = diag1 * abs(np.exp(gaussian_pair_exponent(w1, -w1) / sigma))
        err = abs(val / pred - 1.0)
        _check(rows, fits, "two-point-w-modulus",
               Row(model.id, _nu_str(nu.coords), k1, "two-point-w-modulus", val, pred, err),
               err <= 0.10, band=(0.0, 0.10))
    return rows, fits


def run_decay_suite(config, model):
    """Off-orbit and off-locus rapid decrease of ``model``'s kernel, plus
    the identically-zero weight-mismatch row on torus models."""
    nu = model.resolve_nu(config.nu)
    rows, fits = [], []
    ks = [model.valid_k(k) for k in config.k_schedule]

    x, y = _separated_pair(model, nu)
    sep = orbit_separation(model, x, y)
    if sep < 1e-4:
        # the pair lies on a single group orbit (e.g. SU(2) acts
        # transitively on the CP^1 bundle): separation 0 is recorded and
        # no decay is claimed
        _check(rows, fits, "off-orbit-decay",
               Row(model.id, _nu_str(nu.coords), ks[-1], "off-orbit-separation-zero",
                   sep, 0.0, sep),
               True, note="pair lies on one orbit; no decay expected")
    else:
        _decay_sweep(rows, fits, model, nu, ks, x, y,
                     f"off-orbit-log-abs-sep={sep:.4f}", "off-orbit-decay")

    x_off = _off_locus_point(model, nu)
    if x_off is not None:
        _decay_sweep(rows, fits, model, nu, ks, x_off, x_off,
                     "off-locus-log-abs", "off-locus-decay")

    if model.group.kind == "torus":
        mismatch = -np.asarray(nu.coords)
        bad_nu = half_weight(model.group, mismatch)
        dims = [isotypic_dim(model, bad_nu, k) for k in ks]
        all_zero = all(d == 0 for d in dims)
        _check(rows, fits, "weight-mismatch-zero",
               Row(model.id, _nu_str(mismatch), ks[-1], "weight-mismatch-dim",
                   float(sum(dims)), 0.0, float(not all_zero)),
               all_zero)
    return rows, fits


def _separated_pair(model, nu):
    if model.d == 1:
        if model.group.kind == "torus":
            return unit_point([np.sqrt(0.7), np.sqrt(0.3)]), \
                unit_point([np.sqrt(0.45), np.sqrt(0.55)])
        # SU(2) acts transitively on the circle bundle of CP^1: every
        # pair has orbit separation 0 and the suite records exactly that
        return unit_point([1.0, 0.0]), unit_point([np.sqrt(0.5), np.sqrt(0.5)])
    t_base = model.default_locus_point(nu)
    y = unit_point(np.sqrt(np.array([0.2, 0.25, 0.55])))
    return t_base, y


def _off_locus_point(model, nu):
    if model.group.rank == 1:
        return None  # the locus has codimension 0
    if model.id == "t2-cp2":
        return unit_point(np.sqrt(np.array([0.25, 0.45, 0.30])))
    if model.id == "u2-cp2":
        t, _ = model.locus_parameters(nu)
        t_off = min(0.95, t + 0.25)
        return unit_point(np.sqrt(np.array([0.6 * t_off, 0.4 * t_off, 1.0 - t_off])))
    return None


def run_dim_growth(config, model):
    """Exact isotypic dimensions of ``model`` vs (k/pi)^{d+1-r} delta_0."""
    nu = model.resolve_nu(config.nu)
    delta0 = dimension_coefficient(model, nu, level=_QUAD_LEVEL)
    power = model.d + 1 - model.group.rank
    rows = []
    for k in config.k_schedule:
        k = model.valid_k(k)
        dim = isotypic_dim(model, nu, k)
        pred = (k / np.pi) ** power * delta0
        if dim == 0 and pred > 0.5:
            raise AssumptionViolation(
                f"isotypic spaces of {model.id} at nu={nu.coords} are empty")
        rows.append(Row(model.id, _nu_str(nu.coords), k, "dim-growth",
                        dim, pred, abs(dim - pred) / pred))
    return rows, [_rate_fit("dim-growth-exponent", rows, 1e-11, (-1.4, -0.6),
                            at_floor=dict(note="exact agreement"))]


SUITES = {
    "characters": run_character_suite,
    "diag": run_diag_convergence,
    "gaussian": run_gaussian_profile,
    "decay": run_decay_suite,
    "dims": run_dim_growth,
}

# The models `suite all` runs each suite on, in output order.  None runs
# the suite once on the given config, and its fit names get no model
# prefix.  The Gaussian suite leaves out s1-cp1-w12 and su2-cp1, where it
# gives no rows: a rank-1 locus has no normal direction, and on CP^1 the
# orbit directions span the tangent space over C, so no w direction is
# left.  Its tuple fixes the row order of the other three.
ALL_MODELS = {
    "characters": (None,),
    "diag": MODEL_IDS,
    "gaussian": ("t2-cp2", "u2-cp2", "s1-cp2-w123"),
    "decay": MODEL_IDS,
    "dims": MODEL_IDS,
}


def run_suite(name, config):
    """Run one named suite on ``config`` (or 'all', on the models of
    ALL_MODELS) and emit CSV/JSON if configured.

    Each catalog model the run needs is built once and shared by every
    suite run on it, so later suites read the bases and listings earlier
    ones stored; the models are dropped on return.  The characters suite
    takes none.  A suite that yields no fit on a model (gaussian on
    su2-cp1 or s1-cp1-w12, whose loci have no normal or flat direction to
    profile) raises ValueError: a run with no verdict passes nothing.

    Returns (rows, fits, passed).
    """
    if name == "all":
        plan = ALL_MODELS
    elif name in SUITES:
        plan = {name: (None,)}
    else:
        raise ValueError(f"unknown suite {name!r}")
    rows, fits, models = [], [], {}
    for key, model_ids in plan.items():
        for mid in model_ids:
            cfg = config if mid is None else ExperimentConfig(
                **{**vars(config), "model_id": mid, "nu": None})
            # looked up per call, so a wrapper patched into SUITES is used
            if key == "characters":
                r, f = SUITES[key](cfg)
            else:
                if cfg.model_id not in models:
                    models[cfg.model_id] = build_model(cfg.model_id)
                r, f = SUITES[key](cfg, models[cfg.model_id])
            if not f:
                raise ValueError(f"suite {key} gives no verdict on {cfg.model_id}: it has "
                                 "nothing to check there")
            if mid is not None:
                for fit in f:
                    fit.quantity = f"{mid}:{fit.quantity}"
            rows.extend(r)
            fits.extend(f)
    passed = all(f.passed for f in fits)
    if config.out_dir:
        emit(name, config, rows, fits, passed)
    return rows, fits, passed


# -- emission ---------------------------------------------------------------


def rows_to_csv(rows):
    lines = ["model,nu,k,quantity,value,predicted,err"]
    for r in rows:
        lines.append(f"{r.model},{r.nu},{r.k},{r.quantity},"
                     f"{float(r.value)!r},{float(r.predicted)!r},{float(r.err)!r}")
    return "\n".join(lines) + "\n"


def _summary(name, rows, fits, passed):
    """The JSON summary in plain JSON values: numpy scalars become Python
    numbers and non-finite floats null, since RFC 8259 JSON has no NaN
    or Infinity.  Each record's own attribute dict is read, not a deep
    copy of it: _plain builds new containers anyway."""
    return _plain({
        "suite": name,
        "rows": [vars(r) for r in rows],
        "fits": [vars(f) for f in fits],
        "pass": passed,
    })


def _plain(obj):
    if isinstance(obj, dict):
        return {key: _plain(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def summary_json(name, rows, fits, passed):
    return json.dumps(_summary(name, rows, fits, passed), sort_keys=True, allow_nan=False)


def emit(name, config, rows, fits, passed):
    os.makedirs(config.out_dir, exist_ok=True)
    if config.fmt == "csv":
        path = os.path.join(config.out_dir, f"suite_{name}.csv")
        with open(path, "w") as fh:
            fh.write(rows_to_csv(rows))
    path = os.path.join(config.out_dir, f"suite_{name}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(_summary(name, rows, fits, passed), sort_keys=True, indent=1,
                            allow_nan=False) + "\n")
