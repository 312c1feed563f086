"""Experiment suites: character consistency, diagonal scaling, Gaussian
profiles, rapid decrease, and dimension growth, with CSV/JSON emission
and log-log rate fitting.

Every row carries (model, nu, k, quantity, value, predicted, err) so the
acceptance criteria are machine-checkable from the CSV alone.  A fixed
seed makes output byte-identical across runs.
"""

import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .characters import (
    kirillov_character,
    orbit_quadrature,
    scaled_dimension,
    weyl_character,
    weyl_dimension,
)
from .groups import (
    AssumptionViolation,
    build_group,
    half_weight,
    trace_metric,
)
from .hardy import (
    equivariant_kernel,
    equivariant_kernel_log,
    isotypic_basis,
    isotypic_dim,
    orbit_separation,
)
from .models import MODEL_IDS, LocusSample, build_model
from .predictor import (
    dimension_coefficient,
    gaussian_pair_exponent,
    predict_near_diagonal,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one suite run.

    The k schedule is geometric: k_min, k_min*k_factor, ... <= k_max,
    and must be strictly increasing.  A fixed seed makes CSV output
    byte-identical.
    """

    model_id: str = "s1-cp1-w12"
    nu: tuple = None
    k_min: int = 64
    k_max: int = 512
    k_factor: int = 2
    displacement: tuple = (0.4, 0.8, 1.2, 1.6, 2.0)
    quad_level: int = 64
    out_dir: str = None
    fmt: str = "csv"
    seed: int = 0
    emit_svg: bool = False

    def __post_init__(self):
        if self.k_factor < 2 or self.k_min < 1 or self.k_max < self.k_min:
            raise ValueError("k schedule must be strictly increasing (k_factor >= 2)")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.fmt!r}")

    @property
    def k_schedule(self):
        ks, k = [], self.k_min
        while k <= self.k_max:
            ks.append(k)
            k *= self.k_factor
        return tuple(ks)


@dataclass
class Row:
    model: str
    nu: str
    k: int
    quantity: str
    value: float
    predicted: float
    err: float


@dataclass
class FitResult:
    quantity: str
    exponent: float
    intercept: float
    residual: float
    passed: bool
    band: tuple = None
    note: str = ""


def _nu_str(coords):
    return ";".join(repr(float(c)) for c in np.atleast_1d(coords))


def _random_regular_cartan(group, metric, rng):
    """Cartan coefficients with phi-norm in [0.3, 1], away from all walls."""
    gram_t = metric.gram[:group.rank, :group.rank]
    while True:
        c = rng.uniform(-1.0, 1.0, size=group.rank)
        n = np.sqrt(c @ gram_t @ c)
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


def local_slopes(ks, values_log):
    ks = np.asarray(ks, dtype=float)
    v = np.asarray(values_log, dtype=float)
    return (v[1:] - v[:-1]) / (np.log(ks[1:]) - np.log(ks[:-1]))


# -- suites ---------------------------------------------------------------


def run_character_suite(config):
    """Character cross-checks: orbit-integral vs alternating-sum
    characters on SU(2) and U(2), dimensions at xi = 0, Weyl invariance,
    the exact scaling law, and the torus closed forms."""
    rng = np.random.default_rng(config.seed)
    rows, fits = [], []

    for kind, nu_coords in (("su2", (4.0,)), ("u2", (2.5, 0.5))):
        group = build_group(kind)
        metric = trace_metric(group)
        nu = half_weight(group, nu_coords)
        quad = orbit_quadrature(group, metric, nu, level=config.quad_level)
        worst = 0.0
        d_nu = weyl_dimension(group, metric, nu)
        for _ in range(50):
            xi = _random_regular_cartan(group, metric, rng)
            kir = kirillov_character(group, metric, nu, xi, quad=quad)
            wey = weyl_character(group, nu, xi)
            worst = max(worst, abs(kir - wey) / d_nu)
        rows.append(Row(kind, _nu_str(nu.coords), 1, "kirillov-vs-weyl-max-rel-err",
                        worst, 0.0, worst))
        fits.append(FitResult(f"{kind}-kirillov-vs-weyl", np.nan, np.nan, worst,
                              worst <= 1e-6, band=(0.0, 1e-6)))

        at_zero = kirillov_character(group, metric, nu, np.zeros(group.rank),
                                     quad=quad).real
        dim_err = abs(at_zero - d_nu)
        rounded_ok = int(round(at_zero)) == d_nu
        rows.append(Row(kind, _nu_str(nu.coords), 1, "orbit-dimension-at-zero",
                        d_nu + dim_err, d_nu, dim_err))
        fits.append(FitResult(f"{kind}-dimension-at-zero", np.nan, np.nan, dim_err,
                              rounded_ok and dim_err < 1e-6))

        winv = 0.0
        for _ in range(10):
            theta = rng.uniform(-2.0, 2.0, size=group.rank)
            base = weyl_character(group, nu, theta)
            for mat, _sign in group.weyl_elements:
                winv = max(winv, abs(weyl_character(group, nu, mat @ theta) - base))
        rows.append(Row(kind, _nu_str(nu.coords), 1, "weyl-invariance-max-err",
                        winv, 0.0, winv))
        fits.append(FitResult(f"{kind}-weyl-invariance", np.nan, np.nan, winv,
                              winv <= 1e-10))

        vol_err = abs(quad.volume - (2 * np.pi) ** group.n_pos * d_nu) / quad.volume
        rows.append(Row(kind, _nu_str(nu.coords), 1, "orbit-volume-vs-dimension",
                        quad.volume, (2 * np.pi) ** group.n_pos * d_nu, vol_err))
        fits.append(FitResult(f"{kind}-orbit-volume", np.nan, np.nan, vol_err,
                              vol_err <= 1e-9))

        scale_ok = True
        for k in (2, 3, 5, 8, 13, 21, 34, 64):
            if scaled_dimension(group, nu, k) != k ** group.n_pos * d_nu:
                scale_ok = False
        rows.append(Row(kind, _nu_str(nu.coords), 64, "dimension-scaling-exact",
                        1.0 if scale_ok else 0.0, 1.0, 0.0 if scale_ok else 1.0))
        fits.append(FitResult(f"{kind}-dimension-scaling", np.nan, np.nan, 0.0, scale_ok))

    group = build_group("torus", 2)
    nu = half_weight(group, (2.0, 1.0))
    metric = trace_metric(group)
    err = 0.0
    for _ in range(20):
        theta = rng.uniform(-np.pi, np.pi, size=2)
        exact = np.exp(1j * float(nu.coords @ theta))
        err = max(err, abs(weyl_character(group, nu, theta) - exact))
        err = max(err, abs(kirillov_character(group, metric, nu, theta) - exact))
    rows.append(Row("t2", _nu_str(nu.coords), 1, "torus-character-exactness", err, 0.0, err))
    fits.append(FitResult("torus-characters", np.nan, np.nan, err, err <= 1e-12))

    # conjugation invariance of the Haar quadrature pairing
    from .characters import peter_weyl_projector_weight
    from .groups import random_unitary
    g = build_group("su2")
    nu = half_weight(g, 2.0)
    h = random_unitary(2, rng, special=True)

    def f(t):
        return np.exp(1j * np.trace(t).real) * abs(np.trace(t)) ** 2

    base = peter_weyl_projector_weight(g, nu, 1, f, level=12)
    conj = peter_weyl_projector_weight(
        g, nu, 1, lambda t: f(h @ t @ h.conj().T), level=12)
    cerr = abs(base - conj) / max(1.0, abs(base))
    rows.append(Row("su2", _nu_str(nu.coords), 1, "haar-conjugation-invariance",
                    cerr, 0.0, cerr))
    fits.append(FitResult("su2-haar-conjugation-invariance", np.nan, np.nan,
                          cerr, cerr <= 1e-6))

    return rows, fits


def _locus_base(config):
    """(model, nu, x, sample): the configured model and nu, the default
    locus point x and its locus decomposition."""
    model = build_model(config.model_id)
    nu = model.default_nu if config.nu is None else half_weight(model.group, config.nu)
    x = model.default_locus_point(nu)
    sample = model.locus_decompose(nu, x)
    if not isinstance(sample, LocusSample):
        raise AssumptionViolation(f"base point of {model.id} is off the locus")
    return model, nu, x, sample


def run_diag_convergence(config):
    """Exact vs predicted diagonal values along the k schedule."""
    model, nu, x, sample = _locus_base(config)
    rows, errs, ks_used = [], [], []
    for k in config.k_schedule:
        k = model.valid_k(k)
        exact = equivariant_kernel(model, nu, k, x, x).real
        pred = predict_near_diagonal(model, nu, sample, k).value.real
        ratio = exact / pred
        rows.append(Row(model.id, _nu_str(nu.coords), k, "diag-ratio",
                        exact, pred, abs(ratio - 1.0)))
        errs.append(abs(ratio - 1.0))
        ks_used.append(k)
    floor = 1e-12
    if max(errs) <= floor:
        fit = FitResult("diag-error-exponent", np.nan, np.nan, max(errs), True,
                        band=(-1.2, -0.8), note="both sides closed form; error at rounding floor")
    else:
        slope, intercept, resid = fit_power(ks_used, errs)
        passed = (-1.2 <= slope <= -0.8) and errs[-1] <= 0.05
        fit = FitResult("diag-error-exponent", slope, intercept, resid, passed,
                        band=(-1.2, -0.8))
    return rows, [fit]


def run_gaussian_profile(config):
    """Gaussian decay in locus-normal directions and flatness along the
    h-orthocomplement of the orbit directions."""
    model, nu, x, sample = _locus_base(config)
    sigma = sample.sigma
    rows, fits = [], []
    amps = np.asarray(config.displacement, dtype=float)

    normal = model.normal_space(nu, sample)
    if normal:
        vhat = normal[0] / np.linalg.norm(normal[0])
        k = model.valid_k(config.k_max)
        basis = isotypic_basis(model, nu, k)
        diag = equivariant_kernel(model, nu, k, x, x, basis).real
        logs = []
        for a in amps:
            xa = model.displace(x, 0.0, a * vhat / np.sqrt(k))
            val = equivariant_kernel(model, nu, k, xa, xa, basis).real
            logs.append(np.log(val / diag))
            rows.append(Row(model.id, _nu_str(nu.coords), k, f"v-log-ratio-a={a}",
                            np.log(val / diag), -2.0 * a * a / sigma,
                            abs(np.log(val / diag) + 2.0 * a * a / sigma)))
        slope = float(np.polyfit(amps ** 2, logs, 1)[0])
        target = -2.0 / sigma
        passed = abs(slope - target) <= 0.1 * abs(target)
        fits.append(FitResult("v-gaussian-slope", slope, np.nan,
                              abs(slope - target) / abs(target), passed,
                              band=(1.1 * target, 0.9 * target)))

    wbasis = model.w_space(x)
    if wbasis:
        what = wbasis[0] / np.linalg.norm(wbasis[0])
        band_c = None
        max_devs = {}
        for k in (config.k_min, config.k_max):
            k = model.valid_k(k)
            basis = isotypic_basis(model, nu, k)
            diag = equivariant_kernel(model, nu, k, x, x, basis).real
            dev = 0.0
            for a in amps:
                xa = model.displace(x, 0.0, a * what / np.sqrt(k))
                val = equivariant_kernel(model, nu, k, xa, xa, basis).real
                dev = max(dev, abs(np.log(val / diag)))
                rows.append(Row(model.id, _nu_str(nu.coords), k, f"w-log-ratio-a={a}",
                                np.log(val / diag), 0.0, abs(np.log(val / diag))))
            max_devs[k] = dev
        k0, k1 = model.valid_k(config.k_min), model.valid_k(config.k_max)
        band_c = max_devs[k0] * np.sqrt(k0)
        bound = 1.25 * band_c / np.sqrt(k1)
        passed = max_devs[k1] <= bound
        fits.append(FitResult("w-flatness-band", np.nan, np.nan, max_devs[k1], passed,
                              band=(0.0, bound),
                              note=f"C calibrated at k={k0}: {band_c:.3g}"))

        # two-point modulus with w2 = -w1
        k = model.valid_k(config.k_max)
        basis = isotypic_basis(model, nu, k)
        diag = equivariant_kernel(model, nu, k, x, x, basis).real
        a = amps[len(amps) // 2]
        w1 = a * what
        x1 = model.displace(x, 0.0, w1 / np.sqrt(k))
        x2 = model.displace(x, 0.0, -w1 / np.sqrt(k))
        val = abs(equivariant_kernel(model, nu, k, x1, x2, basis))
        pred = diag * abs(np.exp(gaussian_pair_exponent(w1, -w1) / sigma))
        err = abs(val / pred - 1.0)
        rows.append(Row(model.id, _nu_str(nu.coords), k, "two-point-w-modulus",
                        val, pred, err))
        fits.append(FitResult("two-point-w-modulus", np.nan, np.nan, err,
                              err <= 0.10, band=(0.0, 0.10)))
    return rows, fits


def _decay_fit(fits, label, ks, logvals):
    slopes = local_slopes(ks, logvals)
    monotone = bool(np.all(np.diff(slopes) <= 1e-6))
    passed = bool(slopes[-1] < -5.0) and monotone
    fits.append(FitResult(label, float(slopes[-1]), np.nan,
                          float(np.max(slopes)), passed, band=(-np.inf, -5.0),
                          note="slopes must decrease monotonically"))


def run_decay_suite(config):
    """Off-orbit and off-locus rapid decrease, plus the identically-zero
    weight-mismatch row on torus models."""
    model = build_model(config.model_id)
    nu = model.default_nu if config.nu is None else half_weight(model.group, config.nu)
    rows, fits = [], []
    ks = [model.valid_k(k) for k in config.k_schedule]

    x, y = _separated_pair(model, nu)
    sep = orbit_separation(model, x, y)
    if sep < 1e-4:
        # the pair lies on a single group orbit (e.g. SU(2) acts
        # transitively on the CP^1 bundle): separation 0 is recorded and
        # no decay is claimed
        rows.append(Row(model.id, _nu_str(nu.coords), ks[-1],
                        "off-orbit-separation-zero", sep, 0.0, sep))
        fits.append(FitResult("off-orbit-decay", np.nan, np.nan, sep, True,
                              note="pair lies on one orbit; no decay expected"))
    else:
        logvals = []
        for k in ks:
            ov_log, _ = equivariant_kernel_log(model, nu, k, x, y)
            logvals.append(ov_log)
            rows.append(Row(model.id, _nu_str(nu.coords), k,
                            f"off-orbit-log-abs-sep={sep:.4f}", ov_log, -np.inf, 0.0))
        _decay_fit(fits, "off-orbit-decay", ks, logvals)

    x_off = _off_locus_point(model, nu)
    if x_off is not None:
        logvals = []
        for k in ks:
            lv, _ = equivariant_kernel_log(model, nu, k, x_off, x_off)
            logvals.append(lv)
            rows.append(Row(model.id, _nu_str(nu.coords), k, "off-locus-log-abs",
                            lv, -np.inf, 0.0))
        _decay_fit(fits, "off-locus-decay", ks, logvals)

    if model.group.kind == "torus":
        mismatch = -np.asarray(nu.coords)
        try:
            bad_nu = half_weight(model.group, mismatch)
            dims = [isotypic_dim(model, bad_nu, k) for k in ks]
            all_zero = all(d == 0 for d in dims)
            rows.append(Row(model.id, _nu_str(mismatch), ks[-1],
                            "weight-mismatch-dim", float(sum(dims)), 0.0,
                            0.0 if all_zero else 1.0))
            fits.append(FitResult("weight-mismatch-zero", np.nan, np.nan, 0.0, all_zero))
        except ValueError:
            pass
    return rows, fits


def _separated_pair(model, nu):
    if model.d == 1:
        if model.group.kind == "torus":
            return model.point([np.sqrt(0.7), np.sqrt(0.3)]), \
                model.point([np.sqrt(0.45), np.sqrt(0.55)])
        # SU(2) acts transitively on the circle bundle of CP^1: every
        # pair has orbit separation 0 and the suite records exactly that
        return model.point([1.0, 0.0]), model.point([np.sqrt(0.5), np.sqrt(0.5)])
    t_base = model.default_locus_point(nu)
    y = model.point(np.sqrt(np.array([0.2, 0.25, 0.55])))
    return t_base, y


def _off_locus_point(model, nu):
    if model.group.rank == 1:
        return None  # the locus has codimension 0
    if model.id == "t2-cp2":
        return model.point(np.sqrt(np.array([0.25, 0.45, 0.30])))
    if model.id == "u2-cp2":
        t, _ = model.locus_parameters(nu)
        t_off = min(0.95, t + 0.25)
        return model.point(np.sqrt(np.array([0.6 * t_off, 0.4 * t_off, 1.0 - t_off])))
    return None


def run_dim_growth(config):
    """Exact isotypic dimensions vs (k/pi)^{d+1-r} delta_0."""
    model = build_model(config.model_id)
    nu = model.default_nu if config.nu is None else half_weight(model.group, config.nu)
    delta0 = dimension_coefficient(model, nu, level=config.quad_level)
    power = model.d + 1 - model.group.rank
    rows, errs, ks_used = [], [], []
    for k in config.k_schedule:
        k = model.valid_k(k)
        dim = isotypic_dim(model, nu, k)
        pred = (k / np.pi) ** power * delta0
        if dim == 0 and pred > 0.5:
            raise AssumptionViolation(
                f"isotypic spaces of {model.id} at nu={nu.coords} are empty")
        err = abs(dim - pred) / pred
        rows.append(Row(model.id, _nu_str(nu.coords), k, "dim-growth", dim, pred, err))
        errs.append(err)
        ks_used.append(k)
    floor = 1e-11
    if max(errs) <= floor:
        fit = FitResult("dim-growth-exponent", np.nan, np.nan, max(errs), True,
                        note="exact agreement")
    else:
        slope, intercept, resid = fit_power(ks_used, errs)
        fit = FitResult("dim-growth-exponent", slope, intercept, resid,
                        -1.4 <= slope <= -0.6, band=(-1.4, -0.6))
    return rows, [fit]


SUITES = {
    "characters": run_character_suite,
    "diag": run_diag_convergence,
    "gaussian": run_gaussian_profile,
    "decay": run_decay_suite,
    "dims": run_dim_growth,
}


def run_suite(name, config):
    """Run one named suite (or 'all') and emit CSV/JSON if configured.

    Returns (rows, fits, passed).
    """
    if name == "all":
        rows, fits = [], []
        for key, fn in SUITES.items():
            if key == "characters":
                r, f = fn(config)
            elif key == "gaussian":
                r, f = _over_models(fn, config, ("t2-cp2", "u2-cp2", "s1-cp2-w123"))
            else:
                r, f = _over_models(fn, config)
            rows.extend(r)
            fits.extend(f)
    else:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        rows, fits = SUITES[name](config)
    passed = all(f.passed for f in fits)
    if config.out_dir:
        emit(name, config, rows, fits, passed)
    return rows, fits, passed


def _over_models(fn, config, model_ids=MODEL_IDS):
    rows, fits = [], []
    for mid in model_ids:
        r, f = fn(replace(config, model_id=mid, nu=None))
        for fit in f:
            fit.quantity = f"{mid}:{fit.quantity}"
        rows.extend(r)
        fits.extend(f)
    return rows, fits


# -- emission ---------------------------------------------------------------


def rows_to_csv(rows):
    lines = ["model,nu,k,quantity,value,predicted,err"]
    for r in rows:
        lines.append(f"{r.model},{r.nu},{r.k},{r.quantity},"
                     f"{float(r.value)!r},{float(r.predicted)!r},{float(r.err)!r}")
    return "\n".join(lines) + "\n"


def summary_json(name, rows, fits, passed):
    return json.dumps({
        "suite": name,
        "rows": [asdict(r) for r in rows],
        "fits": [_fit_dict(f) for f in fits],
        "pass": passed,
    }, sort_keys=True, default=_json_default)


def _fit_dict(f):
    d = asdict(f)
    if d["band"] is not None:
        d["band"] = list(d["band"])
    return d


def _json_default(obj):
    if isinstance(obj, float) and (np.isnan(obj) or np.isinf(obj)):
        return None
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"cannot serialize {obj!r}")


def emit(name, config, rows, fits, passed):
    os.makedirs(config.out_dir, exist_ok=True)
    if config.fmt == "csv":
        path = os.path.join(config.out_dir, f"suite_{name}.csv")
        with open(path, "w") as fh:
            fh.write(rows_to_csv(rows))
    path = os.path.join(config.out_dir, f"suite_{name}.json")
    clean = json.loads(summary_json(name, rows, fits, passed))
    with open(path, "w") as fh:
        json.dump(clean, fh, sort_keys=True, indent=1)
        fh.write("\n")
    if config.emit_svg:
        _emit_svg(os.path.join(config.out_dir, f"suite_{name}.svg"), rows)


def _emit_svg(path, rows, width=640, height=400):
    """Minimal log-log polyline chart of err vs k, one line per quantity."""
    series = {}
    for r in rows:
        if r.err > 0 and r.k > 0:
            series.setdefault(r.quantity, []).append((r.k, r.err))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    pts_all = [p for pts in series.values() for p in pts]
    if pts_all:
        lx = np.log([p[0] for p in pts_all])
        ly = np.log([p[1] for p in pts_all])
        x0, x1 = lx.min(), max(lx.max(), lx.min() + 1e-9)
        y0, y1 = ly.min(), max(ly.max(), ly.min() + 1e-9)
        colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
        for i, (name, pts) in enumerate(sorted(series.items())):
            if len(pts) < 2:
                continue
            coords = []
            for k, e in sorted(pts):
                px = 40 + (np.log(k) - x0) / (x1 - x0) * (width - 60)
                py = height - 30 - (np.log(e) - y0) / (y1 - y0) * (height - 60)
                coords.append(f"{px:.1f},{py:.1f}")
            parts.append(f'<polyline fill="none" stroke="{colors[i % len(colors)]}" '
                         f'points="{" ".join(coords)}"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
