"""Command-line driver.

Subcommands
-----------
group-info     root datum, Weyl order, volumes for a group
dim            Weyl dimension and the exact k-scaling value
character      alternating-sum vs orbit-integral character values
orbit-volume   closed-form orbit volume vs quadrature weight sum
               (the orbit integral covers tori, SU(2) and U(2) only)
psi-nu         leading coefficient at a locus point, with its breakdown
kernel-eval    exact equivariant kernel at a pair of points
suite          characters | diag | gaussian | decay | dims | all

Exit codes: 0 all pass, 2 numerical fail, 3 precondition fail
(including an isotypic basis over the memory budget), 4 config error
(including an orbit integral on SU(n)/U(n) with n >= 3).
"""

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .characters import (
    kirillov_character,
    orbit_quadrature,
    orbit_volume,
    scaled_dimension,
    weyl_character,
    weyl_dimension,
)
from .groups import AssumptionViolation, build_group, half_weight, group_volumes, trace_metric
from .harness import SUITES, ExperimentConfig, run_suite, rows_to_csv, summary_json
# equivariant_kernel stays bound here: the benchmark's tracer test checks
# that tracing wraps this module's from-imports of it
from .hardy import equivariant_kernel, equivariant_kernel_log, isotypic_dim  # noqa: F401
from .models import LocusSample, build_model, unit_point
from .predictor import leading_coefficient, predict_near_diagonal


def _parse_nu(text):
    """Comma-separated coordinates (fractions allowed); None passes through."""
    if text is None:
        return None
    return tuple(float(Fraction(part)) for part in text.split(","))


def _parse_point(text, model):
    """The unit vector along comma-separated complex coordinates, refused
    unless there are d + 1 of them, finite and not all zero."""
    with np.errstate(all="ignore"):
        x = unit_point([complex(part) for part in text.split(",")])
        if len(x) != model.ambient_dim or not abs(np.linalg.norm(x) - 1.0) < 1e-12:
            raise ValueError(f"a point of {model.id} takes {model.ambient_dim} finite "
                             f"coordinates, not all zero; got {text!r}")
    return x


def _positive_int(text):
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError("k must be a positive integer")
    return k


def _print(obj):
    print(json.dumps(obj, sort_keys=True, default=str))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="coorbit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-info", help="root datum and volumes")
    p.add_argument("--group", required=True, help="t1, t2, su2, u2, su3, ...")

    p = sub.add_parser("dim", help="Weyl dimension / scaling")
    p.add_argument("--group", required=True)
    p.add_argument("--nu", required=True, help="comma-separated, fractions allowed")
    p.add_argument("--k", type=int, default=1)

    p = sub.add_parser("character", help="character values at a torus element")
    p.add_argument("--group", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--theta", required=True, help="comma-separated angles")
    p.add_argument("--kirillov", action="store_true", help="also run the orbit integral")

    p = sub.add_parser("orbit-volume", help="coadjoint orbit volume")
    p.add_argument("--group", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--level", type=int, default=64)

    p = sub.add_parser("psi-nu", help="leading coefficient at a locus point")
    p.add_argument("--model", required=True)
    p.add_argument("--nu", default=None)
    p.add_argument("--point", default=None, help="complex coords, comma-separated")
    p.add_argument("--k", type=_positive_int, default=None,
                   help="also emit the leading-order diagonal prediction at k")

    p = sub.add_parser("kernel-eval", help="equivariant kernel at (x, y)")
    p.add_argument("--model", required=True)
    p.add_argument("--nu", default=None)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", default=None, help="defaults to x (diagonal)")

    p = sub.add_parser("suite", help="run a verification suite")
    p.add_argument("name", choices=[*SUITES, "all"])
    p.add_argument("--model", default="s1-cp1-w12")
    p.add_argument("--nu", default=None)
    p.add_argument("--kmin", type=int, default=64)
    p.add_argument("--kmax", type=int, default=512)
    p.add_argument("--kfactor", type=int, default=2)
    p.add_argument("--out", default=None)
    p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
    p.add_argument("--seed", type=int, default=0)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 4 if exc.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except AssumptionViolation as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4


def _dispatch(args):
    if args.command == "group-info":
        group = build_group(args.group)
        metric = trace_metric(group)
        vol_g, vol_t = group_volumes(metric)
        _print({
            "name": group.name, "dim": group.dim, "rank": group.rank,
            "n_pos": group.n_pos, "weyl_order": group.weyl_order,
            "positive_roots": [list(r) for r in group.positive_roots],
            "delta": list(group.delta),
            "vol_G": vol_g, "vol_T": vol_t,
        })
        return 0

    if args.command == "dim":
        group = build_group(args.group)
        nu = half_weight(group, _parse_nu(args.nu))
        _print({
            "d_nu": weyl_dimension(group, nu),
            "k": args.k,
            "d_k_nu": scaled_dimension(group, nu, args.k),
        })
        return 0

    if args.command == "character":
        group = build_group(args.group)
        nu = half_weight(group, _parse_nu(args.nu))
        theta = np.array([float(Fraction(t)) for t in args.theta.split(",")])
        chi = weyl_character(group, nu, theta)
        out = {"weyl": [chi.real, chi.imag]}
        if args.kirillov:
            metric = trace_metric(group)
            kir = kirillov_character(group, metric, nu, theta)
            out["kirillov"] = [kir.real, kir.imag]
            out["difference"] = abs(chi - kir)
        _print(out)
        return 0

    if args.command == "orbit-volume":
        group = build_group(args.group)
        metric = trace_metric(group)
        nu = half_weight(group, _parse_nu(args.nu))
        quad = orbit_quadrature(group, metric, nu, level=args.level)
        _print({
            "closed_form": orbit_volume(group, nu.coords),
            "quadrature_weight_sum": quad.volume,
            "scheme": quad.scheme,
        })
        return 0

    if args.command == "psi-nu":
        model = build_model(args.model)
        nu = model.resolve_nu(_parse_nu(args.nu))
        x = (model.default_locus_point(nu) if args.point is None
             else _parse_point(args.point, model))
        sample = model.locus_decompose(nu, x)
        if not isinstance(sample, LocusSample):
            raise AssumptionViolation(
                f"point is off the locus (cone distance {sample.distance:.3g})")
        _, dscalar = model.d_phi(nu, sample)
        out = {
            "model": model.config(),
            "nu": list(nu.coords),
            "sigma": sample.sigma,
            "moment_norm": model.metric.norm_covector(sample.phi),
            "metric_factor": dscalar,
            "leading_coefficient": leading_coefficient(model, nu, sample),
        }
        if args.k is not None:
            pred = predict_near_diagonal(model, nu, sample, model.valid_k(args.k))
            out["prediction"] = json.loads(pred.to_json())
        _print(out)
        return 0

    if args.command == "kernel-eval":
        model = build_model(args.model)
        nu = model.resolve_nu(_parse_nu(args.nu))
        k = model.valid_k(args.k)
        x = _parse_point(args.x, model)
        y = x if args.y is None else _parse_point(args.y, model)
        log_abs, phase = equivariant_kernel_log(model, nu, k, x, y)
        # value underflows to 0 below about e^-745; log_abs and phase do not
        val = 0.0 + 0.0j if log_abs == -np.inf else np.exp(log_abs) * phase
        _print({
            "model": model.config(), "nu": list(nu.coords), "k": k,
            "value": [val.real, val.imag],
            "log_abs": None if log_abs == -np.inf else float(log_abs),   # null: the zero kernel
            "phase": [phase.real, phase.imag],
            "isotypic_dim": isotypic_dim(model, nu, k),
        })
        return 0

    if args.command == "suite":
        config = ExperimentConfig(
            model_id=args.model,
            nu=_parse_nu(args.nu),
            k_min=args.kmin, k_max=args.kmax, k_factor=args.kfactor,
            out_dir=args.out, fmt=args.fmt, seed=args.seed)
        rows, fits, passed = run_suite(args.name, config)
        if config.out_dir is None:
            if config.fmt == "csv":
                sys.stdout.write(rows_to_csv(rows))
            else:
                print(summary_json(args.name, rows, fits, passed))
        for f in fits:
            status = "pass" if f.passed else "FAIL"
            print(f"[{status}] {f.quantity}: exponent={f.exponent} "
                  f"residual={f.residual}", file=sys.stderr)
        return 0 if passed else 2

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
