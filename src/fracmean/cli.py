"""Command-line front door.

Every stochastic run carries an explicit or defaulted-and-echoed seed, and
every emitted number travels with its method tag and uncertainty.  Output is
JSON (default) or CSV with a mandatory header row and '.' decimal separator.
Exit codes: 0 success, 2 configuration errors, 3 numerical non-convergence,
4 precondition or moment-existence errors.  FRACMEAN_THREADS caps internal
parallelism; parallel and serial runs emit identical numbers.
"""

import argparse
import csv
import io
import json
import re
import sys
import time

# let option values like "-0.5+0i" pass as positional values, not flags
_NEGATIVE_TOKEN = re.compile(r"^-(\d|\.\d)")

from . import __version__
from .bounds import general_bound_check, geometric_slln_demo, half_plane_bound_check
from .characterize import (
    FixAlpha,
    FixLambda,
    alpha_sequence_from_tag,
    blaschke_divergence_check,
    distinguish,
    lambda_sequence_from_tag,
    muntz_divergence_check,
    sequence_from_json,
    AlphaSequence,
    LambdaSequence,
)
from .distributions import (
    MomentExistenceError,
    SupportError,
    make_model,
    parse_complex,
    parse_params,
)
from .moments import (
    MCConfig,
    PowerMeanSpec,
    Route,
    RouteUnavailableError,
    continuity_scan,
    frac_moment,
    power_mean_expectation,
)
from .montecarlo import _thread_count
from .principal import BranchDomainError
from .quad import NonConvergenceError, QuadraturePreconditionError, QuadratureConfig
from . import verify as verify_mod

_CSV_NOTE = (
    "CSV columns: moment/powermean -> re,im,uncertainty,method; "
    "scan -> p,re,im,uncertainty,method; slln -> n,re,im; "
    "bounds -> abs_moment,moment_abs,bound,satisfied,slack; "
    "divergence checks -> n,partial_sum. Decimal separator is '.', header row mandatory."
)


class ConfigError(ValueError):
    pass


def _add_common(parser, with_mc=True, with_quad=True):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (echoed into the artifact)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None, help="write the artifact here (default stdout)")
    if with_mc:
        parser.add_argument("--mc-samples", type=int, default=100_000)
    if with_quad:
        parser.add_argument("--rel-tol", type=float, default=1e-9)
        parser.add_argument("--abs-tol", type=float, default=1e-12)
        parser.add_argument("--max-level", type=int, default=10)


def _add_model(parser, suffix=""):
    parser.add_argument(f"--dist{suffix}", required=True, help="cauchy | t3 | poincare | twopoint | empirical")
    parser.add_argument(f"--params{suffix}", default="", help='flat key=value list, e.g. "a=1,b=0,c=1"')


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_TOKEN


def build_parser():
    parser = _Parser(
        prog="fracmean",
        description="Fractional moments and power means of complex-valued random variables.",
        epilog=_CSV_NOTE,
    )
    parser.add_argument("--version", action="version", version=f"fracmean {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_moment = sub.add_parser("moment", help="one fractional moment E[(Z+alpha)**lambda]")
    _add_model(p_moment)
    p_moment.add_argument("--alpha", default="0+0i", help="complex, a+bi with no spaces")
    p_moment.add_argument("--lambda", dest="lam", required=True, help="complex exponent, a+bi")
    p_moment.add_argument("--route", choices=("closed", "quad", "mc", "auto"), default="auto")
    _add_common(p_moment)

    p_pm = sub.add_parser("powermean", help="E[((1/n) sum (Z_j+alpha)**p)**(1/p)]")
    _add_model(p_pm)
    p_pm.add_argument("--alpha", default="0+0i")
    p_pm.add_argument("--p", type=float, required=True)
    p_pm.add_argument("--n", type=int, required=True)
    p_pm.add_argument("--route", choices=("closed", "fracderiv", "mc", "auto"), default="auto")
    _add_common(p_pm)

    p_scan = sub.add_parser("scan", help="power-mean expectations over a grid of p")
    _add_model(p_scan)
    p_scan.add_argument("--alpha", default="0+0i")
    p_scan.add_argument("--p-grid", required=True, help='"start:stop:step" or comma list')
    p_scan.add_argument("--n", type=int, required=True)
    p_scan.add_argument("--route", choices=("closed", "fracderiv", "mc", "auto"), default="mc")
    p_scan.add_argument(
        "--exploratory",
        action="store_true",
        help="allow |p| > 1 (Monte Carlo only; the invariance identities are "
        "expected to fail out there, nothing is asserted)",
    )
    _add_common(p_scan)

    p_char = sub.add_parser("characterize", help="determining-set checks and the distinguisher")
    char_sub = p_char.add_subparsers(dest="check", required=True, parser_class=_Parser)
    for kind in ("blaschke", "muntz"):
        pc = char_sub.add_parser(kind)
        pc.add_argument("--sequence", required=True, help="harmonic | geometric | constant | @file.json")
        pc.add_argument("--n-terms", type=int, default=200)
        if kind == "blaschke":
            pc.add_argument("--a", type=float, default=1.0, help="half-plane level Im z > a")
        else:
            pc.add_argument("--im-bound", type=float, default=0.0)
        _add_common(pc, with_mc=False, with_quad=False)
    pd = char_sub.add_parser("distinguish")
    _add_model(pd, suffix="-a")
    _add_model(pd, suffix="-b")
    pd.add_argument("--fix", choices=("alpha", "lambda"), required=True)
    pd.add_argument("--value", required=True, help="the fixed variable (complex)")
    pd.add_argument("--points", required=True, help="comma list of complex evaluation points")
    pd.add_argument("--route", choices=("closed", "quad", "mc", "auto"), default="auto")
    _add_common(pd)

    p_bounds = sub.add_parser("bounds", help="absolute-moment comparison checks")
    p_bounds.add_argument("--check", choices=("half-plane", "general"), required=True)
    _add_model(p_bounds)
    p_bounds.add_argument("--p", type=float, required=True)
    _add_common(p_bounds, with_quad=False)

    p_slln = sub.add_parser("slln", help="running geometric means against exp(E[log Z])")
    _add_model(p_slln)
    p_slln.add_argument("--n-max", type=int, default=100_000)
    _add_common(p_slln, with_mc=False, with_quad=False)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--suite", choices=("all", "core"), default="all")
    p_verify.add_argument("--criteria", default=None, help="comma list of criterion ids")
    _add_common(p_verify, with_mc=False, with_quad=False)
    return parser


_ROUTES = {
    "closed": Route.CLOSED,
    "quad": Route.QUAD,
    "fracderiv": Route.FRAC_DERIV,
    "mc": Route.MONTE_CARLO,
    "auto": Route.AUTO,
}


def _parse_grid(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError('grid must be "start:stop:step" or a comma list')
        start, stop, step = (float(x) for x in parts)
        if step <= 0:
            raise ConfigError("grid step must be positive")
        count = int(round((stop - start) / step))
        grid = [round(start + k * step, 12) for k in range(count + 1)]
        grid = [p for p in grid if p <= stop + 1e-12]
        if not grid:
            raise ConfigError(f"grid {text!r} is empty: start lies past stop")
        return grid
    return [float(x) for x in text.split(",")]


def _sequence_from_arg(kind, args):
    if args.sequence.startswith("@"):
        with open(args.sequence[1:]) as fh:
            seq = sequence_from_json(fh.read())
        want = AlphaSequence if kind == "blaschke" else LambdaSequence
        if not isinstance(seq, want):
            raise ConfigError(f"sequence file holds the wrong kind for the {kind} check")
        return seq
    if kind == "blaschke":
        return alpha_sequence_from_tag(args.sequence, a=args.a, n_terms=args.n_terms)
    return lambda_sequence_from_tag(args.sequence, n_terms=args.n_terms, im_bound=args.im_bound)


def _emit(args, config, result_json, csv_rows, start_time, extra_meta=None):
    meta = {
        "seed": getattr(args, "seed", None),
        "wall_time_ms": round(1000.0 * (time.perf_counter() - start_time), 3),
        "version": __version__,
    }
    if extra_meta:
        meta.update(extra_meta)
    if args.format == "json":
        text = json.dumps({"config": config, "result": result_json, "meta": meta}, indent=2)
        text += "\n"
    else:
        header, rows = csv_rows
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quad_config(args):
    return QuadratureConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol, max_level=args.max_level)


def _mc_config(args):
    return MCConfig(samples=args.mc_samples, seed=args.seed)


def _run_moment(args):
    start = time.perf_counter()
    model = make_model(args.dist, parse_params(args.params))
    alpha = parse_complex(args.alpha)
    lam = parse_complex(args.lam)
    est = frac_moment(model, alpha, lam, _ROUTES[args.route], _quad_config(args), _mc_config(args))
    config = {
        "command": "moment",
        "model": model.to_json(),
        "alpha": [alpha.real, alpha.imag],
        "lambda": [lam.real, lam.imag],
        "route": args.route,
        "seed": args.seed,
        "mc_samples": args.mc_samples,
    }
    rows = (
        ["re", "im", "uncertainty", "method"],
        [[est.value.real, est.value.imag, est.uncertainty, est.method.value]],
    )
    _emit(args, config, est.to_json(), rows, start, extra_meta=_est_meta(est))
    return 0


def _est_meta(est):
    out = {}
    for key in ("samples", "replications", "evaluations"):
        if key in est.meta:
            out[key] = est.meta[key]
    return out


def _run_powermean(args):
    start = time.perf_counter()
    model = make_model(args.dist, parse_params(args.params))
    alpha = parse_complex(args.alpha)
    spec = PowerMeanSpec(p=args.p, n=args.n, alpha=alpha)
    est = power_mean_expectation(model, spec, _ROUTES[args.route], _quad_config(args), _mc_config(args))
    config = {
        "command": "powermean",
        "model": model.to_json(),
        "alpha": [alpha.real, alpha.imag],
        "p": args.p,
        "n": args.n,
        "route": args.route,
        "seed": args.seed,
        "mc_samples": args.mc_samples,
    }
    rows = (
        ["re", "im", "uncertainty", "method"],
        [[est.value.real, est.value.imag, est.uncertainty, est.method.value]],
    )
    _emit(args, config, est.to_json(), rows, start, extra_meta=_est_meta(est))
    return 0


def _run_scan(args):
    start = time.perf_counter()
    model = make_model(args.dist, parse_params(args.params))
    alpha = parse_complex(args.alpha)
    grid = _parse_grid(args.p_grid)
    if args.exploratory and args.route != "mc":
        raise ConfigError("--exploratory scans are Monte Carlo only")
    table = continuity_scan(
        model,
        alpha,
        args.n,
        grid,
        _ROUTES[args.route],
        _quad_config(args),
        _mc_config(args),
        exploratory=args.exploratory,
    )
    config = {
        "command": "scan",
        "model": model.to_json(),
        "alpha": [alpha.real, alpha.imag],
        "p_grid": grid,
        "n": args.n,
        "route": args.route,
        "seed": args.seed,
        "mc_samples": args.mc_samples,
        "exploratory": args.exploratory,
    }
    _emit(args, config, table.to_json(), table.csv_rows(), start)
    return 0


def _run_characterize(args):
    start = time.perf_counter()
    if args.check in ("blaschke", "muntz"):
        seq = _sequence_from_arg(args.check, args)
        report = blaschke_divergence_check(seq) if args.check == "blaschke" else muntz_divergence_check(seq)
        config = {"command": f"characterize.{args.check}", "sequence": args.sequence, "seed": args.seed}
        csv_rows = (
            ["n", "partial_sum"],
            [[i + 1, s] for i, s in enumerate(report.partial_sums)],
        )
        _emit(args, config, report.to_json(), csv_rows, start)
        return 0
    model_a = make_model(args.dist_a, parse_params(args.params_a))
    model_b = make_model(args.dist_b, parse_params(args.params_b))
    value = parse_complex(args.value)
    points = tuple(parse_complex(x) for x in args.points.split(","))
    mode = FixAlpha(value, points) if args.fix == "alpha" else FixLambda(value, points)
    report = distinguish(model_a, model_b, mode, _ROUTES[args.route], _quad_config(args), _mc_config(args))
    config = {
        "command": "characterize.distinguish",
        "model_a": model_a.to_json(),
        "model_b": model_b.to_json(),
        "fix": args.fix,
        "value": [value.real, value.imag],
        "points": [[z.real, z.imag] for z in points],
        "route": args.route,
        "seed": args.seed,
        "mc_samples": args.mc_samples,
    }
    csv_rows = (
        ["alpha_re", "alpha_im", "lambda_re", "lambda_im", "discrepancy", "uncertainty"],
        [[a.real, a.imag, l.real, l.imag, d, u] for (a, l, _va, _vb, d, u) in report.points],
    )
    _emit(args, config, report.to_json(), csv_rows, start)
    return 0


def _run_bounds(args):
    start = time.perf_counter()
    model = make_model(args.dist, parse_params(args.params))
    mc = _mc_config(args)
    if args.check == "half-plane":
        report = half_plane_bound_check(model, args.p, mc=mc)
    else:
        report = general_bound_check(model, args.p, mc=mc)
    config = {
        "command": "bounds",
        "check": args.check,
        "model": model.to_json(),
        "p": args.p,
        "seed": args.seed,
        "mc_samples": args.mc_samples,
    }
    csv_rows = (
        ["abs_moment", "moment_abs", "bound", "satisfied", "slack"],
        [[report.abs_moment, report.moment_abs, report.bound, report.satisfied, report.slack]],
    )
    _emit(args, config, report.to_json(), csv_rows, start)
    return 0


def _run_slln(args):
    start = time.perf_counter()
    model = make_model(args.dist, parse_params(args.params))
    traj = geometric_slln_demo(model, args.n_max, args.seed)
    config = {
        "command": "slln",
        "model": model.to_json(),
        "n_max": args.n_max,
        "seed": args.seed,
    }
    csv_rows = (
        ["n", "re", "im"],
        [[int(n), v.real, v.imag] for n, v in zip(traj.ns, traj.values)],
    )
    _emit(args, config, traj.to_json(), csv_rows, start)
    return 0


def _run_verify(args):
    start = time.perf_counter()
    ids = None
    if args.criteria:
        ids = {int(x) for x in args.criteria.split(",")}
    include_det = args.suite == "all" if ids is None else (14 in ids)
    results, passed = verify_mod.run_suite(seed=args.seed, ids=ids, include_determinism=include_det)
    status_out = sys.stderr if args.format == "csv" and not args.output else sys.stdout  # keep stdout CSV
    for line in verify_mod.format_lines(results):
        print(line, file=status_out)
    config = {"command": "verify", "suite": args.suite, "seed": args.seed}
    result_json = {"passed": passed, "criteria": [r.to_json() for r in results]}
    if args.output or args.format == "csv":
        csv_rows = (
            ["criterion", "status", "name"],
            [[r.cid, r.status(), r.name] for r in results],
        )
        _emit(args, config, result_json, csv_rows, start)
    return 0 if passed else 1


_RUNNERS = {
    "moment": _run_moment,
    "powermean": _run_powermean,
    "scan": _run_scan,
    "characterize": _run_characterize,
    "bounds": _run_bounds,
    "slln": _run_slln,
    "verify": _run_verify,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _thread_count()  # a bad FRACMEAN_THREADS is a configuration error
        return _RUNNERS[args.command](args)
    except NonConvergenceError as exc:
        _error(args, "non-convergence", exc)
        return 3
    except (
        MomentExistenceError,
        SupportError,
        QuadraturePreconditionError,
        BranchDomainError,
        RouteUnavailableError,
    ) as exc:
        _error(args, "precondition", exc)
        return 4
    except (ConfigError, ValueError) as exc:
        _error(args, "config", exc)
        return 2


def _error(args, kind, exc):
    record = {"error": {"kind": kind, "type": type(exc).__name__, "message": str(exc)}}
    sys.stderr.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main())
