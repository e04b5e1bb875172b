"""Command-line front end: activation tables, curvature maxima, Hessian
diagonal verification, curvature sweeps and static SVG charts.

Every subcommand is a thin shell over the library, so CLI output agrees
exactly with the equivalent library calls.  Exit codes: 0 success, 1 usage
or input-format error, 2 numerical check failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import contextmanager

import numpy as np

from .activations import (
    ActivationSpec,
    d1,
    d2,
    max_abs_d2,
    rct_af,
    value,
)
from .errors import CurvactError, ResultsFormatError, UnsupportedActivationError
from .hessian import hessian_diag_exact, hessian_diag_fd
from .network import Network, forward, init_network, load_network
from .svg import ChartSpec, Series, write_chart
from .training import (
    SweepConfig,
    default_sweep_config,
    read_sweep_results,
    run_sweep,
)

PLOT_KINDS = {
    "robustness_vs_curvature": ("robust_acc", "robust test accuracy",
                                "Robust accuracy vs activation curvature"),
    "norm_vs_curvature": ("diag_norm", "normalized Hessian diagonal norm",
                          "Sharpness vs activation curvature"),
    "clean_vs_curvature": ("std_clean_acc", "clean test accuracy (standard training)",
                           "Clean accuracy vs activation curvature"),
}

_CHECK_ALPHAS = (1.0, 4.0, 14.0, 28.0)


class _UsageError(Exception):
    """Raised instead of argparse's SystemExit so main can map it to 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_spec_string(text: str) -> ActivationSpec:
    """Parse 'kind' or 'kind:key=value,key=value' into an ActivationSpec."""
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    params: dict[str, float] = {}
    if rest:
        for part in rest.split(","):
            key, sep, raw = part.partition("=")
            if not sep:
                raise ValueError(f"malformed activation parameter {part!r}")
            try:
                params[key.strip()] = float(raw)
            except ValueError:
                raise ValueError(f"non-numeric activation parameter {part!r}") from None
    return ActivationSpec.from_dict({"kind": kind, **params})


def _describe_spec(spec: ActivationSpec) -> str:
    if spec.kind == "rct_af":
        return f"rct_af(alpha={spec.alpha:g}, beta={spec.beta})"
    if spec.kind == "leaky_relu":
        return f"leaky_relu(slope={spec.slope:g})"
    return spec.kind


@contextmanager
def _out_stream(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def cmd_act_table(args) -> int:
    spec = _parse_spec_string(args.activation)
    if args.n_points < 2:
        raise _UsageError("n-points must be at least 2")
    if not (math.isfinite(args.x_min) and math.isfinite(args.x_max)):
        raise _UsageError("x range must be finite")
    if args.x_min >= args.x_max:
        raise _UsageError("x-min must be strictly below x-max")
    xs = np.linspace(args.x_min, args.x_max, args.n_points)
    vals = value(spec, xs)
    firsts = d1(spec, xs)
    try:
        seconds = d2(spec, xs)
    except UnsupportedActivationError:
        seconds = None
    with _out_stream(args.output) as fh:
        if args.format == "json":
            rows = [
                {
                    "x": float(x),
                    "value": float(v),
                    "d1": float(g),
                    "d2": None if seconds is None else float(seconds[i]),
                }
                for i, (x, v, g) in enumerate(zip(xs, vals, firsts))
            ]
            json.dump({"activation": spec.to_dict(), "rows": rows}, fh, indent=2)
            fh.write("\n")
        else:
            fh.write("x,value,d1,d2\n")
            for i in range(args.n_points):
                last = "" if seconds is None else repr(float(seconds[i]))
                fh.write(f"{float(xs[i])!r},{float(vals[i])!r},"
                         f"{float(firsts[i])!r},{last}\n")
    return 0


def cmd_curvature(args) -> int:
    specs = [_parse_spec_string(s) for s in args.activations]
    profiles = [max_abs_d2(spec) for spec in specs]
    with _out_stream(args.output) as fh:
        if args.format == "json":
            payload = [
                {
                    "activation": s.to_dict(),
                    "argmax_x": p.argmax_x,
                    "max_abs_d2": "inf" if p.unbounded else p.max_abs_d2,
                }
                for s, p in zip(specs, profiles)
            ]
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        elif args.format == "csv":
            fh.write("activation,argmax_x,max_abs_d2\n")
            for s, p in zip(specs, profiles):
                fh.write(f"{_describe_spec(s)},{p.argmax_x!r},{p.max_abs_d2!r}\n")
        else:
            width = max(len(_describe_spec(s)) for s in specs)
            fh.write(f"{'activation':<{width}}  {'argmax x':>10}  {'max |d2|':>10}\n")
            for s, p in zip(specs, profiles):
                peak = "inf" if p.unbounded else f"{p.max_abs_d2:.3f}"
                fh.write(f"{_describe_spec(s):<{width}}  {p.argmax_x:>10.4f}  {peak:>10}\n")
    return 0


def _random_check_net(rng: np.random.Generator, trial: int) -> Network:
    # One or two hidden layers.  The recursion is exact at any depth, but
    # widening this draw would change the random stream of every seed.
    depth = int(rng.integers(2, 4))
    widths = tuple(int(rng.integers(2, 9)) for _ in range(depth)) + (1,)
    spec = rct_af(_CHECK_ALPHAS[trial % len(_CHECK_ALPHAS)], trial % 3)
    return init_network(widths, spec, seed=int(rng.integers(2**31)))


def _single_layer_closed_form(net: Network, x: np.ndarray, y: float) -> np.ndarray:
    """Directly coded diagonal for a one-hidden-layer scalar-output net."""
    trace = forward(net, x)
    z_hidden = trace.z[0][0]
    h_hidden = trace.h[1][0]
    w_out = net.weights[1][0]
    resid = trace.f[0] - y
    s1 = d1(net.activation, z_hidden)
    s2 = d2(net.activation, z_hidden)
    gw = np.outer(w_out * s1, x) ** 2 + resid * np.outer(w_out * s2, x**2)
    gb = (w_out * s1) ** 2 + resid * (w_out * s2)
    return np.concatenate([gw.ravel(), gb, h_hidden**2, np.ones(1)])


def cmd_hessian_check(args) -> int:
    if args.trials < 1:
        raise _UsageError("trials must be at least 1")
    if args.tolerance < 0:
        raise _UsageError("tolerance must be non-negative")
    rng = np.random.default_rng(args.seed)
    tol = args.tolerance
    explicit = load_network(args.net) if args.net is not None else None
    worst_err = 0.0
    ratio_by_hidden: dict[int, float] = {}
    params_checked = 0
    closed_form_gaps = []
    ok = True
    for trial in range(args.trials):
        net = explicit if explicit is not None else _random_check_net(rng, trial)
        x = rng.normal(size=net.widths[0])
        y = float(rng.choice((-1.0, 1.0)))
        exact = hessian_diag_exact(net, x, y).diag
        ref = hessian_diag_fd(net, x, y)
        err = np.abs(exact - ref)
        allowed = np.maximum(tol * np.abs(ref), tol * 1e-2)
        # Written so that a NaN entry fails the trial and shows in the
        # worst errors: every comparison with NaN is false.
        if not np.all(err <= allowed):
            ok = False
        worst_err = float(np.maximum(worst_err, err.max()))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(err == 0.0, 0.0, err / allowed)
        hidden = net.depth - 1
        ratio_by_hidden[hidden] = float(np.maximum(ratio_by_hidden.get(hidden, 0.0),
                                                   ratio.max()))
        params_checked += exact.size
        if explicit is not None and net.depth == 2:
            closed_form_gaps.append(np.abs(exact - _single_layer_closed_form(net, x, y)).max())
    print(f"trials: {args.trials}")
    print(f"parameters checked: {params_checked}")
    print(f"max abs error vs finite differences: {worst_err:.3e}")
    worst_ratio = float(np.max(list(ratio_by_hidden.values())))
    print(f"worst error relative to allowance: {worst_ratio:.3g}")
    print(f"tolerance: {tol!r}")
    if closed_form_gaps:
        print(f"single-layer closed form: max abs diff = {np.max(closed_form_gaps):.3e}")
    for hidden, ratio in sorted(ratio_by_hidden.items()):
        layers = "layer" if hidden == 1 else "layers"
        print(f"worst error relative to allowance, {hidden} hidden {layers}: {ratio:.3g}")
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_sweep(args) -> int:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = SweepConfig.from_dict(json.load(fh))
    else:
        config = default_sweep_config()
    results_path = args.output if args.output is not None else "sweep_results.csv"
    counts = {"done": 0, "skipped": 0}

    def progress(event, payload):
        counts[event] += 1
        if event == "done":
            print(f"  beta={payload.beta} curvature={payload.curvature:g} "
                  f"seed={payload.seed} status={payload.status} "
                  f"({payload.wall_time_s:.1f} s)", flush=True)

    run_sweep(config, results_path=results_path, jobs=args.jobs,
              resume=args.resume, progress=progress)
    print(f"{counts['done']} cells run, {counts['skipped']} skipped")
    print(f"results written to {results_path}")
    return 0


def cmd_plot(args) -> int:
    metric, y_label, title = PLOT_KINDS[args.kind]
    rows = read_sweep_results(args.results)
    # beta -> curvature -> the ok, non-NaN values, in file order.
    groups: dict[int, dict[float, list[float]]] = {}
    for r in rows:
        v = getattr(r, metric)
        if r.status == "ok" and not math.isnan(v):
            groups.setdefault(r.beta, {}).setdefault(r.curvature, []).append(v)
    series = [Series(label=f"beta={beta}", x=sorted(by_curv),
                     y=[sum(by_curv[c]) / len(by_curv[c]) for c in sorted(by_curv)])
              for beta, by_curv in sorted(groups.items())]
    if not series:
        raise ResultsFormatError(f"no plottable rows for metric {metric!r}")
    chart = ChartSpec(title=title, x_label="activation curvature max |d2|",
                      y_label=y_label, series=series, log_x=args.log_x)
    out_path = args.output if args.output is not None else f"{args.kind}.svg"
    write_chart(chart, out_path)
    print(f"wrote {out_path}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls.
    # Each subcommand takes only the shared options it reads.
    output = _Parser(add_help=False)
    output.add_argument("--output", default=None,
                        help="output file (default: stdout or a kind-derived name)")
    table = _Parser(add_help=False, parents=[output])
    table.add_argument("--format", choices=("csv", "json"), default=None,
                       help="structured output format")

    parser = _Parser(prog="curvact",
                     description="Curvature-tunable activations, exact Hessian "
                                 "diagonals and adversarial-robustness sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("act-table", parents=[table],
                       help="tabulate an activation and its derivatives")
    p.add_argument("activation",
                   help="activation spec, e.g. rct_af:alpha=7,beta=2 or gelu")
    p.add_argument("--x-min", type=float, default=-5.0)
    p.add_argument("--x-max", type=float, default=5.0)
    p.add_argument("--n-points", type=int, default=101)
    p.set_defaults(func=cmd_act_table)

    p = sub.add_parser("curvature", parents=[table],
                       help="report max |second derivative| per activation")
    p.add_argument("activations", nargs="+",
                   help="activation specs, e.g. gelu swish rct_af:alpha=7,beta=2")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("hessian-check",
                       help="compare the exact Hessian diagonal to finite differences")
    p.add_argument("--seed", type=int, default=42,
                   help="seed for the random networks and samples")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--net", default=None,
                   help="JSON network file (default: fresh random networks)")
    p.set_defaults(func=cmd_hessian_check)

    p = sub.add_parser("sweep", parents=[output],
                       help="run the curvature/robustness sweep")
    p.add_argument("--config", default=None,
                   help="sweep config JSON (default: built-in desk-scale sweep)")
    p.add_argument("--resume", action="store_true",
                   help="reuse rows already present in the results file")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                   help="worker processes (default: available parallelism)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", parents=[output],
                       help="render a sweep results CSV as an SVG chart")
    p.add_argument("results", help="sweep results CSV file")
    p.add_argument("--kind", choices=sorted(PLOT_KINDS), required=True)
    p.add_argument("--log-x", action="store_true",
                   help="use a log-scaled curvature axis")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, CurvactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
