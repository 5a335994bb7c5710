"""Command-line surface: reproducible CSV/JSON exports of every pipeline.

Every artifact embeds a metadata block (full config echo, tool version,
active tolerances) so outputs are self-describing; numeric fields are written
with 17 significant digits, which round-trips 64-bit floats exactly.  Sweeps
accept ``--workers N`` and produce value-identical output for any worker
count (cells are pure and assembled by index).

Exit codes: 0 success, 2 trajectory extinction (also ``k3 --optimize`` on a
cell whose every scanned time point is extinguished), 64 usage error
(including an --in/--out path that cannot be opened, ``--workers`` below 1,
``k3`` without exactly one of ``--t`` and ``--optimize``, ``spectrum``
without exactly one of a point and a grid per axis, an ``--engine rk4``
step count t/dt that is not finite or exceeds 2**53, and a parameter regime
the command does not support, such as ``bloch-traj`` off theta = pi/2), 70
internal numeric failure or a ``--workers`` pool that lost a process mid-map
(the message names the pool), 74 an output whose reader closed it before
the output was written, such as ``| head`` (stdout then goes to the null
device, and no message is printed).
"""

import argparse
import functools
import itertools
import json
import math
import operator
import os
import sys

import numpy as np

from . import __version__, blochsol, fit, lgi, macrorealism, model, spectrum
# perfbench's tracer wraps cli.evolve_rk4, so the name stays bound here
from .dynamics import EvolveConfig, Propagator, evolve_rk4, rk4_states  # noqa: F401
from .errors import (HybridLGError, TrajectoryExtinguishedError,
                     UnsupportedConfigurationError)

EXIT_OK = 0
EXIT_EXTINGUISHED = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 70
EXIT_BROKEN_PIPE = 74

_WORKERS_HELP = ("processes that compute the grid, this one included; "
                 "the others, at most N - 1, are forked")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _open(path, mode, flag):
    """open() with a failure reported as a usage error naming the path."""
    try:
        return open(path, mode)
    except OSError as exc:
        raise UsageError(f"{flag} {path}: {exc.strerror}") from None


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _metadata(args, tolerances=None):
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func",) and value is not None
    }
    return {
        "tool": "hybridlg",
        "version": __version__,
        "command": args.command,
        "config": config,
        "tolerances": tolerances or {},
    }


@functools.cache
def _csv_template(kinds):
    """The %-template of one CSV row whose values have the types ``kinds``:
    the bytes of :func:`_fmt` for each value."""
    return ",".join("%.17g" if issubclass(kind, float) else "%s"
                    for kind in kinds) + "\n"


def _format_rows(fmt, rows):
    """``rows`` in the output form of ``fmt``: for CSV one text block, one
    template filled by one ``%``, so every row must have the kind tuple (the
    value types) of the first row, else ``TypeError``; or JSON-ready rows
    with NaN as null (strict JSON has no NaN)."""
    if fmt != "csv":
        return [[None if isinstance(v, float) and math.isnan(v) else v
                 for v in row] for row in rows]
    if not rows:
        return ""
    kinds = tuple(map(type, rows[0]))
    values = tuple(itertools.chain.from_iterable(rows))
    # every row's length and every value's type, in C loops
    if (set(map(len, rows)) != {len(kinds)}
            or list(map(type, values)) != list(kinds) * len(rows)):
        raise TypeError(f"CSV rows of more than one kind tuple, first {kinds}")
    return _csv_template(kinds) * len(rows) % values


def _write(args, columns, meta, parts):
    """Write ``parts``, each an output of :func:`_format_rows` (for CSV, the
    text of one table), to ``--out`` as one document: CSV under a '# ' JSON
    metadata line and the header, or JSON.  Callers compute first, so a
    failure leaves no output.  A stdout whose reader has gone is pointed at
    the null device before the ``BrokenPipeError`` goes on to :func:`main`."""
    handle = sys.stdout if args.out == "-" else _open(args.out, "w", "--out")
    try:
        if args.format == "csv":
            handle.write(f"# {json.dumps(meta)}\n{','.join(columns)}\n")
            handle.writelines(parts)
        else:
            json.dump({"metadata": meta, "columns": columns,
                       "rows": [row for part in parts for row in part]},
                      handle, indent=1, default=_fmt)
            handle.write("\n")
        handle.flush()
    except BrokenPipeError:
        if handle is sys.stdout:
            # the reader has gone; the null device takes what is left in
            # the buffer, so the flush at exit raises nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, handle.fileno())
            os.close(devnull)
        raise
    finally:
        if handle is not sys.stdout:
            handle.close()
    return EXIT_OK


def _write_rows(args, columns, meta, rows):
    return _write(args, columns, meta, [_format_rows(args.format, rows)])


def _parse_grid(spec_text, name):
    """Parse 'min:max:n[:log|:lin]' into a numpy grid."""
    parts = spec_text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(
            f"--{name} expects min:max:n or min:max:n:log, got {spec_text!r}"
        )
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"--{name}: {exc}") from None
    spacing = parts[3] if len(parts) == 4 else "lin"
    if count < 1:
        raise UsageError(f"--{name}: need at least one point")
    if spacing == "log":
        if lo <= 0 or hi <= 0:
            raise UsageError(f"--{name}: log spacing requires min and max > 0")
        return np.logspace(math.log10(lo), math.log10(hi), count)
    if spacing in ("lin", "linear"):
        return np.linspace(lo, hi, count)
    raise UsageError(f"--{name}: unknown spacing {spacing!r}")


def _trace_floor(text):
    """Type of ``--eps-trace``: a float > 0, so neither 0, a negative value
    nor NaN reaches the trace ratios."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a float > 0, got {text!r}")
    return value


def _params_from(args) -> model.ModelParams:
    return model.ModelParams(gamma=args.gamma, q=args.q, J=args.J,
                             theta=args.theta)


def _sample_times(args):
    """``--samples`` times spread evenly over [0, ``--t-max``]; ``--t-max``
    0 is one instant, an infinite one would give NaN rows."""
    if not 0 <= args.t_max < math.inf:
        raise UsageError(f"--t-max must lie in [0, inf), got {args.t_max}")
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    return np.linspace(0.0, args.t_max, args.samples)


def _add_model_flags(parser, require_point=True):
    parser.add_argument("--J", type=float, default=1.0,
                        help="coherent scale (sets the time unit)")
    parser.add_argument("--theta", type=float, default=math.pi / 2,
                        help="Hamiltonian orientation angle in radians")
    if require_point:
        parser.add_argument("--gamma", type=float, required=True,
                            help="dissipation rate")
        parser.add_argument("--q", type=float, required=True,
                            help="detector efficiency in [0, 1]")


def _add_output_flags(parser):
    parser.add_argument("--out", default="-", help="output path ('-' = stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


# ---------------------------------------------------------------- commands


def _cmd_evolve(args):
    params = _params_from(args)
    if args.rho0 is not None:
        try:
            entries = [complex(x) for x in args.rho0.split(",")]
        except ValueError as exc:
            raise UsageError(f"--rho0: {exc}") from None
        if len(entries) != 4:
            raise UsageError("--rho0 expects 4 comma-separated complex entries")
        rho0 = model.check_density_matrix(np.array(entries).reshape(2, 2))
    else:
        rho0 = model.INITIAL_STATE
    times = _sample_times(args)
    columns = [
        "t", "rho00_re", "rho00_im", "rho01_re", "rho01_im",
        "rho10_re", "rho10_im", "rho11_re", "rho11_im",
        "r", "sx", "sy", "sz",
    ]
    meta = _metadata(args, {"eps_trace": args.eps_trace})
    if args.engine == "exact":
        states = Propagator(params).states(rho0, times)
    else:
        states = rk4_states(rho0, params, times, EvolveConfig(dt=args.dt))
    bloch = model.bloch_decompose(states)
    ratios, first = lgi._branch_sy((bloch.r,) * 3, (bloch.sx, bloch.sy, bloch.sz),
                                   args.eps_trace)
    rows = np.column_stack([times, states.reshape(-1, 4).view(float), bloch.r,
                            *ratios])
    # rows up to an extinguished one are written, and the exit code says so
    gone = np.flatnonzero(first >= 0)
    end = gone[0] if gone.size else len(rows)
    _write_rows(args, columns, meta, rows[:end].tolist())
    if not gone.size:
        return EXIT_OK
    t, r = rows[end, [0, 9]].tolist()
    print(f"trajectory extinguished at t={t:g} (trace {r:.3e}); "
          "flushed rows up to here", file=sys.stderr)
    return EXIT_EXTINGUISHED


def _cmd_k3(args):
    params = _params_from(args)
    meta = _metadata(args, {"eps_trace": args.eps_trace})
    if (args.t is None) == (not args.optimize):
        raise UsageError("k3 requires exactly one of --t or --optimize")
    columns = ["t", "c01", "c12", "c02", "k3", "p_plus", "p_minus"]
    if args.optimize:
        config = lgi.OptimizeConfig(
            t_max=args.t_max, resolution=args.resolution,
            eps_trace=args.eps_trace,
        )
        best = lgi.optimize_k3(params, config)
        if best.masked:
            raise TrajectoryExtinguishedError(None, context=lgi.MASKED_MESSAGE)
        meta["k3_max"] = _fmt(best.k3_max)
        meta["t_star"] = _fmt(best.t_star)
        t_eval = best.t_star
    else:
        t_eval = args.t
    record = lgi.correlators(params, t_eval, engine=args.engine,
                             eps_trace=args.eps_trace, dt=args.dt)
    return _write_rows(args, columns, meta, [[
        record.t, record.c01, record.c12, record.c02, record.k3,
        record.p_plus, record.p_minus,
    ]])


def _cmd_sweep(args):
    gammas = _parse_grid(args.grid_gamma, "grid-gamma")
    qs = _parse_grid(args.grid_q, "grid-q")
    base = model.ModelParams(gamma=1.0, q=1.0, J=args.J, theta=args.theta)
    config = lgi.OptimizeConfig(
        t_max=args.t_max, resolution=args.resolution, eps_trace=args.eps_trace,
    )
    result = lgi.sweep(gammas, qs, base, config, workers=args.workers)
    meta = _metadata(args, {"eps_trace": args.eps_trace})
    meta["gamma_grid"] = [_fmt(float(g)) for g in gammas]
    meta["q_grid"] = [_fmt(float(q)) for q in qs]
    return _write_rows(args, ["gamma", "q", "k3_max", "t_star", "error"],
                       meta, result.rows())


def _cmd_spectrum(args):
    axes = []
    for name, point, grid in (("gamma", args.gamma, args.grid_gamma),
                              ("q", args.q, args.grid_q)):
        if (point is None) == (grid is None):
            raise UsageError(
                f"spectrum requires exactly one of --{name} or --grid-{name}")
        axes.append([point] if grid is None else _parse_grid(grid, f"grid-{name}"))
    gammas, qs = axes

    columns = ["gamma", "q"]
    for k in range(4):
        columns += [f"eig{k}_re", f"eig{k}_im"]
    columns += ["has_exact_root"]
    for k in range(3):
        columns += [f"x{k}_re", f"x{k}_im"]
    columns += ["degenerate", "discriminant"]
    rows = []
    for gamma in gammas:
        for q in qs:
            params = model.ModelParams(
                gamma=float(gamma), q=float(q), J=args.J, theta=args.theta
            )
            report = spectrum.spectrum_report(params)
            row = [params.gamma, params.q]
            # roots come as numpy or as Python complex: one type per column
            for eig in map(complex, report.eigenvalues):
                row += [eig.real, eig.imag]
            row.append(int(report.has_exact_root))
            for x in map(complex, report.cubic_roots):
                row += [x.real, x.imag]
            row += [int(report.degenerate), report.discriminant]
            rows.append(row)
    return _write_rows(args, columns, _metadata(args), rows)


def _cmd_ep_locus(args):
    rows = [[point.q, point.r_ep, point.residual]
            for point in spectrum.ep_locus(_parse_grid(args.grid_q, "grid-q"))]
    return _write_rows(args, ["q", "r_ep", "residual"], _metadata(args), rows)


def _cmd_bloch_traj(args):
    params = _params_from(args)
    branches = ("+", "-") if args.branch == "both" else (args.branch,)
    times = _sample_times(args)
    rows = []
    for branch in branches:
        r, sy, sz = blochsol.analytic_branch(params, branch).state(times).T
        rows += zip(itertools.repeat(branch),
                    *(column.tolist() for column in (times, r, sy / r, sz / r)))
    return _write_rows(args, ["branch", "t", "r", "sy", "sz"], _metadata(args),
                       rows)


def _cmd_nsit(args):
    if (args.t is None) == (not args.maximize_over_t):
        raise UsageError("nsit requires exactly one of --t or --maximize-over-t")
    gammas = _parse_grid(args.grid_gamma, "grid-gamma")
    qs = _parse_grid(args.grid_q, "grid-q")
    base = model.ModelParams(gamma=1.0, q=1.0, J=args.J, theta=args.theta)
    config = (lgi.OptimizeConfig(t_max=args.t_max, resolution=args.resolution)
              if args.maximize_over_t else None)
    # each task formats its own rows, in the process that computed them
    parts = macrorealism.nsit_grid(
        gammas, qs, base, t=args.t, config=config, eps_trace=args.eps_trace,
        outcomes=(args.q0, args.q2), workers=args.workers,
        format_rows=functools.partial(_format_rows, args.format),
    )
    meta = _metadata(args, {"eps_trace": args.eps_trace})
    columns = ["gamma", "q", "t", "delta_01_2", "delta_12", "delta_02",
               "aot_defect", "error"]
    return _write(args, columns, meta, parts)


def _read_sweep_csv(path):
    """Sweep rows (gamma, q, k3_max, t_star, error) of a sweep CSV, in order."""
    names = ("gamma", "q", "k3_max", "t_star")
    rows = []
    with _open(path, "r", "--in") as handle:
        header = None
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                # a repeated column reads its last occurrence
                column = {name: k for k, name in enumerate(header)}
                for needed in names:
                    if needed not in column:
                        raise UsageError(
                            f"{path}: missing column {needed!r} in sweep CSV"
                        )
                numbers = operator.itemgetter(*map(column.get, names))
                error = column.get("error")
                continue
            values = line.split(",")
            if len(values) != len(header):
                raise UsageError(f"{path}:{number}: {len(values)} fields, "
                                 f"header has {len(header)}")
            try:
                rows.append((*map(float, numbers(values)),
                             "" if error is None else values[error]))
            except ValueError as exc:
                raise UsageError(f"{path}:{number}: {exc}") from None
    if not rows:
        raise UsageError(f"{path}: no data rows found")
    return rows


def _cmd_fit_check(args):
    rows = _read_sweep_csv(args.input)
    if args.log_base == "auto":
        base, medians, report = fit.select_log_base(rows)
    else:
        base, medians, report = args.log_base, None, None
    if report is None or args.allow_extrapolation:
        report = fit.residual_report(
            rows, fit.FitCoefficients.published(base),
            allow_extrapolation=args.allow_extrapolation,
        )
    meta = _metadata(args, {"region_thresholds": list(fit.REGION_THRESHOLDS)})
    meta["log_base"] = base
    if medians is not None:
        meta["log_base_medians"] = {k: _fmt(v) for k, v in medians.items()}
    meta["max_residual"] = _fmt(report.max_residual)
    meta["median_residual"] = _fmt(report.median_residual)
    columns = ["gamma", "q", "k3_computed", "k3_fit", "residual", "region"]
    return _write_rows(args, columns, meta, [
        [row.gamma, row.q, row.k3_computed, row.k3_fit, row.residual, row.region]
        for row in report.rows])


# ----------------------------------------------------------------- parser


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process; each parse gets a new namespace."""
    parser = _Parser(prog="hybridlg", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="trajectory of the (normalized) state")
    _add_model_flags(p)
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--engine", choices=("exact", "rk4"), default="exact")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--eps-trace", type=_trace_floor, default=1e-12)
    p.add_argument("--rho0", help="initial state, 4 complex entries row-major")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("k3", help="correlators and K3 at one interval")
    _add_model_flags(p)
    p.add_argument("--t", type=float)
    p.add_argument("--optimize", action="store_true",
                   help="maximize K3 over t and report the record at t*")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--resolution", type=int, default=2000)
    p.add_argument("--engine", choices=("exact", "rk4"), default="exact")
    p.add_argument("--dt", type=float, default=1e-3,
                   help="integrator step for --engine rk4")
    p.add_argument("--eps-trace", type=_trace_floor, default=lgi.SWEEP_TRACE_FLOOR)
    p.set_defaults(func=_cmd_k3)

    p = sub.add_parser("sweep", help="K3_max landscape over a (gamma, q) grid")
    _add_model_flags(p, require_point=False)
    p.add_argument("--grid-gamma", default="0.05:5:40",
                   help="min:max:n[:log]")
    p.add_argument("--grid-q", default="1e-6:1:25:log", help="min:max:n[:log]")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--resolution", type=int, default=2000)
    p.add_argument("--eps-trace", type=_trace_floor, default=lgi.SWEEP_TRACE_FLOOR)
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help=_WORKERS_HELP)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("spectrum", help="generator eigenvalues and cubic roots")
    p.add_argument("--J", type=float, default=1.0)
    p.add_argument("--theta", type=float, default=math.pi / 2)
    p.add_argument("--gamma", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--grid-gamma", help="min:max:n[:log]")
    p.add_argument("--grid-q", help="min:max:n[:log]")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("ep-locus",
                       help="eigenvalue-coalescence locus r_ep(q)")
    p.add_argument("--grid-q", default="0:1:101", help="min:max:n[:log]")
    p.set_defaults(func=_cmd_ep_locus)

    p = sub.add_parser("bloch-traj",
                       help="closed-form branch trajectories (R, sy, sz)")
    _add_model_flags(p)
    p.add_argument("--branch", choices=("+", "-", "both"), default="both")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=201)
    p.set_defaults(func=_cmd_bloch_traj)

    p = sub.add_parser("nsit", help="no-signaling-in-time defect maps")
    _add_model_flags(p, require_point=False)
    p.add_argument("--grid-gamma", default="0.05:3:20", help="min:max:n[:log]")
    p.add_argument("--grid-q", default="1e-6:1:20:log", help="min:max:n[:log]")
    p.add_argument("--t", type=float, help="measurement interval")
    p.add_argument("--maximize-over-t", action="store_true",
                   help="evaluate each cell at its K3-optimal interval")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--resolution", type=int, default=2000)
    p.add_argument("--eps-trace", type=_trace_floor, default=1e-12)
    p.add_argument("--q0", type=int, choices=(1, -1), default=1,
                   help="first-outcome component of the middle-marginal delta")
    p.add_argument("--q2", type=int, choices=(1, -1), default=1,
                   help="final-outcome component of the deltas")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help=_WORKERS_HELP)
    p.set_defaults(func=_cmd_nsit)

    p = sub.add_parser("fit-check",
                       help="residuals of the tanh fit against a sweep CSV")
    p.add_argument("--in", dest="input", required=True,
                   help="sweep CSV produced by the sweep command")
    p.add_argument("--log-base", choices=("e", "10", "auto"), default="e")
    p.add_argument("--allow-extrapolation", action="store_true",
                   help="evaluate the fit on cells outside its fitted gamma "
                        "range instead of marking them excluded")
    p.set_defaults(func=_cmd_fit_check)

    for name, subparser in sub.choices.items():
        _add_output_flags(subparser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, UnsupportedConfigurationError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrajectoryExtinguishedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTINGUISHED
    except HybridLGError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:  # _write has sent stdout to the null device
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
