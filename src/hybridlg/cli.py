"""Command-line surface: reproducible CSV/JSON exports of every pipeline.

Every artifact embeds a metadata block (full config echo, tool version,
active tolerances) so outputs are self-describing; numeric fields are written
with 17 significant digits, which round-trips 64-bit floats exactly.  Sweeps
accept ``--workers N`` and produce value-identical output for any worker
count (cells are pure and assembled by index).

Exit codes: 0 success, 2 trajectory extinction (also ``k3 --optimize`` on a
cell whose every scanned time point is extinguished), 64 usage error
(including an --in/--out path that cannot be opened), 70 internal numeric
failure.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, blochsol, fit, lgi, macrorealism, model, spectrum
# perfbench's tracer wraps cli.evolve_rk4, so the name stays bound here
from .dynamics import EvolveConfig, Propagator, evolve_rk4, rk4_states  # noqa: F401
from .errors import HybridLGError, TrajectoryExtinguishedError

EXIT_OK = 0
EXIT_EXTINGUISHED = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 70


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


class _Writer:
    """Streams rows to CSV (metadata as '# ' JSON comment) or buffers JSON."""

    def __init__(self, path, fmt, columns, metadata):
        self.path = path
        self.fmt = fmt
        self.columns = columns
        self.metadata = metadata
        self._rows = []
        self._handle = None

    def __enter__(self):
        self._handle = (
            sys.stdout if self.path in (None, "-")
            else _open(self.path, "w", "--out")
        )
        if self.fmt == "csv":
            self._handle.write("# " + json.dumps(self.metadata) + "\n")
            self._handle.write(",".join(self.columns) + "\n")
        return self

    def write_row(self, values):
        if self.fmt == "csv":
            self._handle.write(",".join(_fmt(v) for v in values) + "\n")
            self._handle.flush()
        else:
            # strict JSON has no NaN; masked cells become null
            self._rows.append([
                None if isinstance(v, float) and math.isnan(v) else v
                for v in values
            ])

    def __exit__(self, exc_type, exc, tb):
        try:
            if self.fmt == "json":
                json.dump(
                    {"metadata": self.metadata, "columns": self.columns,
                     "rows": self._rows},
                    self._handle, indent=1, default=_fmt,
                )
                self._handle.write("\n")
            self._handle.flush()
        finally:
            if self._handle is not sys.stdout:
                self._handle.close()
        return False


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
        if lo <= 0:
            raise UsageError(f"--{name}: log spacing requires min > 0")
        return np.logspace(math.log10(lo), math.log10(hi), count)
    if spacing in ("lin", "linear"):
        return np.linspace(lo, hi, count)
    raise UsageError(f"--{name}: unknown spacing {spacing!r}")


def _params_from(args) -> model.ModelParams:
    try:
        return model.ModelParams(
            gamma=args.gamma, q=args.q, J=args.J, theta=args.theta
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _sample_times(args):
    """``--samples`` times spread evenly over [0, ``--t-max``]."""
    if not args.t_max >= 0:
        raise UsageError(f"--t-max must be >= 0, got {args.t_max}")
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
    code = EXIT_OK
    with _Writer(args.out, args.format, columns, meta) as writer:
        if args.engine == "exact":
            states = Propagator(params).states(rho0, times)
        else:
            states = rk4_states(rho0, params, times, EvolveConfig(dt=args.dt))
        bloch = model.bloch_decompose(states)
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = np.column_stack([times, states.reshape(-1, 4).view(float),
                                    bloch.r, *bloch.normalized()])
        for row in rows.tolist():
            t, r = row[0], row[9]
            if r < args.eps_trace:
                code = EXIT_EXTINGUISHED
                print(
                    f"trajectory extinguished at t={t:g} "
                    f"(trace {r:.3e}); flushed rows up to here",
                    file=sys.stderr,
                )
                break
            writer.write_row(row)
    return code


def _cmd_k3(args):
    params = _params_from(args)
    meta = _metadata(args, {"eps_trace": args.eps_trace})
    if args.t is None and not args.optimize:
        raise UsageError("k3 requires --t or --optimize")
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
    with _Writer(args.out, args.format, columns, meta) as writer:
        writer.write_row([
            record.t, record.c01, record.c12, record.c02, record.k3,
            record.p_plus, record.p_minus,
        ])
    return EXIT_OK


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
    columns = ["gamma", "q", "k3_max", "t_star", "error"]
    with _Writer(args.out, args.format, columns, meta) as writer:
        for gamma, q, k3_max, t_star, message in result.rows():
            writer.write_row([gamma, q, k3_max, t_star, message])
    return EXIT_OK


def _cmd_spectrum(args):
    if args.grid_gamma:
        gammas = _parse_grid(args.grid_gamma, "grid-gamma")
    elif args.gamma is not None:
        gammas = [args.gamma]
    else:
        raise UsageError("spectrum requires --gamma or --grid-gamma")
    if args.grid_q:
        qs = _parse_grid(args.grid_q, "grid-q")
    elif args.q is not None:
        qs = [args.q]
    else:
        raise UsageError("spectrum requires --q or --grid-q")

    columns = ["gamma", "q"]
    for k in range(4):
        columns += [f"eig{k}_re", f"eig{k}_im"]
    columns += ["has_exact_root"]
    for k in range(3):
        columns += [f"x{k}_re", f"x{k}_im"]
    columns += ["degenerate", "discriminant"]
    meta = _metadata(args)
    with _Writer(args.out, args.format, columns, meta) as writer:
        for gamma in gammas:
            for q in qs:
                params = model.ModelParams(
                    gamma=float(gamma), q=float(q), J=args.J, theta=args.theta
                )
                report = spectrum.spectrum_report(params)
                row = [params.gamma, params.q]
                for eig in report.eigenvalues:
                    row += [eig.real, eig.imag]
                row.append(int(report.has_exact_root))
                for x in report.cubic_roots:
                    row += [x.real, x.imag]
                row += [int(report.degenerate), report.discriminant]
                writer.write_row(row)
    return EXIT_OK


def _cmd_ep_locus(args):
    qs = _parse_grid(args.grid_q, "grid-q")
    meta = _metadata(args)
    with _Writer(args.out, args.format, ["q", "r_ep", "residual"], meta) as writer:
        for point in spectrum.ep_locus(qs):
            writer.write_row([point.q, point.r_ep, point.residual])
    return EXIT_OK


def _cmd_bloch_traj(args):
    params = _params_from(args)
    branches = ("+", "-") if args.branch == "both" else (args.branch,)
    times = _sample_times(args)
    meta = _metadata(args)
    with _Writer(args.out, args.format,
                 ["branch", "t", "r", "sy", "sz"], meta) as writer:
        for branch in branches:
            solution = blochsol.analytic_branch(params, branch)
            states = solution.state(times)
            for t, (r, sy_raw, sz_raw) in zip(times, states):
                writer.write_row([branch, float(t), r, sy_raw / r, sz_raw / r])
    return EXIT_OK


def _cmd_nsit(args):
    if (args.t is None) == (not args.maximize_over_t):
        raise UsageError("nsit requires exactly one of --t or --maximize-over-t")
    gammas = _parse_grid(args.grid_gamma, "grid-gamma")
    qs = _parse_grid(args.grid_q, "grid-q")
    base = model.ModelParams(gamma=1.0, q=1.0, J=args.J, theta=args.theta)
    config = (lgi.OptimizeConfig(t_max=args.t_max, resolution=args.resolution)
              if args.maximize_over_t else None)
    rows = macrorealism.nsit_grid(
        gammas, qs, base, t=args.t, config=config, eps_trace=args.eps_trace,
        outcomes=(args.q0, args.q2), workers=args.workers,
    )
    meta = _metadata(args, {"eps_trace": args.eps_trace})
    columns = ["gamma", "q", "t", "delta_01_2", "delta_12", "delta_02",
               "aot_defect", "error"]
    cells = ((float(g), float(q)) for g in gammas for q in qs)
    with _Writer(args.out, args.format, columns, meta) as writer:
        for cell, row in zip(cells, rows):
            writer.write_row([*cell, *row])
    return EXIT_OK


def _read_sweep_csv(path):
    rows = []
    with _open(path, "r", "--in") as handle:
        header = None
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                for needed in ("gamma", "q", "k3_max", "t_star"):
                    if needed not in header:
                        raise UsageError(
                            f"{path}: missing column {needed!r} in sweep CSV"
                        )
                continue
            fields = dict(zip(header, line.split(",")))
            rows.append((
                float(fields["gamma"]), float(fields["q"]),
                float(fields["k3_max"]), float(fields["t_star"]),
                fields.get("error", ""),
            ))
    if not rows:
        raise UsageError(f"{path}: no data rows found")
    return rows


def _sweep_from_rows(rows) -> lgi.SweepResult:
    gammas = sorted({r[0] for r in rows})
    qs = sorted({r[1] for r in rows})
    index_g = {g: i for i, g in enumerate(gammas)}
    index_q = {q: j for j, q in enumerate(qs)}
    shape = (len(gammas), len(qs))
    k3_max = np.full(shape, math.nan)
    t_star = np.full(shape, math.nan)
    masked = np.zeros(shape, dtype=bool)
    messages = {}
    for gamma, q, value, t_at, message in rows:
        i, j = index_g[gamma], index_q[q]
        k3_max[i, j] = value
        t_star[i, j] = t_at
        if message:
            masked[i, j] = True
            messages[(i, j)] = message
    return lgi.SweepResult(
        gamma_grid=np.asarray(gammas), q_grid=np.asarray(qs),
        k3_max=k3_max, t_star=t_star, masked=masked, messages=messages,
    )


def _cmd_fit_check(args):
    rows = _read_sweep_csv(args.input)
    sweep_result = _sweep_from_rows(rows)
    if args.log_base == "auto":
        base, medians = fit.select_log_base(sweep_result)
    else:
        base, medians = args.log_base, None
    report = fit.residual_report(
        sweep_result, fit.FitCoefficients.published(base),
        allow_extrapolation=args.allow_extrapolation,
    )
    meta = _metadata(args, {"region_thresholds": list(fit.REGION_THRESHOLDS)})
    meta["log_base"] = base
    if medians is not None:
        meta["log_base_medians"] = {k: _fmt(v) for k, v in medians.items()}
    meta["max_residual"] = _fmt(report.max_residual)
    meta["median_residual"] = _fmt(report.median_residual)
    columns = ["gamma", "q", "k3_computed", "k3_fit", "residual", "region"]
    with _Writer(args.out, args.format, columns, meta) as writer:
        for row in report.rows:
            writer.write_row([row.gamma, row.q, row.k3_computed, row.k3_fit,
                              row.residual, row.region])
    return EXIT_OK


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
    p.add_argument("--eps-trace", type=float, default=1e-12)
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
    p.add_argument("--eps-trace", type=float, default=lgi.SWEEP_TRACE_FLOOR)
    p.set_defaults(func=_cmd_k3)

    p = sub.add_parser("sweep", help="K3_max landscape over a (gamma, q) grid")
    _add_model_flags(p, require_point=False)
    p.add_argument("--grid-gamma", default="0.05:5:40",
                   help="min:max:n[:log]")
    p.add_argument("--grid-q", default="1e-6:1:25:log", help="min:max:n[:log]")
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--resolution", type=int, default=2000)
    p.add_argument("--eps-trace", type=float, default=lgi.SWEEP_TRACE_FLOOR)
    p.add_argument("--workers", type=int, default=1)
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
    p.add_argument("--eps-trace", type=float, default=1e-12)
    p.add_argument("--q0", type=int, choices=(1, -1), default=1,
                   help="first-outcome component of the middle-marginal delta")
    p.add_argument("--q2", type=int, choices=(1, -1), default=1,
                   help="final-outcome component of the deltas")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_nsit)

    p = sub.add_parser("fit-check",
                       help="residuals of the tanh fit against a sweep CSV")
    p.add_argument("--in", dest="input", required=True,
                   help="sweep CSV produced by the sweep command")
    p.add_argument("--log-base", choices=("e", "10", "auto"), default="e")
    p.add_argument("--allow-extrapolation", action="store_true",
                   help="evaluate the fit inside the excluded 1 <= gamma <= 2 "
                        "band instead of marking those cells")
    p.set_defaults(func=_cmd_fit_check)

    for name, subparser in sub.choices.items():
        _add_output_flags(subparser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrajectoryExtinguishedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTINGUISHED
    except HybridLGError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
