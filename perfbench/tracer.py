"""Spans around the program's public calls, recorded from outside the program.

``Tracer.install`` replaces public attributes of the ``hybridlg`` modules with
wrappers that record one span per call: name, start, end, parent span and
request id, plus a size (points of a ``Propagator.states`` batch, RK4 steps
of an ``evolve_rk4`` call).  Attributes are wrapped under the name the
caller looks up, e.g. ``dynamics.expm`` is what ``Propagator`` calls, and
``cli.evolve_rk4`` is what the ``evolve`` command calls.  ``uninstall`` puts
the original objects back.  Spans stay in memory until ``write``.

``layer_metrics`` turns spans into the per-layer numbers.  A layer's self
time is its span minus its direct child spans.  A counter of a call that no
longer happens reads 0 and is reported as "path absent", never as a gain.
"""

import math
from collections import defaultdict
from time import perf_counter

import numpy as np


def _batch_points(args, kwargs):
    times = args[2] if len(args) > 2 else kwargs["times"]
    return int(np.size(times))


def _rk4_steps(args, kwargs):
    t = args[2] if len(args) > 2 else kwargs["t"]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    dt = cfg.dt if cfg is not None else 1e-3
    return math.ceil(t / dt - 1e-9)


def targets():
    """(owner, attribute, span name, size function) for every wrapped call."""
    from hybridlg import blochsol, cli, dynamics, fit, lgi, macrorealism, spectrum

    return [
        (cli, "main", "cli.main", None),
        (lgi, "optimize_k3", "lgi.optimize_k3", None),
        (lgi, "correlators", "lgi.correlators", None),
        (dynamics.Propagator, "__init__", "dynamics.Propagator.build", None),
        (dynamics.Propagator, "states", "dynamics.Propagator.states", _batch_points),
        (dynamics, "expm", "dynamics.expm", None),
        (dynamics, "schur", "dynamics.schur", None),
        (dynamics, "build_liouvillian", "spectrum.build_liouvillian", None),
        (spectrum, "build_liouvillian", "spectrum.build_liouvillian", None),
        (dynamics, "evolve_rk4", "dynamics.evolve_rk4", _rk4_steps),
        (lgi, "evolve_rk4", "dynamics.evolve_rk4", _rk4_steps),
        (cli, "evolve_rk4", "dynamics.evolve_rk4", _rk4_steps),
        (macrorealism, "joint_probabilities", "macrorealism.joint_probabilities", None),
        (macrorealism, "check_nsit", "macrorealism.check_nsit", None),
        (blochsol, "analytic_branch", "blochsol.analytic_branch", None),
        (fit, "residual_report", "fit.residual_report", None),
        (fit, "select_log_base", "fit.select_log_base", None),
    ]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, request, size]."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []
        self._patches = []

    def install(self, wrap_targets):
        for owner, attr, name, size in wrap_targets:
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, size))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                    size(args, kwargs) if size else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return wrapper

    def write(self, path):
        with open(path, "w") as handle:
            handle.write("name,start,end,parent,request,size\n")
            for name, start, end, parent, request, size in self.spans:
                handle.write(f"{name},{start!r},{end!r},{parent},{request},{size}\n")


def tail_rank(count):
    """(percentile, index into the ascending sort) of the highest percentile
    with at least 10 samples beyond it; the maximum when count <= 10."""
    if count <= 10:
        return 100.0, count - 1
    return 100.0 * (count - 10) / count, count - 11


#: per-layer metrics: (name, unit, layer whose calls decide "path absent")
LAYER_METRICS = [
    ("lgi.optimize_k3.calls", "count", "lgi.optimize_k3"),
    ("lgi.optimize_k3.self_s", "s", "lgi.optimize_k3"),
    ("lgi.optimize_k3.ms.p50", "ms", "lgi.optimize_k3"),
    ("lgi.optimize_k3.ms.tail", "ms", "lgi.optimize_k3"),
    ("dynamics.Propagator.states.calls", "count", "dynamics.Propagator.states"),
    ("dynamics.Propagator.states.points", "count", "dynamics.Propagator.states"),
    ("dynamics.Propagator.states.self_s", "s", "dynamics.Propagator.states"),
    ("lgi.coarse.points", "count", "lgi.coarse"),
    ("lgi.coarse.batch_max", "count", "lgi.coarse"),
    ("lgi.refine.evals", "count", "lgi.refine.evals"),
    ("lgi.refine.candidates", "count", "lgi.refine.candidates"),
    ("lgi.refine.useful_ratio", "ratio", "lgi.refine.candidates"),
    ("dynamics.expm_fallback.calls", "count", "dynamics.expm_fallback"),
    ("dynamics.expm_fallback.s", "s", "dynamics.expm_fallback"),
    ("dynamics.schur.calls", "count", "dynamics.schur"),
    ("dynamics.Propagator.builds", "count", "dynamics.Propagator.build"),
    ("dynamics.Propagator.build_s", "s", "dynamics.Propagator.build"),
    ("spectrum.build_liouvillian.calls", "count", "spectrum.build_liouvillian"),
    ("spectrum.build_liouvillian.s", "s", "spectrum.build_liouvillian"),
    ("macrorealism.joint_probabilities.calls", "count", "macrorealism.joint_probabilities"),
    ("macrorealism.joint_probabilities.self_s", "s", "macrorealism.joint_probabilities"),
    ("macrorealism.check_nsit.s", "s", "macrorealism.check_nsit"),
    ("cli.main.calls", "count", "cli.main"),
    ("cli.main.self_s", "s", "cli.main"),
    ("lgi.correlators.calls", "count", "lgi.correlators"),
    ("lgi.correlators.s", "s", "lgi.correlators"),
    ("dynamics.evolve_rk4.calls", "count", "dynamics.evolve_rk4"),
    ("dynamics.evolve_rk4.steps", "count", "dynamics.evolve_rk4"),
    ("dynamics.evolve_rk4.self_s", "s", "dynamics.evolve_rk4"),
    ("blochsol.analytic_branch.calls", "count", "blochsol.analytic_branch"),
    ("blochsol.analytic_branch.s", "s", "blochsol.analytic_branch"),
    ("fit.residual_report.calls", "count", "fit.residual_report"),
    ("fit.residual_report.s", "s", "fit.residual_report"),
    ("fit.select_log_base.s", "s", "fit.select_log_base"),
]


def layer_metrics(spans):
    """Aggregate spans into {metric name: value} plus the calls per layer.

    ``Propagator.states`` batches issued directly by ``optimize_k3`` are split
    by width: 1 point is one golden-section evaluation (3 batches per K3
    value), 9 points one candidate rescan (3 batches per candidate), wider
    ones the coarse scan.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    points = defaultdict(int)
    durations = defaultdict(list)
    coarse_max = 0
    for index, (name, start, end, parent, _, size) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else ""
        layer = name
        if name == "dynamics.expm" and parent_name == "dynamics.Propagator.states":
            layer = "dynamics.expm_fallback"
        calls[layer] += 1
        total[layer] += end - start
        self_time[layer] += end - start - children[index]
        points[layer] += size
        durations[layer].append(end - start)
        if name == "dynamics.Propagator.states" and parent_name == "lgi.optimize_k3":
            if size == 1:
                calls["lgi.refine.evals"] += 1
            elif size == 9:
                calls["lgi.refine.candidates"] += 1
            else:
                calls["lgi.coarse"] += 1
                points["lgi.coarse"] += size
                coarse_max = max(coarse_max, size)

    def latency_ms(layer, tail):
        values = sorted(durations[layer])
        if not values:
            return 0.0
        if not tail:
            return 1e3 * float(np.median(values))
        return 1e3 * values[tail_rank(len(values))[1]]

    candidates = calls["lgi.refine.candidates"] // 3
    metrics = {
        "lgi.optimize_k3.calls": calls["lgi.optimize_k3"],
        "lgi.optimize_k3.self_s": self_time["lgi.optimize_k3"],
        "lgi.optimize_k3.ms.p50": latency_ms("lgi.optimize_k3", False),
        "lgi.optimize_k3.ms.tail": latency_ms("lgi.optimize_k3", True),
        "dynamics.Propagator.states.calls": calls["dynamics.Propagator.states"],
        "dynamics.Propagator.states.points": points["dynamics.Propagator.states"],
        "dynamics.Propagator.states.self_s": self_time["dynamics.Propagator.states"],
        "lgi.coarse.points": points["lgi.coarse"],
        "lgi.coarse.batch_max": coarse_max,
        "lgi.refine.evals": calls["lgi.refine.evals"] // 3,
        "lgi.refine.candidates": candidates,
        "lgi.refine.useful_ratio": (calls["lgi.optimize_k3"] / candidates
                                    if candidates else 0.0),
        "dynamics.expm_fallback.calls": calls["dynamics.expm_fallback"],
        "dynamics.expm_fallback.s": total["dynamics.expm_fallback"],
        "dynamics.schur.calls": calls["dynamics.schur"],
        "dynamics.Propagator.builds": calls["dynamics.Propagator.build"],
        "dynamics.Propagator.build_s": total["dynamics.Propagator.build"],
        "spectrum.build_liouvillian.calls": calls["spectrum.build_liouvillian"],
        "spectrum.build_liouvillian.s": total["spectrum.build_liouvillian"],
        "macrorealism.joint_probabilities.calls":
            calls["macrorealism.joint_probabilities"],
        "macrorealism.joint_probabilities.self_s":
            self_time["macrorealism.joint_probabilities"],
        "macrorealism.check_nsit.s": total["macrorealism.check_nsit"],
        "cli.main.calls": calls["cli.main"],
        "cli.main.self_s": self_time["cli.main"],
        "lgi.correlators.calls": calls["lgi.correlators"],
        "lgi.correlators.s": total["lgi.correlators"],
        "dynamics.evolve_rk4.calls": calls["dynamics.evolve_rk4"],
        "dynamics.evolve_rk4.steps": points["dynamics.evolve_rk4"],
        "dynamics.evolve_rk4.self_s": self_time["dynamics.evolve_rk4"],
        "blochsol.analytic_branch.calls": calls["blochsol.analytic_branch"],
        "blochsol.analytic_branch.s": total["blochsol.analytic_branch"],
        "fit.residual_report.calls": calls["fit.residual_report"],
        "fit.residual_report.s": total["fit.residual_report"],
        "fit.select_log_base.s": total["fit.select_log_base"],
    }
    return metrics, dict(calls)
