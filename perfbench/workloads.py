"""Seeded request lists for the benchmark workloads.

Every input the program sees is a command line built here from the workload
name and the seed; nothing else varies between runs.  Floats enter argv
through ``repr`` so the same seed gives byte-identical argv.  Output files go
to relative paths under ``WORK_DIR`` (the benchmark runs from the checkout
root), which keeps argv independent of where the checkout lives.

Why each workload exists is recorded in ``perfbench/README.md`` and in the
``why`` fields of ``BENCHMARK.json``.
"""

import math
import random
from dataclasses import dataclass

WORK_DIR = ".perfbench_work"

#: default sweep domain of the CLI: 40 lin gamma x 25 log q
GAMMA_DOMAIN = (0.05, 5.0, 40)
Q_LOG10_DOMAIN = (-6.0, 0.0, 25)
#: landscape requests per pass, 5 gamma rows each: about a second of work each
LANDSCAPE_BANDS = 8

#: nsit_map grid, sized so one pass takes a few seconds with two workers
NSIT_GAMMA = (0.05, 3.0, 100)
NSIT_Q_LOG10 = (-6.0, 0.0, 100)
#: nsit_map requests per pass, 10 gamma rows each: about half a second each
NSIT_BANDS = 10

NEAR_LOCUS_CELLS = 36
CROSSVAL_CELLS = 12


@dataclass(frozen=True)
class Request:
    """One client request: CLI calls run back to back in one closed loop step.

    ``cells`` is the number of result cells the request completes; ``check``
    holds what the oracle needs to verify its output files.
    """

    calls: tuple
    cells: int
    check: dict


def r_ep(q: float) -> float:
    """Root r >= 1 of 4 (r^2 - 1)^3 = 27 q^2 r^2, by bisection."""
    if q == 0.0:
        return 1.0
    lo, hi = 1.0, 2.0
    while 4.0 * (hi * hi - 1.0) ** 3 < 27.0 * q * q * hi * hi:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if 4.0 * (mid * mid - 1.0) ** 3 < 27.0 * q * q * mid * mid:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _shifted(lo, hi, n, fraction):
    """n points inside [lo, hi], offset from the default grid by a sub-spacing
    fraction: the first point moves up by fraction * spacing, the last one
    down by (1 - fraction) * spacing."""
    spacing = (hi - lo) / (n - 1)
    return lo + fraction * spacing, hi - (1.0 - fraction) * spacing


def _stratified(rng, n, lo=0.0, hi=1.0):
    """One uniform draw per equal slice of [lo, hi], in shuffled order.

    Keeps the spread of work between seeds small while every value stays
    seed-dependent.
    """
    values = [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _path(workload, name):
    return f"{WORK_DIR}/{workload}/{name}"


def _bands(lo, hi, n, count):
    """Split the n-point lin grid lo:hi:n into ``count`` strided lin grids.

    Band k holds points k, k + count, k + 2 count, ... of the grid, so every
    band spans the whole range and the bands cost about the same.
    """
    spacing = (hi - lo) / (n - 1)
    last = n - count
    return [(lo + k * spacing, lo + (k + last) * spacing) for k in range(count)]


def landscape(seed, workers=1):
    """Default-domain sweep (1000 cells) in bands, each with its fit-check.

    Each request sweeps one of LANDSCAPE_BANDS strided bands of the default
    gamma grid over all 25 q points and runs ``fit-check --log-base auto`` on
    the file it wrote.  Splitting the sweep lets the host-speed reference be
    timed between requests, about once a second.
    """
    rng = random.Random(f"landscape:{seed}")
    g_lo, g_hi = _shifted(GAMMA_DOMAIN[0], GAMMA_DOMAIN[1], GAMMA_DOMAIN[2],
                          rng.random())
    e_lo, e_hi = _shifted(Q_LOG10_DOMAIN[0], Q_LOG10_DOMAIN[1],
                          Q_LOG10_DOMAIN[2], rng.random())
    grid_q = f"{10.0 ** e_lo!r}:{10.0 ** e_hi!r}:{Q_LOG10_DOMAIN[2]}:log"
    rows = GAMMA_DOMAIN[2] // LANDSCAPE_BANDS
    cells = rows * Q_LOG10_DOMAIN[2]
    requests = []
    for band, (lo, hi) in enumerate(_bands(g_lo, g_hi, GAMMA_DOMAIN[2],
                                           LANDSCAPE_BANDS)):
        sweep_out = _path("landscape", f"sweep_{band}.csv")
        fit_out = _path("landscape", f"fit_{band}.csv")
        calls = (
            ("sweep", "--grid-gamma", f"{lo!r}:{hi!r}:{rows}",
             "--grid-q", grid_q, "--resolution", "2000", "--workers", str(workers),
             "--out", sweep_out),
            ("fit-check", "--in", sweep_out, "--log-base", "auto",
             "--out", fit_out),
        )
        requests.append(Request(calls, cells, {
            "kind": "landscape", "sweep": sweep_out, "fit": fit_out,
            "cells": cells, "J": 1.0, "resolution": 2000, "sample": 2,
        }))
    return requests


def coalescence(seed, workers=1):
    """k3 --optimize on and next to the eigenvalue-coalescence locus.

    J is a power of two, so gamma = J * r keeps gamma / J exact.  The seed
    draws J from two neighbouring powers for every cell but the two
    defective ones, whose J stays 1: the refinement tolerance is absolute in
    t, so the (J, 0) cell, most of a pass's time, costs about 15 % more at
    J = 1 than at J = 2, and a draw would split seeds into two groups.
    """
    rng = random.Random(f"coalescence:{seed}")
    J = 2.0 ** rng.choice((0, 1))
    cells = [(1.0, 0.0, 1.0), (2.0, 1.0, 1.0),
             (0.0, rng.random(), J), (0.0, rng.random(), J)]
    qs = _stratified(rng, NEAR_LOCUS_CELLS)
    exponents = _stratified(rng, NEAR_LOCUS_CELLS, -12.0, -2.0)
    for q, exponent in zip(qs, exponents):
        delta = math.copysign(10.0 ** exponent, rng.random() - 0.5)
        cells.append((J * (r_ep(q) * (1.0 + delta)), q, J))
    requests = []
    for index, (gamma, q, coupling) in enumerate(cells):
        out = _path("coalescence", f"k3_{index:02d}.csv")
        argv = ("k3", "--gamma", repr(gamma), "--q", repr(q), "--J", repr(coupling),
                "--optimize", "--out", out)
        requests.append(Request((argv,), 1, {
            "kind": "k3_optimize", "gamma": gamma, "q": q, "J": coupling,
            "out": out, "resolution": 2000,
        }))
    return requests


def nsit_map(seed, workers=2):
    """A dense nsit map at a seeded interval T, one strided band per request."""
    rng = random.Random(f"nsit_map:{seed}")
    t = 0.5 + 2.5 * rng.random()
    g_lo, g_hi = _shifted(NSIT_GAMMA[0], NSIT_GAMMA[1], NSIT_GAMMA[2],
                          rng.random())
    e_lo, e_hi = _shifted(NSIT_Q_LOG10[0], NSIT_Q_LOG10[1], NSIT_Q_LOG10[2],
                          rng.random())
    grid_q = f"{10.0 ** e_lo!r}:{10.0 ** e_hi!r}:{NSIT_Q_LOG10[2]}:log"
    rows = NSIT_GAMMA[2] // NSIT_BANDS
    cells = rows * NSIT_Q_LOG10[2]
    requests = []
    for band, (lo, hi) in enumerate(_bands(g_lo, g_hi, NSIT_GAMMA[2], NSIT_BANDS)):
        out = _path("nsit_map", f"nsit_{band}.csv")
        argv = ("nsit", "--grid-gamma", f"{lo!r}:{hi!r}:{rows}",
                "--grid-q", grid_q, "--t", repr(t), "--workers", str(workers),
                "--out", out)
        requests.append(Request((argv,), cells, {
            "kind": "nsit", "out": out, "t": t, "cells": cells, "J": 1.0,
            "sample": 30,
        }))
    return requests


def crossval(seed, workers=1):
    """RK4 k3, RK4 evolve and closed-form bloch-traj per seeded cell.

    Each CLI call is its own request; a cell is complete after its third.
    """
    rng = random.Random(f"crossval:{seed}")
    gammas = _stratified(rng, CROSSVAL_CELLS, 0.1, 2.0)
    log_qs = _stratified(rng, CROSSVAL_CELLS, -2.0, 0.0)
    ts = _stratified(rng, CROSSVAL_CELLS, 1.5, 2.5)
    requests = []
    for index, (gamma, log_q, t) in enumerate(zip(gammas, log_qs, ts)):
        q = 10.0 ** log_q
        point = ("--gamma", repr(gamma), "--q", repr(q))
        k3_out = _path("crossval", f"k3_{index}.csv")
        evolve_out = _path("crossval", f"evolve_{index}.csv")
        bloch_out = _path("crossval", f"bloch_{index}.csv")
        base = {"gamma": gamma, "q": q, "J": 1.0, "cell": index}
        requests += [
            Request((("k3", *point, "--engine", "rk4", "--t", repr(t),
                      "--dt", "1e-3", "--out", k3_out),), 0,
                    {**base, "kind": "k3_at", "t": t, "out": k3_out}),
            Request((("evolve", *point, "--engine", "rk4", "--t-max", "20",
                      "--dt", "1e-3", "--out", evolve_out),), 0,
                    {**base, "kind": "evolve", "t_max": 20.0, "samples": 201,
                     "out": evolve_out}),
            Request((("bloch-traj", *point, "--out", bloch_out),), 1,
                    {**base, "kind": "bloch", "t_max": 10.0, "samples": 201,
                     "out": bloch_out}),
        ]
    return requests


WORKLOADS = {
    "landscape": landscape,
    "coalescence": coalescence,
    "nsit_map": nsit_map,
    "crossval": crossval,
}

#: process-pool size each workload asks the program for in untraced runs
POOL_WORKERS = {"landscape": 1, "coalescence": 1, "nsit_map": 2, "crossval": 1}


def requests(workload, seed, traced=False):
    """Request list of one pass; traced runs force one worker process.

    Requests whose ``check`` carries the same ``"cell"`` complete one cell
    together; any other request owns its ``cells`` alone.
    """
    workers = 1 if traced else POOL_WORKERS[workload]
    return WORKLOADS[workload](seed, workers=workers)
