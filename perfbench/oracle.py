"""Independent oracle for every output the benchmark checks.

The 4x4 generator is assembled column by column from the master equation

    drho/dt = -i[H, rho] + 2 gamma (q L rho L^+ - {L^+ L, rho} / 2),

H = -(J/2) sigma_x, L = |up><down|, applied to the four matrix units, so it
shares no code with ``spectrum.build_liouvillian``.  States come from
``scipy.linalg.expm``.  A scan over many times steps by powers of one expm
(relative error about n * 1e-16, far below the 1e-8 tolerance); single
times use expm directly.

Each ``check_*`` function reads the files one request wrote and returns its
failures as ``(cell, reason)`` pairs; cell ``None`` fails the whole file.
"""

import json
import math

import numpy as np
from scipy.linalg import expm

#: tolerance of every value comparison: absolute for values up to 1 in
#: magnitude, relative above (the approximate reduced system of bloch-traj
#: grows its unnormalized R to about 1e6, where one ulp is already 1e-10)
TOL = 1e-8
#: AoT identities hold exactly; their defect must stay at roundoff
AOT_TOL = 1e-10
#: trace floors of the program: optimizer/sweep and observation points
SWEEP_FLOOR = 1e-250
POINT_FLOOR = 1e-12

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_L = np.array([[0, 1], [0, 0]], dtype=complex)
_LDL = _L.conj().T @ _L
P_PLUS = 0.5 * np.array([[1, -1j], [1j, 1]], dtype=complex)
P_MINUS = 0.5 * np.array([[1, 1j], [-1j, 1]], dtype=complex)


def generator(gamma, q, J):
    """Vectorized (row-major) generator of the master equation at theta = pi/2."""
    H = -(J / 2.0) * _SX
    G = np.empty((4, 4), dtype=complex)
    for k in range(4):
        rho = np.zeros(4, dtype=complex)
        rho[k] = 1.0
        rho = rho.reshape(2, 2)
        drho = -1j * (H @ rho - rho @ H) + 2.0 * gamma * (
            q * (_L @ rho @ _L.conj().T) - 0.5 * (_LDL @ rho + rho @ _LDL))
        G[:, k] = drho.reshape(4)
    return G


def _trace(v):
    return (v[..., 0] + v[..., 3]).real


def _sy(v):
    # Tr(rho sigma_y) = i (rho_01 - rho_10)
    return (1j * (v[..., 1] - v[..., 2])).real


def states_at(G, rho0, times):
    """vec(rho(t)) = expm(G t) vec(rho0) for each t; shape (len(times), 4)."""
    v0 = np.asarray(rho0, dtype=complex).reshape(4)
    return np.array([expm(G * float(t)) @ v0 for t in times])


def states_on_grid(G, rho0, step, n):
    """vec(rho(k * step)) for k = 1..n by powers of expm(G * step)."""
    U = expm(G * step)
    v = np.asarray(rho0, dtype=complex).reshape(4)
    out = np.empty((n, 4), dtype=complex)
    for k in range(n):
        v = U @ v
        out[k] = v
    return out


def k3_from_states(plus_t, minus_t, plus_2t):
    """Correlators and K3 from branch states; NaN where a trace is below the
    optimizer's floor."""
    traces = np.stack([_trace(plus_t), _trace(minus_t), _trace(plus_2t)])
    valid = np.all(traces >= SWEEP_FLOOR, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        c01 = _sy(plus_t) / traces[0]
        sy_minus = _sy(minus_t) / traces[1]
        c02 = _sy(plus_2t) / traces[2]
    p_plus = 0.5 * (1.0 + c01)
    p_minus = 0.5 * (1.0 - c01)
    c12 = c01 * p_plus - sy_minus * p_minus
    out = {"c01": c01, "c12": c12, "c02": c02, "k3": c01 + c12 - c02,
           "p_plus": p_plus, "p_minus": p_minus}
    return {k: np.where(valid, v, np.nan) for k, v in out.items()}, valid


def k3_at(G, t):
    plus = states_at(G, P_PLUS, [t, 2.0 * t])
    minus = states_at(G, P_MINUS, [t])
    values, _ = k3_from_states(plus[:1], minus, plus[1:])
    return {k: float(v[0]) for k, v in values.items()}


def k3_grid_max(G, horizon, n):
    """Largest oracle K3 on the program's coarse grid, or NaN if all extinct."""
    step = horizon / n
    plus = states_on_grid(G, P_PLUS, step, 2 * n)
    minus = states_on_grid(G, P_MINUS, step, n)
    values, valid = k3_from_states(plus[:n], minus, plus[1::2])
    return float(np.max(values["k3"][valid])) if valid.any() else math.nan


def read_csv(path):
    """(metadata, header, rows of strings) of a CLI CSV file."""
    metadata, header, rows = {}, None, []
    with open(path) as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("# "):
                metadata = json.loads(line[2:])
            elif header is None:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return metadata, header, rows


def _close(actual, expected, tol=TOL):
    return abs(actual - expected) <= tol * max(1.0, abs(expected))


def check_optimum(G, k3_max, t_star, J, resolution):
    """Reasons a reported K3 maximum disagrees with the oracle ([] if none)."""
    grid_max = k3_grid_max(G, 20.0 / J, resolution)
    if math.isnan(grid_max) or math.isnan(k3_max):
        if math.isnan(grid_max) and math.isnan(k3_max):
            return []
        return [f"masked mismatch: reported {k3_max!r}, oracle grid max {grid_max!r}"]
    reasons = []
    oracle = k3_at(G, t_star)["k3"]
    if not _close(k3_max, oracle):
        reasons.append(f"k3_max {k3_max!r} vs oracle {oracle!r} at t*={t_star!r}")
    if grid_max > k3_max + TOL:
        reasons.append(f"oracle grid point {grid_max!r} beats k3_max {k3_max!r}")
    return reasons


def expected_exit_k3_optimize(check):
    G = generator(check["gamma"], check["q"], check["J"])
    grid_max = k3_grid_max(G, 20.0 / check["J"], check["resolution"])
    # a fully extinguished cell has no t*, and k3 rejects t = NaN as usage
    return 64 if math.isnan(grid_max) else 0


def check_k3_optimize(check, rng=None):
    meta, header, rows = read_csv(check["out"])
    cell = (check["gamma"], check["q"])
    if len(rows) != 1:
        return [(cell, f"expected one row, got {len(rows)}")]
    row = dict(zip(header, map(float, rows[0])))
    G = generator(check["gamma"], check["q"], check["J"])
    k3_max, t_star = float(meta["k3_max"]), float(meta["t_star"])
    reasons = check_optimum(G, k3_max, t_star, check["J"], check["resolution"])
    if row["t"] != t_star:
        reasons.append(f"row t {row['t']!r} differs from t* {t_star!r}")
    oracle = k3_at(G, t_star)
    reasons += [f"{name} {row[name]!r} vs oracle {oracle[name]!r}"
                for name in oracle if not _close(row[name], oracle[name])]
    return [(cell, r) for r in reasons]


def check_landscape(check, rng):
    _, header, rows = read_csv(check["sweep"])
    failures = []
    if len(rows) != check["cells"]:
        return [(None, f"sweep has {len(rows)} rows, expected {check['cells']}")]
    sweep = [dict(zip(header, row)) for row in rows]
    _, fit_header, fit_rows = read_csv(check["fit"])
    if len(fit_rows) != len(sweep):
        failures.append((None, f"fit-check has {len(fit_rows)} rows for {len(sweep)} cells"))
    for cell, fit_row in zip(sweep, fit_rows):
        fit_cell = dict(zip(fit_header, fit_row))
        point = (float(cell["gamma"]), float(cell["q"]))
        computed, swept = float(fit_cell["k3_computed"]), float(cell["k3_max"])
        if (float(fit_cell["gamma"]), float(fit_cell["q"])) != point or not (
                computed == swept or (math.isnan(computed) and math.isnan(swept))):
            failures.append((point, "fit-check row does not carry the sweep value"))
    for cell in rng.sample(sweep, min(check["sample"], len(sweep))):
        gamma, q = float(cell["gamma"]), float(cell["q"])
        G = generator(gamma, q, check["J"])
        k3_max = float(cell["k3_max"])
        reasons = check_optimum(G, k3_max, float(cell["t_star"]), check["J"],
                                check["resolution"])
        if bool(cell["error"]) != math.isnan(k3_max):
            reasons.append(f"error column {cell['error']!r} with k3_max {k3_max!r}")
        failures += [((gamma, q), r) for r in reasons]
    return failures


def joint_defects(G, t):
    """(min branch trace, delta_01_2(+,+), delta_12(+), delta_02(+), AoT max)."""
    plus = states_at(G, P_PLUS, [t, 2.0 * t])
    minus = states_at(G, P_MINUS, [t, 2.0 * t])
    traces = np.concatenate([_trace(plus), _trace(minus)])
    sy = {+1: _sy(plus) / _trace(plus), -1: _sy(minus) / _trace(minus)}

    def prob(outcome, branch, index):
        # Tr(P_outcome rho~_branch) = (1 + outcome * sy) / 2
        return 0.5 * (1.0 + outcome * sy[branch][index])

    out = (+1, -1)
    single = {0: {+1: 1.0, -1: 0.0},
              1: {s: prob(s, +1, 0) for s in out},
              2: {s: prob(s, +1, 1) for s in out}}
    pair = {
        (0, 1): {(a, b): prob(b, a, 0) * single[0][a] for a in out for b in out},
        (0, 2): {(a, b): prob(b, a, 1) * single[0][a] for a in out for b in out},
        (1, 2): {(a, b): prob(b, a, 0) * single[1][a] for a in out for b in out},
    }
    triple = {(a, b, c): prob(c, b, 0) * prob(b, a, 0) * single[0][a]
              for a in out for b in out for c in out}

    def nsit_two(i, j, b):
        return abs(single[j][b] - sum(pair[(i, j)][(a, b)] for a in out))

    middle = abs(pair[(0, 2)][(1, 1)] - sum(triple[(1, b, 1)] for b in out))
    aot = max(
        max(abs(single[i][a] - sum(pair[(i, j)][(a, b)] for b in out))
            for (i, j) in pair for a in out),
        max(abs(pair[(0, 1)][(a, b)] - sum(triple[(a, b, c)] for c in out))
            for a in out for b in out),
    )
    return float(np.min(traces)), middle, nsit_two(1, 2, 1), nsit_two(0, 2, 1), aot


def check_nsit(check, rng):
    _, header, rows = read_csv(check["out"])
    if len(rows) != check["cells"]:
        return [(None, f"{len(rows)} rows, expected {check['cells']}")]
    failures = []
    for row in rng.sample(rows, min(check["sample"], len(rows))):
        cell = dict(zip(header, row))
        gamma, q, t = float(cell["gamma"]), float(cell["q"]), float(cell["t"])
        key = (gamma, q)
        if t != check["t"]:
            failures.append((key, f"t {t!r} differs from requested {check['t']!r}"))
            continue
        trace, middle, d12, d02, aot = joint_defects(
            generator(gamma, q, check["J"]), t)
        extinct = trace < POINT_FLOOR
        if abs(trace / POINT_FLOOR - 1.0) < 1e-6:
            continue  # on the floor itself either verdict is right
        if bool(cell["error"]) != extinct:
            failures.append((key, f"error {cell['error']!r}, oracle min trace {trace!r}"))
            continue
        if extinct:
            continue
        got = {k: float(cell[k]) for k in
               ("delta_01_2", "delta_12", "delta_02", "aot_defect")}
        failures += [(key, f"{name} {got[name]!r} vs oracle {want!r}")
                     for name, want in (("delta_01_2", middle), ("delta_12", d12),
                                        ("delta_02", d02))
                     if not _close(got[name], want)]
        if not (got["aot_defect"] <= AOT_TOL and aot <= AOT_TOL):
            failures.append((key, f"AoT defect {got['aot_defect']!r} (oracle {aot!r})"))
    return failures


def check_k3_at(check, rng=None):
    meta, header, rows = read_csv(check["out"])
    cell = (check["gamma"], check["q"])
    if len(rows) != 1:
        return [(cell, f"expected one row, got {len(rows)}")]
    row = dict(zip(header, map(float, rows[0])))
    oracle = k3_at(generator(check["gamma"], check["q"], check["J"]), check["t"])
    return [(cell, f"{name} {row[name]!r} vs oracle {oracle[name]!r}")
               for name in oracle if not _close(row[name], oracle[name])]


def _evolve_oracle(check):
    times = np.linspace(0.0, check["t_max"], check["samples"])
    states = states_at(generator(check["gamma"], check["q"], check["J"]),
                       P_PLUS, times)
    traces = _trace(states)
    extinct = np.flatnonzero(traces < POINT_FLOOR)
    kept = int(extinct[0]) if extinct.size else len(times)
    return times[:kept], states[:kept], (2 if extinct.size else 0)


def expected_exit_evolve(check):
    return _evolve_oracle(check)[2]


def check_evolve(check, rng=None):
    _, header, rows = read_csv(check["out"])
    cell = (check["gamma"], check["q"])
    times, states, _ = _evolve_oracle(check)
    if len(rows) != len(times):
        return [(cell, f"{len(rows)} rows, oracle keeps {len(times)}")]
    failures = []
    for t, v, row in zip(times, states, rows):
        got = dict(zip(header, map(float, row)))
        r = _trace(v)
        want = {
            "t": t, "rho00_re": v[0].real, "rho00_im": v[0].imag,
            "rho01_re": v[1].real, "rho01_im": v[1].imag,
            "rho10_re": v[2].real, "rho10_im": v[2].imag,
            "rho11_re": v[3].real, "rho11_im": v[3].imag, "r": r,
            "sx": (v[1] + v[2]).real / r, "sy": _sy(v) / r,
            "sz": (v[0] - v[3]).real / r,
        }
        failures += [(cell, f"{name} at t={t:g}: {got[name]!r} vs oracle {w!r}")
                     for name, w in want.items() if not _close(got[name], w)]
    return failures


def reduced_approximate(gamma, q, J):
    """Approximate (R, Sy, Sz) generator: the gamma q Sz couplings dropped."""
    g = gamma
    return np.array([[-g * (1 - q), 0.0, g],
                     [0.0, -g, J],
                     [g * (1 + q), -J, -g]])


def check_bloch(check, rng=None):
    _, header, rows = read_csv(check["out"])
    cell = (check["gamma"], check["q"])
    M = reduced_approximate(check["gamma"], check["q"], check["J"])
    times = np.linspace(0.0, check["t_max"], check["samples"])
    if len(rows) != 2 * len(times):
        return [(cell, f"{len(rows)} rows, expected {2 * len(times)}")]
    failures = []
    for index, row in enumerate(rows):
        branch, t = row[0], times[index % len(times)]
        v0 = np.array([1.0, 1.0 if branch == "+" else -1.0, 0.0])
        r, sy, sz = expm(M * t) @ v0
        got = dict(zip(header[1:], map(float, row[1:])))
        want = {"t": t, "r": r, "sy": sy / r, "sz": sz / r}
        if branch != ("+" if index < len(times) else "-"):
            failures.append((cell, f"row {index} has branch {branch!r}"))
        failures += [(cell, f"branch {branch} {name} at t={t:g}: "
                            f"{got[name]!r} vs oracle {w!r}")
                     for name, w in want.items() if not _close(got[name], w)]
    return failures


CHECKS = {
    "landscape": check_landscape,
    "k3_optimize": check_k3_optimize,
    "nsit": check_nsit,
    "k3_at": check_k3_at,
    "evolve": check_evolve,
    "bloch": check_bloch,
}

EXPECTED_EXIT = {
    "k3_optimize": expected_exit_k3_optimize,
    "evolve": expected_exit_evolve,
}


def expected_exit(check):
    """Exit code the oracle predicts for every CLI call of a request."""
    predict = EXPECTED_EXIT.get(check["kind"])
    return predict(check) if predict else 0
