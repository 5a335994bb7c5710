"""The output corpus: about 20 CLI requests and the data rows they wrote,
pinned as float64 arrays so that a change of any value can be measured.

Each request is run in this process through ``hybridlg.cli.main`` with CSV
output.  Its numeric columns are stored as float64 arrays, its text columns
(``error``, ``region``, ``branch``) as strings, together with the exit code
and the numbers of the metadata line (the optimum of ``k3 --optimize``, the
summary of ``fit-check``).  One ``.npz`` per request lives next to this file.

``tests/test_corpus.py`` reruns the requests and requires exact equality.
A change that moves output values regenerates the arrays and states the
drift that this script prints, per request and column:

    PYTHONPATH=src python tests/corpus/regen.py

Exact equality ties the corpus to one numpy/BLAS build; on another build the
drift table shows how far the numbers moved.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: r_ep(0.7) of ``spectrum.ep_radius``, the coalescence locus at q = 0.7
_R_EP_07 = "1.7872528623376915"

#: name -> argv; "{sweep_default}" is the path that request wrote
REQUESTS = {
    "sweep_default": ["sweep"],
    "sweep_fallback": ["sweep", "--grid-gamma", "0:2:21", "--grid-q", "0:1:11"],
    "sweep_fallback_workers2": ["sweep", "--grid-gamma", "0:2:21",
                                "--grid-q", "0:1:11", "--workers", "2"],
    "sweep_theta1": ["sweep", "--theta", "1.0", "--grid-gamma", "0:5:11",
                     "--grid-q", "1e-6:1:7:log"],
    "nsit_t1": ["nsit", "--t", "1"],
    "nsit_t40_minus": ["nsit", "--t", "40", "--q0", "-1", "--q2", "-1"],
    "nsit_t40_minus_workers2": ["nsit", "--t", "40", "--q0", "-1", "--q2", "-1",
                                "--workers", "2"],
    "nsit_maximize": ["nsit", "--maximize-over-t", "--grid-gamma", "0:3:13",
                      "--grid-q", "1e-6:1:10:log"],
    "nsit_maximize_masked": ["nsit", "--maximize-over-t",
                             "--grid-gamma", "0.9:2:2", "--grid-q", "0:1:2",
                             "--t-max", "3000", "--resolution", "1"],
    "k3_optimize_fourfold": ["k3", "--optimize", "--gamma", "1", "--q", "0"],
    "k3_optimize_defective": ["k3", "--optimize", "--gamma", "2", "--q", "1"],
    "k3_optimize_unitary": ["k3", "--optimize", "--gamma", "0", "--q", "0.5"],
    "k3_optimize_locus": ["k3", "--optimize", "--gamma", _R_EP_07,
                          "--q", "0.7"],
    "k3_optimize_near_ep": ["k3", "--optimize", "--gamma", "0.9905",
                            "--q", "1e-6"],
    "k3_t_exact": ["k3", "--t", "1.3", "--gamma", "0.5", "--q", "0.3"],
    "k3_t_rk4": ["k3", "--t", "1.3", "--gamma", "0.5", "--q", "0.3",
                 "--engine", "rk4"],
    "evolve_exact": ["evolve", "--gamma", "0.5", "--q", "0.3"],
    "evolve_exact_defective": ["evolve", "--gamma", "2", "--q", "1"],
    "evolve_rk4": ["evolve", "--gamma", "0.5", "--q", "0.3",
                   "--engine", "rk4"],
    "bloch_traj": ["bloch-traj", "--gamma", "0.5", "--q", "0.3"],
    "spectrum": ["spectrum", "--grid-gamma", "0:3:7", "--grid-q", "0:1:5"],
    "ep_locus": ["ep-locus"],
    "fit_check": ["fit-check", "--in", "{sweep_default}"],
}

#: metadata entries that carry output numbers
_META_NUMBERS = ("k3_max", "t_star", "max_residual", "median_residual")


def _arrays(path, code):
    """The arrays of one CSV output: ``col:<name>`` per column, ``meta:<key>``
    per number of the metadata line, and ``exit``."""
    lines = path.read_text().splitlines() if path.exists() else []
    meta = json.loads(lines[0][2:]) if lines else {}
    header = lines[1].split(",") if len(lines) > 1 else []
    cells = [line.split(",") for line in lines[2:] if line]
    out = {"exit": np.array(code)}
    for k, name in enumerate(header):
        column = [row[k] for row in cells]
        try:
            out[f"col:{name}"] = np.array([float(v) for v in column])
        except ValueError:
            out[f"col:{name}"] = np.array(column, dtype=str)
    for key in _META_NUMBERS:
        if key in meta:
            out[f"meta:{key}"] = np.array(float(meta[key]))
    return out


def run_requests(workdir):
    """name -> arrays of every request, run in order in this process."""
    from hybridlg import cli

    workdir = Path(workdir)
    paths = {name: workdir / f"{name}.csv" for name in REQUESTS}
    results = {}
    for name, argv in REQUESTS.items():
        argv = [arg.format(**paths) for arg in argv]
        code = cli.main([*argv, "--out", str(paths[name])])
        results[name] = _arrays(paths[name], code)
    return results


def load():
    """name -> arrays of the stored corpus; a request with no stored file is
    left out, so :func:`drift` lists its arrays as added."""
    stored = {}
    for name in REQUESTS:
        if not (HERE / f"{name}.npz").exists():
            continue
        with np.load(HERE / f"{name}.npz", allow_pickle=False) as data:
            stored[name] = {key: data[key] for key in data.files}
    return stored


def _ulps(a, b):
    """|a - b| in units in the last place of the larger magnitude."""
    with np.errstate(invalid="ignore"):
        return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


def drift(stored, fresh):
    """One line per request and array that differs, as a markdown table row:
    how many entries moved, and the largest absolute and ulp drift."""
    lines = []
    for name in fresh:
        old, new = stored.get(name, {}), fresh[name]
        for key in sorted(set(old) | set(new)):
            if key not in old or key not in new:
                lines.append(f"| {name} | {key} | {'added' if key in new else 'removed'} | | |")
                continue
            a, b = old[key], new[key]
            if a.shape != b.shape:
                lines.append(f"| {name} | {key} | shape {a.shape} -> {b.shape} | | |")
                continue
            if a.dtype.kind != "f" or b.dtype.kind != "f":
                moved = a != b
                if moved.any():
                    lines.append(f"| {name} | {key} | {int(moved.sum())} of {a.size} | text | |")
                continue
            same = (a == b) | (np.isnan(a) & np.isnan(b))
            if same.all():
                continue
            both = ~same & np.isfinite(a) & np.isfinite(b)
            absolute = np.abs(a - b)[both].max(initial=0.0)
            ulps = _ulps(a, b)[both].max(initial=0.0)
            finite = "" if both.sum() == (~same).sum() else " (some not finite)"
            lines.append(f"| {name} | {key} | {int((~same).sum())} of {a.size}"
                         f"{finite} | {absolute:.2g} | {ulps:.3g} |")
    return lines


def format_table(lines):
    if not lines:
        return "every stored array is unchanged"
    return "\n".join(["| request | array | moved | max abs | max ulp |",
                      "|---|---|---|---|---|", *lines])


def main():
    """Print the drift table, then rewrite the ``.npz`` of each request that
    is new or moved; an unchanged request keeps its file."""
    with tempfile.TemporaryDirectory() as workdir:
        fresh = run_requests(workdir)
    stored = load()
    print(format_table(drift(stored, fresh)))
    moved = [name for name in REQUESTS if drift(stored, {name: fresh[name]})]
    for name in moved:
        np.savez_compressed(HERE / f"{name}.npz", **fresh[name])
    print(f"wrote {len(moved)} of {len(fresh)} requests to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
