import argparse
import contextlib
import errno
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_same_complex_sets
from hybridlg import dynamics, lgi
from hybridlg.cli import _fmt, _format_rows, _write, main
from hybridlg.model import ModelParams
from hybridlg.spectrum import build_liouvillian


def read_csv(path):
    metadata = None
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            metadata = json.loads(line[1:])
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return metadata, header, rows


def as_dicts(header, rows):
    return [dict(zip(header, row)) for row in rows]


def test_usage_errors_exit_64(tmp_path, capsys):
    assert main(["no-such-command"]) == 64
    assert main(["sweep", "--grid-gamma", "nonsense"]) == 64
    assert main(["k3", "--gamma", "0.5", "--q", "0.5"]) == 64  # no --t
    assert main(["nsit"]) == 64  # neither --t nor --maximize-over-t
    assert main(["evolve", "--gamma", "0.5", "--q", "0.5",
                 "--rho0", "1,0,0"]) == 64


@pytest.mark.parametrize("command", [
    ("evolve", "--gamma", "0.5", "--q", "1"),
    ("k3", "--gamma", "3", "--q", "0", "--t", "1e4"),
    ("sweep", "--grid-gamma", "0.5:1:2", "--grid-q", "0.5:1:2"),
    ("nsit", "--grid-gamma", "0.5:1:2", "--grid-q", "0.5:1:2", "--t", "1"),
])
@pytest.mark.parametrize("value", ["0", "-0.5", "nan"])
def test_trace_floor_not_above_zero_exits_64_before_output(
        tmp_path, capsys, command, value):
    out = tmp_path / "out.csv"
    assert main([*command, "--eps-trace", value, "--out", str(out)]) == 64
    assert "--eps-trace" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_optimizer_settings_exit_64(tmp_path, capsys):
    assert main(["k3", "--gamma", "0.5", "--q", "0.5", "--optimize",
                 "--resolution", "0"]) == 64
    assert main(["sweep", "--grid-gamma", "0.5:1:2", "--grid-q", "0.5:1:2",
                 "--resolution", "0"]) == 64
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid-gamma", "0.5:1:2", "--grid-q", "0.5:1:2",
                 "--t-max", "-3", "--resolution", "50",
                 "--out", str(out)]) == 64
    assert "t_max" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ("evolve", "--engine", "exact"), ("evolve", "--engine", "rk4"),
    ("bloch-traj",)])
@pytest.mark.parametrize("flag, value", [("--t-max", "-3"), ("--samples", "0")])
def test_negative_horizon_or_no_samples_exit_64_before_output(
        tmp_path, capsys, command, flag, value):
    out = tmp_path / "traj.csv"
    assert main([*command, "--gamma", "1", "--q", "0.5", flag, value,
                 "--out", str(out)]) == 64
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    # the third q point is out of range: the first two rows are computable
    (("spectrum", "--gamma", "0.5", "--grid-q", "0:2:3"), 64,
     "q must lie in [0, 1], got 2.0"),
    (("ep-locus", "--grid-q", "0:2:3"), 64, "expected q in [0, 1], got 2.0"),
    (("spectrum", "--gamma", "0.5", "--q", "0.5", "--J", "-1"), 64,
     "J must be >= 0, got -1.0"),
    # the closed form has no solution at gamma = 0 (a numeric failure), and
    # it serves only theta = pi/2 (a usage error)
    (("bloch-traj", "--gamma", "0", "--q", "0.5"), 70, "singular"),
    (("bloch-traj", "--gamma", "0.5", "--q", "0.5", "--theta", "1.0"), 64,
     "theta = pi/2"),
    (("sweep", "--grid-gamma", "0.5:1:2", "--grid-q", "1e-6:0:3:log"), 64,
     "--grid-q: log spacing requires min and max > 0"),
    # --optimize picks its own interval, so a --t beside it would be ignored
    (("k3", "--gamma", "0.5", "--q", "0.3", "--t", "1.0", "--optimize"), 64,
     "k3 requires exactly one of --t or --optimize"),
    # a point beside its grid would be ignored
    (("spectrum", "--gamma", "1", "--grid-gamma", "0:2:3", "--q", "0.5"), 64,
     "spectrum requires exactly one of --gamma or --grid-gamma"),
    (("spectrum", "--gamma", "1", "--q", "0.5", "--grid-q", "0:1:3"), 64,
     "spectrum requires exactly one of --q or --grid-q"),
    # a rate that overflows, where LAPACK would reject the generator
    (("k3", "--gamma", "1.7e308", "--q", "0.5", "--optimize"), 64,
     "||B||_F^2 overflows at gamma = 1.7e+308, q = 0.5, J = 1.0"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_command_writes_no_output(tmp_path, capsys, argv, code,
                                         message, fmt):
    out = tmp_path / f"out.{fmt}"
    assert main([*argv, "--format", fmt, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith({64: "usage error: ", 70: "numeric failure: "}[code])
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("k3", "--gamma", "0.5", "--q", "1", "--t", "inf"),
    ("k3", "--gamma", "0.5", "--q", "1", "--optimize", "--t-max", "inf"),
    ("nsit", "--grid-gamma", "0.5:1:2", "--grid-q", "0.5:1:2", "--t", "inf"),
    ("nsit", "--grid-gamma", "0.5:1:2", "--grid-q", "0.5:1:2",
     "--maximize-over-t", "--t-max", "inf"),
    ("evolve", "--gamma", "0.5", "--q", "1", "--t-max", "inf"),
    ("evolve", "--gamma", "0.5", "--q", "1", "--t-max", "inf",
     "--engine", "rk4"),
    ("bloch-traj", "--gamma", "0.5", "--q", "1", "--t-max", "inf"),
    ("sweep", "--grid-gamma", "0.5:1:2", "--grid-q", "0.5:1:2",
     "--t-max", "inf", "--resolution", "50"),
    # finite t whose 2t, read by every engine, overflows
    ("k3", "--gamma", "0.5", "--q", "1", "--t", "1e308"),
    ("nsit", "--grid-gamma", "0.5:1:2", "--grid-q", "0.5:1:2", "--t", "1e308"),
])
def test_infinite_times_exit_64_before_output(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 64
    assert "inf" in capsys.readouterr().err
    assert not out.exists()


def test_generator_too_large_to_square_is_one_usage_line(capsys):
    # B is finite, but decompose squares it: without the guard this cell
    # gave overflow warnings and an extinction exit (2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["k3", "--gamma", "1e308", "--q", "0", "--optimize"]) == 64
    assert capsys.readouterr() == ("", "usage error: ||B||_F^2 overflows at "
                                   "gamma = 1e+308, q = 0.0, J = 1.0\n")


class _ClosedPipe:
    """A stdout whose reader has gone, on the file descriptor ``fd``."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_stdout_exits_74_onto_the_null_device(tmp_path, capsys,
                                                     monkeypatch, fmt):
    sink = os.open(tmp_path / "sink", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink))
        assert main(["k3", "--gamma", "0.5", "--q", "0.3", "--t", "1",
                     "--format", fmt]) == 74
        # the descriptor now writes to the null device
        assert os.path.samestat(os.fstat(sink), os.stat(os.devnull))
    finally:
        os.close(sink)
    assert capsys.readouterr().err == ""


_SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(*argv):
    """stdout bytes of ``python *argv`` in a new interpreter on ``src/``."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          check=True, timeout=120).stdout


def test_reader_gone_before_the_write_ends_quietly():
    # the pipe's read end is closed before the interpreter has imported the
    # package, so every write, and the flush at exit, meets a closed pipe
    done = subprocess.Popen(
        [sys.executable, "-m", "hybridlg.cli", "sweep", "--grid-gamma",
         "0.5:1:3", "--grid-q", "0.5:1:3", "--resolution", "50"],
        env={**os.environ, "PYTHONPATH": str(_SRC)}, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    done.stdout.close()
    assert done.stderr.read() == b""
    assert done.wait(timeout=120) == 74
    done.stderr.close()

@pytest.mark.parametrize("argv", [
    ("k3", "--gamma", "inf", "--q", "0.5", "--t", "1"),
    ("evolve", "--gamma", "inf", "--q", "0.5"),
    ("k3", "--gamma", "0.5", "--q", "0.5", "--J", "inf", "--t", "1"),
])
def test_infinite_rate_or_scale_is_one_usage_line(argv):
    # a fresh interpreter, so that any warning would reach its stderr
    done = subprocess.run(
        [sys.executable, "-c", "import sys, hybridlg.cli; "
         "sys.exit(hybridlg.cli.main(sys.argv[1:]))", *argv],
        env={**os.environ, "PYTHONPATH": str(_SRC)}, capture_output=True,
        timeout=120)
    assert done.returncode == 64
    name = "J" if "--J" in argv else "gamma"
    assert done.stderr == f"usage error: {name} must be finite, got inf\n".encode()
    assert done.stdout == b""


def test_killed_pool_worker_exits_70_and_the_next_run_succeeds(tmp_path):
    out = tmp_path / "nsit.csv"
    script = f"""
import contextlib, io, os, signal, sys
import hybridlg.cli
from hybridlg import macrorealism

caller = os.getpid()

def killed(cells, *args):
    if os.getpid() != caller:  # the caller runs the first task itself
        os.kill(os.getpid(), signal.SIGKILL)
    return rows(cells, *args)

argv = ["nsit", "--t", "1", "--workers", "2", "--out", {str(out)!r}]
rows = macrorealism._nsit_rows
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    macrorealism._nsit_rows = killed
    codes.append(hybridlg.cli.main(argv))
    codes.append(os.path.exists(argv[-1]))
    macrorealism._nsit_rows = rows
    codes.append(hybridlg.cli.main(argv))
print(codes)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env={**os.environ, "PYTHONPATH": str(_SRC)},
                          check=True, timeout=60)
    # the failed map leaves no file; the next run writes every row
    assert done.stdout == b"[70, False, 0]\n"
    assert len(read_csv(out)[2]) == 400
    [line] = done.stderr.decode().splitlines()
    assert line.startswith("numeric failure: worker pool broken: ")


def test_import_and_a_plain_sweep_leave_scipy_unloaded():
    # no gamma = 0 cell on this grid, so no cell needs numerics.schur
    loaded = _fresh_python("-c", """
import contextlib, io, sys
import hybridlg.cli
hybridlg.cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    code = hybridlg.cli.main(["sweep", "--grid-gamma", "0.5:3:3",
                              "--grid-q", "0.1:0.9:3", "--resolution", "200"])
print(code, sorted(name for name in sys.modules
                  if name.split(".")[0] in ("scipy", "multiprocessing")))
""")
    assert loaded == b"0 []\n"


def test_fallback_cells_leave_scipy_unloaded():
    # (1, 0) and (2, 1) are the cells decompose cannot diagonalize: the
    # Newton form serves them without a matrix exponential.  evolve takes
    # the Newton form on every cell, so its gamma = 0 cell needs no Schur form
    loaded = _fresh_python("-c", """
import contextlib, io, sys
import hybridlg.cli
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["k3", "--gamma", "1", "--q", "0", "--optimize"],
                 ["k3", "--gamma", "2", "--q", "1", "--optimize"],
                 ["sweep", "--grid-gamma", "1:2:2", "--grid-q", "0:1:2"],
                 ["evolve", "--gamma", "0", "--q", "0.5"]):
        codes.append(hybridlg.cli.main(argv))
print(codes, sorted(name for name in sys.modules
                    if name.split(".")[0] == "scipy"))
""")
    assert loaded == b"[0, 0, 0, 0] []\n"


def test_pool_children_end_with_the_interpreter():
    # stdout is a pipe, as perfbench/run.py starts its worker: the run only
    # returns once no pool child holds it open.  A pool still running when
    # the interpreter tears down would print a ResourceWarning.
    script = """
import contextlib, io, json, multiprocessing
import hybridlg.cli
pids = []
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert hybridlg.cli.main(["nsit", "--t", "1", "--workers", "2"]) == 0
    pids.append(sorted(child.pid for child in multiprocessing.active_children()))
print(json.dumps(pids))
"""
    done = subprocess.run(
        [sys.executable, "-W", "always::ResourceWarning", "-c", script],
        env={**os.environ, "PYTHONPATH": str(_SRC)}, capture_output=True,
        check=True, timeout=60)
    assert done.stderr == b""
    first, second = json.loads(done.stdout)
    # one pool of workers - 1 for both runs
    assert len(first) == 1 and second == first
    for pid in first:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("gamma, q", [("1", "0"), ("2", "1"), ("0", "0.5")])
def test_scipy_loaded_on_first_use_gives_the_same_bytes(capsys, gamma, q):
    # gamma = 0 takes the Schur branch: a fresh interpreter imports scipy
    # inside the run, this one has it.  (1, 0) and (2, 1) take the Newton
    # form and load no scipy either way.
    import scipy.linalg  # noqa: F401

    argv = ["k3", "--gamma", gamma, "--q", q, "--optimize"]
    fresh = _fresh_python("-c", "import sys, hybridlg.cli; "
                          "sys.exit(hybridlg.cli.main(sys.argv[1:]))", *argv)
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == fresh


def test_unopenable_paths_exit_64(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["fit-check", "--in", str(missing)]) == 64
    assert str(missing) in capsys.readouterr().err
    nowhere = tmp_path / "no-such-dir" / "out.csv"
    assert main(["ep-locus", "--grid-q", "0:1:3", "--out", str(nowhere)]) == 64
    assert str(nowhere) in capsys.readouterr().err


def test_evolve_initial_row_and_metadata(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--gamma", "0.9905", "--q", "1", "--t-max", "5",
                 "--samples", "11", "--out", str(out)]) == 0
    metadata, header, rows = read_csv(out)
    assert metadata["tool"] == "hybridlg"
    assert metadata["config"]["gamma"] == 0.9905
    assert header[0] == "t"
    first = as_dicts(header, rows)[0]
    assert float(first["t"]) == 0.0
    assert float(first["r"]) == pytest.approx(1.0, abs=1e-15)
    assert float(first["sx"]) == pytest.approx(0.0, abs=1e-12)
    assert float(first["sy"]) == pytest.approx(1.0, abs=1e-12)
    assert float(first["sz"]) == pytest.approx(0.0, abs=1e-12)


def test_evolve_lindblad_keeps_unit_trace(tmp_path):
    out = tmp_path / "traj.csv"
    main(["evolve", "--gamma", "0.9905", "--q", "1", "--t-max", "30",
          "--samples", "61", "--out", str(out)])
    _, header, rows = read_csv(out)
    records = as_dicts(header, rows)
    assert len(records) == 61
    assert all(abs(float(r["r"]) - 1.0) <= 1e-9 for r in records)


def test_evolve_endpoint_distinguishes_conditioning(tmp_path):
    ends = {}
    for q in ("0", "1"):
        out = tmp_path / f"traj{q}.csv"
        main(["evolve", "--gamma", "0.9905", "--q", q, "--t-max", "12",
              "--samples", "25", "--out", str(out)])
        _, header, rows = read_csv(out)
        last = as_dicts(header, rows)[-1]
        ends[q] = np.array([float(last["sy"]), float(last["sz"])])
    assert np.linalg.norm(ends["0"] - ends["1"]) > 0.1


def test_evolve_extinction_flushes_and_exits_2(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = main(["evolve", "--gamma", "0.9905", "--q", "0", "--t-max", "60",
                 "--samples", "61", "--out", str(out)])
    assert code == 2
    _, header, rows = read_csv(out)
    assert 0 < len(rows) < 61  # partial output flushed
    assert "extinguished" in capsys.readouterr().err
    # JSON too: the body is written, since no exception ends the command
    out = tmp_path / "traj.json"
    assert main(["evolve", "--gamma", "0.9905", "--q", "0", "--t-max", "60",
                 "--samples", "61", "--format", "json", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["rows"] == [
        [float(value) for value in row] for row in rows]


@pytest.mark.parametrize("command, rows", [
    # 201 samples with the default --t-max 20 --dt 1e-3
    (["evolve"], 201),
    # both branches at t and 2t: two 1300-step intervals, one operator
    (["k3", "--t", "1.3"], 1),
], ids=["evolve", "k3"])
def test_evolve_rk4_builds_its_step_operator_once(tmp_path, monkeypatch,
                                                  command, rows):
    calls = {"build_liouvillian": 0, "bloch_generator": 0, "_rk4_step_delta": 0,
             "_rk4_bloch": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(dynamics, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(dynamics, name, counted)
        if name == "_rk4_bloch":  # lgi calls it under its own name
            monkeypatch.setattr(lgi, name, counted)
    assert main([*command, "--gamma", "0.8", "--q", "0.4", "--engine", "rk4",
                 "--out", str(tmp_path / "rk4.csv")]) == 0
    assert len(read_csv(tmp_path / "rk4.csv")[2]) == rows
    # one RK4 run on the real B, in one set-up; the complex G is not built
    assert calls == {"build_liouvillian": 0, "bloch_generator": 1,
                     "_rk4_step_delta": 1, "_rk4_bloch": 1}


@pytest.mark.parametrize("samples, step", [
    ("2", 104),    # one 2000-unit interval: the same run as evolve_rk4
    ("11", 100),   # fails in the first 200-unit interval, at its 100th step
    ("201", 85),   # 5-step intervals: the 17th starts at step 80 and fails
                   # on its 4-step level
])
def test_evolve_rk4_divergence_counts_steps_from_zero(tmp_path, capsys,
                                                      samples, step):
    assert main(["evolve", "--gamma", "5", "--q", "1", "--engine", "rk4",
                 "--dt", "2", "--t-max", "2000", "--samples", samples,
                 "--out", str(tmp_path / "div.csv")]) == 70
    assert f"diverged at step {step}:" in capsys.readouterr().err


def test_evolve_rk4_engine_matches_exact(tmp_path):
    results = {}
    for engine in ("exact", "rk4"):
        out = tmp_path / f"{engine}.csv"
        main(["evolve", "--gamma", "0.8", "--q", "0.4", "--t-max", "3",
              "--samples", "7", "--engine", engine, "--dt", "1e-4",
              "--out", str(out)])
        _, header, rows = read_csv(out)
        results[engine] = np.array(
            [[float(x) for x in row] for row in rows])
    assert np.max(np.abs(results["exact"] - results["rk4"])) <= 1e-7


@pytest.mark.parametrize("theta", ["1.0", "0.3"])
def test_evolve_rk4_matches_exact_off_the_default_theta(tmp_path, theta):
    # B couples sx into the (r, sy, sz) block off theta = pi/2, so this
    # checks all four Pauli rows of the RK4 generator against G
    results = {}
    for engine in ("exact", "rk4"):
        out = tmp_path / f"{engine}.csv"
        assert main(["evolve", "--gamma", "0.8", "--q", "0.4", "--theta", theta,
                     "--engine", engine, "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        results[engine] = np.array([[float(x) for x in row] for row in rows])
    assert results["rk4"].shape == (201, 13)
    # measured 6.4e-15 (theta 1.0) and 1.8e-14 (theta 0.3) with dt = 1e-3
    assert np.max(np.abs(results["exact"] - results["rk4"])) <= 1e-11


@pytest.mark.parametrize("argv", [
    ("evolve", "--engine", "rk4", "--t-max", "1e300", "--samples", "2"),
    ("k3", "--engine", "rk4", "--t", "1e300"),
])
def test_rk4_step_count_that_overflows_exits_64(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--gamma", "0.5", "--q", "0.5", "--dt", "1e-10",
                 "--out", str(out)]) == 64
    assert "t/dt = 1e+300/1e-10 is not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    # 201 samples: t/dt = 5e307 per interval, finite
    ("evolve", "--engine", "rk4", "--t-max", "1e300", "--dt", "1e-10"),
    ("k3", "--engine", "rk4", "--t", "1e20", "--dt", "1e-3"),
])
def test_rk4_step_count_above_2_53_exits_64(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--gamma", "0.5", "--q", "0.5",
                 "--out", str(out)]) == 64
    assert "exceeds 2**53" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_accepts_user_state(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--gamma", "0.5", "--q", "0.5", "--t-max", "1",
                 "--samples", "3", "--rho0", "1,0,0,0",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    first = as_dicts(header, rows)[0]
    assert float(first["sz"]) == pytest.approx(1.0, abs=1e-12)


def test_k3_single_point_and_optimize(tmp_path):
    single = tmp_path / "k3.csv"
    assert main(["k3", "--gamma", "0", "--q", "1", "--t",
                 str(np.pi / 3), "--out", str(single)]) == 0
    _, header, rows = read_csv(single)
    record = as_dicts(header, rows)[0]
    assert float(record["k3"]) == pytest.approx(1.5, abs=1e-9)

    optimized = tmp_path / "k3opt.csv"
    assert main(["k3", "--gamma", "0", "--q", "1", "--optimize",
                 "--out", str(optimized)]) == 0
    metadata, header, rows = read_csv(optimized)
    assert float(metadata["k3_max"]) == pytest.approx(1.5, abs=1e-6)
    assert float(metadata["t_star"]) == pytest.approx(np.pi / 3, abs=1e-4)


def test_k3_optimize_at_small_J_is_the_unit_J_row(tmp_path):
    # K3 depends on gamma / J and t J only; with an absolute normality test
    # this cell read 4.7388 at J = 1e-6, above the bound of 3
    rows = {}
    for J, gamma in (("1e-6", "3e-7"), ("1", "0.3")):
        out = tmp_path / f"k3_{J}.csv"
        assert main(["k3", "--gamma", gamma, "--q", "0", "--J", J,
                     "--optimize", "--out", str(out)]) == 0
        rows[J] = read_csv(out)[0]
    k3_max, t_star = (float(rows["1e-6"][key]) for key in ("k3_max", "t_star"))
    assert k3_max <= 3.0
    assert abs(k3_max - float(rows["1"]["k3_max"])) <= 1e-10  # 2.0e-15
    assert t_star * 1e-6 == pytest.approx(float(rows["1"]["t_star"]),
                                          rel=1e-9, abs=0)


def test_k3_optimize_masked_cell_exits_2(tmp_path, capsys):
    # every scanned time point of this cell is extinguished
    out = tmp_path / "k3.csv"
    assert main(["k3", "--gamma", "0.9", "--q", "0", "--optimize",
                 "--t-max", "3000", "--resolution", "1",
                 "--out", str(out)]) == 2
    assert "all time points extinguished" in capsys.readouterr().err
    assert not out.exists()


def test_back_to_back_calls_share_no_state(tmp_path, capsys):
    from hybridlg.cli import build_parser

    assert build_parser() is build_parser()

    def run(name, argv):
        out = tmp_path / name
        code = main(argv + ["--out", str(out)])
        return code, (out.read_text() if out.exists() else None)

    k3_at_1 = ["k3", "--gamma", "0.5", "--q", "0.5", "--t", "1"]
    ep_locus = ["ep-locus", "--grid-q", "0:1:3"]
    spectrum = ["spectrum", "--gamma", "1", "--q", "0.5"]
    build_parser.cache_clear()
    alone = {name: run(name, argv) for name, argv in
             [("k3.csv", k3_at_1), ("ep.csv", ep_locus),
              ("spec.csv", spectrum)]}

    # a k3 --optimize run must not leave --optimize (or its t*) behind
    assert run("opt.csv", ["k3", "--gamma", "0.5", "--q", "0.5",
                           "--optimize", "--resolution", "200"])[0] == 0
    assert run("k3.csv", k3_at_1) == alone["k3.csv"]
    metadata, _, rows = read_csv(tmp_path / "k3.csv")
    assert metadata["config"]["optimize"] is False
    assert "t_star" not in metadata and float(rows[0][0]) == 1.0

    # a usage error leaves the parser fit for the next valid call
    assert main(["k3", "--gamma", "0.5", "--q", "0.5"]) == 64
    assert main(["sweep", "--grid-gamma", "nonsense"]) == 64
    assert run("ep.csv", ep_locus) == alone["ep.csv"]

    # different subcommands in a row keep their own options only
    assert run("sweep.csv", ["sweep", "--grid-gamma", "0.5:1:2", "--grid-q",
                             "0.5:1:2", "--resolution", "50"])[0] == 0
    assert run("spec.csv", spectrum) == alone["spec.csv"]
    assert run("ep.csv", ep_locus) == alone["ep.csv"]
    metadata, _, _ = read_csv(tmp_path / "ep.csv")
    assert metadata["command"] == "ep-locus"
    assert set(metadata["config"]) == {"command", "format", "grid_q", "out"}
    capsys.readouterr()


def test_sweep_csv_contract_and_determinism(tmp_path):
    out = tmp_path / "a.csv"
    args = ["sweep", "--grid-gamma", "0.3:1.2:3", "--grid-q",
            "1e-3:1:3:log", "--resolution", "400", "--out", str(out)]
    assert main(args) == 0
    first_bytes = out.read_text()
    assert main(args) == 0
    assert out.read_text() == first_bytes

    metadata, header, rows = read_csv(out)
    assert header == ["gamma", "q", "k3_max", "t_star", "error"]
    gammas = [float(r[0]) for r in rows]
    qs = [float(r[1]) for r in rows]
    assert gammas == sorted(gammas)  # gamma outer
    assert qs[:3] == sorted(qs[:3])  # q inner


def test_sweep_workers_value_identical(tmp_path):
    base = ["sweep", "--grid-gamma", "0.4:1.0:2", "--grid-q",
            "0.01:1:2:log", "--resolution", "300"]
    serial = tmp_path / "w1.csv"
    parallel = tmp_path / "w2.csv"
    assert main(base + ["--workers", "1", "--out", str(serial)]) == 0
    assert main(base + ["--workers", "2", "--out", str(parallel)]) == 0
    # identical numeric content for any worker count (metadata echoes differ)
    assert serial.read_text().split("\n")[1:] == \
        parallel.read_text().split("\n")[1:]


def test_sweep_degenerate_grid_matches_k3_optimize(tmp_path):
    cell = tmp_path / "cell.csv"
    point = tmp_path / "point.csv"
    assert main(["sweep", "--grid-gamma", "0.8:0.8:1", "--grid-q",
                 "0.2:0.2:1", "--out", str(cell)]) == 0
    assert main(["k3", "--gamma", "0.8", "--q", "0.2", "--optimize",
                 "--out", str(point)]) == 0
    _, header, rows = read_csv(cell)
    record = as_dicts(header, rows)[0]
    metadata, _, _ = read_csv(point)
    assert float(record["k3_max"]) == float(metadata["k3_max"])
    assert float(record["t_star"]) == float(metadata["t_star"])


def test_spectrum_reports_gamma_zero(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["spectrum", "--grid-gamma", "0:3:61", "--grid-q", "0:1:21",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 61 * 21
    for record in as_dicts(header, rows[:21]):
        assert float(record["gamma"]) == 0.0
        eigs = [complex(float(record[f"eig{k}_re"]), float(record[f"eig{k}_im"]))
                for k in range(4)]
        gen = build_liouvillian(ModelParams(gamma=0.0, q=float(record["q"])))
        assert_same_complex_sets(eigs, np.linalg.eigvals(gen), atol=1e-12)
        roots = [complex(float(record[f"x{k}_re"]), float(record[f"x{k}_im"]))
                 for k in range(3)]
        assert_same_complex_sets(roots, [0.0, 1j, -1j], atol=1e-12)  # x^3 + x
    # a gamma > 0 row of the grid is the row of its own single-cell run
    for row in rows[21::97]:
        single = tmp_path / "single.csv"
        assert main(["spectrum", "--gamma", row[0], "--q", row[1],
                     "--out", str(single)]) == 0
        assert read_csv(single)[2] == [row]


def test_spectrum_command(tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--gamma", "1", "--q", "1",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    record = as_dicts(header, rows)[0]
    assert record["has_exact_root"] == "1"
    eigs = [complex(float(record[f"eig{k}_re"]), float(record[f"eig{k}_im"]))
            for k in range(4)]
    assert min(abs(e + 1.0) for e in eigs) <= 1e-10


def test_ep_locus_default_endpoints(tmp_path):
    out = tmp_path / "ep.csv"
    assert main(["ep-locus", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    records = as_dicts(header, rows)
    assert float(records[0]["q"]) == 0.0
    assert float(records[0]["r_ep"]) == 1.0
    assert float(records[-1]["q"]) == 1.0
    assert float(records[-1]["r_ep"]) == pytest.approx(2.0, abs=1e-12)
    assert all(abs(float(r["residual"])) <= 1e-10 for r in records)


def test_bloch_traj_branches(tmp_path):
    out = tmp_path / "branches.csv"
    assert main(["bloch-traj", "--gamma", "0.9905", "--q", "1e-3",
                 "--t-max", "5", "--samples", "11", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    records = as_dicts(header, rows)
    assert {r["branch"] for r in records} == {"+", "-"}
    for branch, sy0 in (("+", 1.0), ("-", -1.0)):
        first = next(r for r in records if r["branch"] == branch)
        assert float(first["t"]) == 0.0
        assert float(first["r"]) == pytest.approx(1.0, abs=1e-9)
        assert float(first["sy"]) == pytest.approx(sy0, abs=1e-9)


def test_nsit_command_fixed_interval(tmp_path):
    out = tmp_path / "nsit.csv"
    assert main(["nsit", "--grid-gamma", "1:1:1", "--grid-q", "0.5:0.5:1",
                 "--t", "1", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header[:7] == ["gamma", "q", "t", "delta_01_2", "delta_12",
                          "delta_02", "aot_defect"]
    record = as_dicts(header, rows)[0]
    assert float(record["delta_01_2"]) > 1e-3
    assert float(record["aot_defect"]) <= 1e-10


def test_nsit_maximize_over_t(tmp_path):
    out = tmp_path / "nsit.csv"
    assert main(["nsit", "--grid-gamma", "0.9905:0.9905:1", "--grid-q",
                 "0.3:0.3:1", "--maximize-over-t", "--resolution", "400",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    record = as_dicts(header, rows)[0]
    assert float(record["t"]) > 0.0
    # a cell whose K3 optimum is masked gets a row, not a usage error
    assert main(["nsit", "--grid-gamma", "0.9:0.9:1", "--grid-q", "0:0:1",
                 "--maximize-over-t", "--t-max", "3000", "--resolution", "1",
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    record = as_dicts(header, rows)[0]
    for column in ("t", "delta_01_2", "delta_12", "delta_02", "aot_defect"):
        assert np.isnan(float(record[column]))
    assert record["error"] == "all time points extinguished"


def test_fit_check_pipeline(tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid-gamma", "0.1:0.9:4", "--grid-q",
                 "1e-4:1:6:log", "--resolution", "800",
                 "--out", str(sweep_csv)]) == 0
    out = tmp_path / "resid.csv"
    assert main(["fit-check", "--in", str(sweep_csv), "--log-base", "auto",
                 "--out", str(out)]) == 0
    metadata, header, rows = read_csv(out)
    assert header == ["gamma", "q", "k3_computed", "k3_fit", "residual",
                      "region"]
    assert metadata["log_base"] == "e"
    records = as_dicts(header, rows)
    assert all(r["region"] in ("1", "2", "3") for r in records)
    assert all(float(r["residual"]) <= 0.2 for r in records)
    # auto reuses the report it chose the base on: the rows of an explicit
    # run with that base
    explicit = tmp_path / "explicit.csv"
    assert main(["fit-check", "--in", str(sweep_csv), "--log-base", "e",
                 "--out", str(explicit)]) == 0
    assert read_csv(explicit)[1:] == (header, rows)


@pytest.mark.parametrize("argv", [
    ("sweep", "--workers", "0"),
    ("sweep", "--workers", "-3"),
    ("nsit", "--t", "1", "--workers", "0"),
    ("nsit", "--t", "1", "--workers", "-3"),
])
def test_workers_below_one_exit_64_before_output(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 64
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_exit_codes_for_domain_failures(tmp_path, capsys):
    # coalescing mode rates: internal numeric failure
    assert main(["bloch-traj", "--gamma", "1", "--q", "0",
                 "--out", str(tmp_path / "x.csv")]) == 70
    # invalid physical input surfaces as usage error
    assert main(["spectrum", "--gamma", "-1", "--q", "0.5",
                 "--out", str(tmp_path / "y.csv")]) == 64
    # extinction during a point evaluation
    assert main(["k3", "--gamma", "0.9905", "--q", "0", "--t", "9",
                 "--eps-trace", "1e-6",
                 "--out", str(tmp_path / "z.csv")]) == 2
    capsys.readouterr()


def test_fit_check_allow_extrapolation(tmp_path):
    # every gamma lies outside the fitted domain: inside [1, 2], below 0.05
    # and above 5
    for grid_gamma in ("1.5:1.5:1", "0.01:6:2"):
        sweep_csv = tmp_path / "sweep.csv"
        main(["sweep", "--grid-gamma", grid_gamma, "--grid-q", "0.5:0.5:1",
              "--resolution", "300", "--out", str(sweep_csv)])
        excluded = tmp_path / "excl.csv"
        main(["fit-check", "--in", str(sweep_csv), "--out", str(excluded)])
        _, header, rows = read_csv(excluded)
        assert [r["region"] for r in as_dicts(header, rows)] == (
            ["excluded"] * len(rows))
        forced = tmp_path / "forced.csv"
        main(["fit-check", "--in", str(sweep_csv), "--allow-extrapolation",
              "--out", str(forced)])
        _, header, rows = read_csv(forced)
        assert all(r["region"] in ("1", "2", "3")
                   for r in as_dicts(header, rows))
        # auto chooses its base without extrapolation, then evaluates the
        # winner's fit with it
        auto = tmp_path / "auto.csv"
        main(["fit-check", "--in", str(sweep_csv), "--allow-extrapolation",
              "--log-base", "auto", "--out", str(auto)])
        metadata, *table = read_csv(auto)
        assert metadata["log_base"] == "e" and table == [header, rows]


def test_fit_check_rows_follow_the_sweep_rows(tmp_path):
    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--grid-gamma", "0.9:0.1:3", "--grid-q", "1:0.5:2",
                 "--resolution", "300", "--out", str(sweep_csv)]) == 0
    out = tmp_path / "resid.csv"
    assert main(["fit-check", "--in", str(sweep_csv), "--out", str(out)]) == 0
    _, sweep_header, sweep_rows = read_csv(sweep_csv)
    _, header, rows = read_csv(out)
    swept = [(r["gamma"], r["q"], r["k3_max"])
             for r in as_dicts(sweep_header, sweep_rows)]
    checked = [(r["gamma"], r["q"], r["k3_computed"])
               for r in as_dicts(header, rows)]
    assert checked == swept
    assert [float(g) for g, _, _ in checked] == [0.9, 0.9, 0.5, 0.5, 0.1, 0.1]


@pytest.mark.parametrize("line, complaint", [
    ("0.5,0.1", "2 fields, header has 5"),
    ("0.5,0.1,1.2,0.3,,7", "6 fields, header has 5"),
    ("0.5,0.1,abc,0.3,", "could not convert string to float: 'abc'"),
])
def test_fit_check_malformed_row_exits_64_naming_path_and_line(
        tmp_path, capsys, line, complaint):
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text("# metadata\ngamma,q,k3_max,t_star,error\n"
                         f"0.3,0.5,1.1,0.2,\n{line}\n")
    assert main(["fit-check", "--in", str(sweep_csv)]) == 64
    assert f"{sweep_csv}:4: {complaint}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("# m\ngamma,q,t_star,error\n0.3,0.5,0.2,\n",
     "{path}: missing column 'k3_max' in sweep CSV"),
    ("# m\n\ngamma,q,k3_max,t_star,error\n0.3,0.5,1.1,0.2,\n0.3,0.5\n",
     "{path}:5: 2 fields, header has 5"),
])
def test_sweep_csv_reader_error_texts(tmp_path, text, message):
    from hybridlg.cli import UsageError, _read_sweep_csv

    path = tmp_path / "sweep.csv"
    path.write_text(text)
    with pytest.raises(UsageError) as exc:
        _read_sweep_csv(path)
    assert str(exc.value) == message.format(path=path)


def test_sweep_csv_reader_finds_columns_by_name(tmp_path):
    from hybridlg.cli import _read_sweep_csv

    # any column order, no error column, and a repeated column reads its
    # last occurrence
    path = tmp_path / "sweep.csv"
    path.write_text("t_star,k3_max,x,q,gamma,q\n0.2,1.1,a,9,0.3,0.5\n")
    assert _read_sweep_csv(path) == [(0.3, 0.5, 1.1, 0.2, "")]


def test_evolve_reaches_generator_stationary_state(tmp_path):
    from hybridlg.model import ModelParams, SIGMA_Y
    from hybridlg.spectrum import build_liouvillian

    out = tmp_path / "traj.csv"
    main(["evolve", "--gamma", "0.9905", "--q", "1", "--t-max", "30",
          "--samples", "31", "--out", str(out)])
    _, header, rows = read_csv(out)
    last = as_dicts(header, rows)[-1]

    gen = build_liouvillian(ModelParams(gamma=0.9905, q=1.0))
    eigvals, eigvecs = np.linalg.eig(gen)
    stationary = eigvecs[:, int(np.argmin(np.abs(eigvals)))].reshape(2, 2)
    stationary = stationary / np.trace(stationary)
    sy_fixed = float(np.trace(stationary @ SIGMA_Y).real)
    assert float(last["sy"]) == pytest.approx(sy_fixed, abs=1e-6)


def test_sweep_json_masks_cells_as_null(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--grid-gamma", "0.9:0.9:1", "--grid-q", "0:0:1",
                 "--eps-trace", "2.0", "--resolution", "200",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    row = payload["rows"][0]
    k3_index = payload["columns"].index("k3_max")
    error_index = payload["columns"].index("error")
    assert row[k3_index] is None
    assert "extinguished" in row[error_index]


def test_nsit_workers_value_identical(tmp_path):
    from hybridlg.errors import TrajectoryExtinguishedError
    from hybridlg.macrorealism import check_nsit, joint_probabilities
    from hybridlg.model import ModelParams

    # gamma = 0 takes the Schur route; (1, 0) and (2, 1) are exactly
    # defective and take the Newton form, and (1, 0) is extinguished
    defective = ("--grid-gamma", "0:2:3", "--grid-q", "0:1:2", "--t", "40")
    grids = (
        (("--grid-gamma", "0.5:1.5:2", "--grid-q", "0.1:1:2:log", "--t", "1"),
         0),
        (defective, 1),
        (defective + ("--q0", "-1", "--q2", "-1"), 1),
        (("--grid-gamma", "0:2:3", "--grid-q", "0.1:1:2:log",
          "--maximize-over-t", "--resolution", "200"), 0),
    )
    for grid, extinguished in grids:
        one = tmp_path / "w1.csv"
        two = tmp_path / "w2.csv"
        base = ["nsit", *grid]
        assert main(base + ["--workers", "1", "--out", str(one)]) == 0
        assert main(base + ["--workers", "2", "--out", str(two)]) == 0
        assert one.read_text().split("\n")[1:] == \
            two.read_text().split("\n")[1:]
        # every row equals its one-cell table, bit for bit
        metadata, header, rows = read_csv(one)
        q0, q2 = metadata["config"]["q0"], metadata["config"]["q2"]
        errors = 0
        for record in as_dicts(header, rows):
            params = ModelParams(gamma=float(record["gamma"]),
                                 q=float(record["q"]))
            try:
                table = joint_probabilities(params, float(record["t"]))
            except TrajectoryExtinguishedError as exc:
                errors += 1
                assert record["error"] == str(exc)
                assert np.isnan(float(record["delta_01_2"]))
                continue
            report = check_nsit(table)
            assert record["error"] == ""
            assert float(record["delta_01_2"]) == \
                report.delta_marginal_middle[(q0, q2)]
            assert float(record["delta_12"]) == \
                report.delta_two_time[(1, 2)][q2]
            assert float(record["delta_02"]) == \
                report.delta_two_time[(0, 2)][q2]
            assert float(record["aot_defect"]) == report.aot.max_defect
        assert errors == extinguished


def test_nsit_json_workers_value_identical(tmp_path):
    # the defective grid of test_nsit_workers_value_identical: gamma = 0
    # takes the Schur route, (1, 0) and (2, 1) the Newton form, and (1, 0)
    # is extinguished at t = 40
    argv = ["nsit", "--grid-gamma", "0:2:3", "--grid-q", "0:1:2", "--t", "40",
            "--format", "json"]
    payloads = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.json"
        assert main(argv + ["--workers", workers, "--out", str(out)]) == 0
        payloads.append(json.loads(out.read_text()))
    one, two = payloads
    assert one["rows"] == two["rows"]
    assert one["columns"] == two["columns"]
    # the rows are the CSV rows, with null for NaN
    csv_out = tmp_path / "w1.csv"
    assert main(argv[:-2] + ["--out", str(csv_out)]) == 0
    _, header, rows = read_csv(csv_out)
    assert header == one["columns"]
    assert [[_fmt(v) if v is not None else "nan" for v in row]
            for row in one["rows"]] == rows
    record = dict(zip(header, one["rows"][2]))
    assert (record["gamma"], record["q"]) == (1.0, 0.0)
    assert [record[name] for name in
            ("delta_01_2", "delta_12", "delta_02", "aot_defect")] == [None] * 4
    assert "extinguished" in record["error"]
    assert [row[-1] for row in one["rows"]].count("") == 5


def test_json_format(tmp_path):
    out = tmp_path / "ep.json"
    assert main(["ep-locus", "--grid-q", "0:1:3", "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["metadata"]["tool"] == "hybridlg"
    assert payload["columns"] == ["q", "r_ep", "residual"]
    assert len(payload["rows"]) == 3


def test_csv_floats_have_roundtrip_precision(tmp_path):
    out = tmp_path / "k3.csv"
    main(["k3", "--gamma", "0.7", "--q", "0.3", "--t", "1.234567890123",
          "--out", str(out)])
    _, header, rows = read_csv(out)
    value = rows[0][header.index("k3")]
    assert float(value) == float(f"{float(value):.17g}")
    # 17 significant digits present for non-trivial values
    digits = value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(digits) >= 16

_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    st.text(alphabet="ab%s,-. ", max_size=6),
    st.integers(-2 ** 70, 2 ** 70),
    st.booleans(),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.one_of(
    st.lists(_CELLS, min_size=1, max_size=5).map(tuple),
    # runs of rows that share one type tuple
    st.tuples(st.floats(allow_nan=True, allow_infinity=True), st.floats()),
), min_size=1, max_size=8), split=st.integers(0, 8))
def test_csv_row_templates_write_the_bytes_of_fmt(rows, split):
    expected = "".join(",".join(_fmt(value) for value in row) + "\n"
                       for row in rows)
    assert _format_rows("csv", rows) == expected
    parts = [_format_rows("csv", rows[:split]),
             _format_rows("csv", [list(row) for row in rows[split:]])]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _write(argparse.Namespace(out="-", format="csv"), ["a", "b"], {}, parts)
    assert out.getvalue() == "# {}\na,b\n" + expected


#: nsit rows with every type a row formatter must keep apart
_PLANTED_ROWS = [
    (0.0, 1.0, 1.5, math.nan, -0.0, 0.0, math.inf, -math.inf, ""),
    (1.0, 0.0, 2.0, 0.1, 7, True, False, -3, "an error, with a comma"),
    (2.0, 1.0, 0.25, math.nan, math.nan, math.nan, math.nan,
     "all time points extinguished"),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("planted", [False, True])
def test_nsit_task_returns_what_the_writer_writes(monkeypatch, fmt, planted):
    # a task of the defective t = 40 grid: Schur, Newton and one
    # extinguished cell; or that task with rows of every type planted
    from hybridlg import macrorealism

    if planted:
        monkeypatch.setattr(macrorealism, "_nsit_rows",
                            lambda cells, *args: _PLANTED_ROWS)
    gammas, qs = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 1.0])
    cells = lgi._Cells(gammas, qs, ModelParams(gamma=1.0, q=1.0))
    args = (40.0, None, 1e-12, 1, 1)
    rows = macrorealism._nsit_rows(cells, *args)
    assert [row[:2] for row in rows] == list(zip(gammas.tolist(), qs.tolist()))
    [task] = macrorealism._nsit_task(
        cells, functools.partial(_format_rows, fmt), *args)
    # repr tells -0.0 from 0.0 and True from 1
    assert repr(task) == repr(_format_rows(fmt, rows))
    assert "extinguished" in repr(task)
