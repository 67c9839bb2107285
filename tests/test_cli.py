"""Command-line pipeline: flags, stage execution, exit codes, and the
RESULT summary line."""

import dataclasses
import hashlib
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import saddlecheck
from saddlecheck import cli
from saddlecheck.cache import CACHE_ENV_VAR
from saddlecheck.cli import (RunConfig, build_parser, main, run_rigor,
                             run_stages)
from saddlecheck.grid import build_grid
from saddlecheck.params import DimensionParams
from saddlecheck.rigor import DEFECT_A_MAX
from saddlecheck.solver import NewtonError, SaddleSolution, newton_solve

M_ARGS = ["--m", "4", "--R", "8", "--h", "0.2"]


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)


def _last_line(capsys):
    return capsys.readouterr().out.strip().splitlines()[-1]


@pytest.mark.parametrize("argv", [
    ["run", "--tol", "1e-3"],
    ["run", "--config", "x.ini"],
    ["run", "--n", "8"],
    ["report"],
    ["verify"] + M_ARGS,
    ["spectrum"] + M_ARGS,
    ["rigor"] + M_ARGS,
], ids=["tol", "config", "n", "report", "verify", "spectrum", "rigor"])
def test_removed_settings_are_usage_errors(argv, capsys):
    # the Newton gate and the proof budget are fixed in code: no flag,
    # file or second subcommand reaches them; a stage subset is
    # `run --stages`, not a subcommand of its own
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--tol", "1e-3"],
    ["run", "--bogus"],
    ["nonsense"],
    ["verify"] + M_ARGS,
    ["spectrum"] + M_ARGS,
    ["rigor"] + M_ARGS,
], ids=["removed-flag", "unknown-flag", "unknown-subcommand", "verify",
        "spectrum", "rigor"])
def test_usage_error_ends_with_result_line(argv, capsys):
    # the usage goes to stderr, the RESULT line still ends stdout
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err
    assert captured.out.splitlines()[-1] == "RESULT fail stages= failures=1"


def test_help_exits_zero_without_result_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "RESULT" not in capsys.readouterr().out


def test_suite_and_supersolution_stages_pass(capsys):
    rc = main(["run", "--stages", "solve,suite,supersolution"] + M_ARGS)
    assert rc == 0
    line = _last_line(capsys)
    assert line == "RESULT pass stages=solve,suite,supersolution failures=0"


def test_solve_log_names_the_coarse_chain(capsys):
    assert main(["solve", "--m", "4", "--R", "8", "--h", "0.1"]) == 0
    [line] = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("solve:")]
    assert re.search(r"\(\d+ Newton iters, started from h=0\.2 \(\d+\)\)$",
                     line), line
    assert re.search(r" cg_iters=\[\[0\.1, \[\d+(, \d+)*\]\]\] ", line), line


def test_spectrum_stage_skips_candidate_validation(capsys):
    # m = 2 has no supersolution candidate, but the spectrum stage must run
    rc = main(["run", "--stages", "solve,spectrum",
               "--m", "2", "--R", "8", "--h", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lambda_min=-0." in out
    assert out.strip().splitlines()[-1].startswith("RESULT pass")


def test_report_written_and_second_run_cached(tmp_path, capsys):
    out = tmp_path / "outdir"
    argv = ["run", "--stages", "solve,suite", "--out", str(out)] + M_ARGS
    assert main(argv) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["schema"] == "saddlecheck-report/1"
    assert rep["failures"] == []
    assert rep["stages"]["solve"]["from_cache"] is False
    capsys.readouterr()
    assert main(argv) == 0
    rep2 = json.loads((out / "report.json").read_text())
    assert rep2["stages"]["solve"]["from_cache"] is True
    # determinism modulo timing and cache provenance
    for r in (rep, rep2):
        r.pop("timing")
        r["stages"]["solve"].pop("from_cache")
    assert rep == rep2


def test_plot_emits_maps_and_csv(tmp_path, capsys):
    out = tmp_path / "plots"
    assert main(["plot", "--out", str(out)] + M_ARGS) == 0
    assert (out / "u.csv").exists()
    assert (out / "report.json").exists()
    svgs = sorted(p.name for p in out.glob("*.svg"))
    assert len(svgs) == 6


# each id names the stage list of the subcommand `run --stages` replaces
@pytest.mark.parametrize("argv, stages", [
    (["solve"], ["solve"]),
    (["run", "--stages", "solve,suite,supersolution"],
     ["solve", "suite", "supersolution"]),
    (["run", "--stages", "solve,spectrum"], ["solve", "spectrum"]),
    (["run", "--stages", "solve,rigor"], ["solve", "rigor"]),
], ids=["solve", "verify", "spectrum", "rigor"])
def test_out_writes_the_report_for_every_command(argv, stages, tmp_path,
                                                 monkeypatch, capsys):
    _with_budget(monkeypatch, 500)      # a short rigor stage
    for out in ("out", str(tmp_path / "o")):      # the default, then --out
        flag = [] if out == "out" else ["--out", out]
        rc = main(argv + flag + M_ARGS)
        *_, report_line, result_line = capsys.readouterr().out.splitlines()
        report_path = Path(out) / "report.json"
        report = json.loads(report_path.read_text())
        assert report_line == f"report: {report_path}"
        assert report["config"]["out"] == out
        assert result_line.startswith(f"RESULT {'fail' if rc else 'pass'} "
                                      f"stages={','.join(stages)} ")
        assert report["config"]["stages"] == stages
        assert set(stages) <= set(report["stages"])
        assert rc == (1 if report["failures"] else 0)


def _with_budget(monkeypatch, max_boxes, results=None):
    """Run cli's proofs with a cut box budget, keeping each ProofResult."""
    prove = cli.prove_nonpositive

    def prove_with_budget(*args, **kwargs):
        result = prove(*args, **kwargs, max_boxes=max_boxes)
        if results is not None:
            results.append(result)
        return result

    monkeypatch.setattr(cli, "prove_nonpositive", prove_with_budget)


def test_exit_code_one_on_undecided_proof(monkeypatch, capsys):
    _with_budget(monkeypatch, 500)
    rc = main(["run", "--stages", "solve,rigor"] + M_ARGS)
    assert rc == 1
    line = _last_line(capsys)
    assert line.startswith("RESULT fail stages=solve,rigor failures=")


def test_exit_code_two_on_config_error(capsys):
    # unknown stage name
    rc = main(["run", "--stages", "solve,nonsense"] + M_ARGS)
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    # grid spacing not dividing R
    rc = main(["solve", "--m", "4", "--R", "8", "--h", "0.3"])
    assert rc == 2
    # candidate stage with a dimension outside the candidate table
    rc = main(["run", "--stages", "solve,suite,supersolution",
               "--m", "2", "--R", "8", "--h", "0.2"])
    assert rc == 2


def test_nan_residual_fails_the_solve():
    # at m = 400 the weights (x + h/2)^m of weighted_form overflow, so the
    # residual is NaN from the start: an error, not a converged field.  The
    # command line stops such an m before Newton; the library does not
    with pytest.warns(RuntimeWarning), \
            pytest.raises(NewtonError, match="residual nan after 0 iterations"):
        newton_solve(DimensionParams(400), build_grid(8, 0.2))


def test_unsolvable_m_is_rejected_before_any_stage(tmp_path, monkeypatch,
                                                   capsys):
    # m = 9 fails inside the Newton chain at R12 h.05: a configuration
    # error, found before the cache is touched
    calls = []
    monkeypatch.setattr(cli, "load_or_solve",
                        lambda *a, **k: calls.append(a))
    rc = main(["solve", "--m", "9", "--R", "12", "--h", "0.05"])
    assert rc == 2
    captured = capsys.readouterr()
    assert f"m in 1..{cli.MAX_M}, got m=9" in captured.err
    assert captured.out.splitlines()[-1] == "RESULT fail stages= failures=1"
    assert calls == []
    assert not (tmp_path / "cache").exists()


def test_every_check_accounts_for_every_triangle_node(capsys):
    # checked plus excluded nodes cover the triangle in every check report,
    # the supersolution's (which skips the cone, the axis and the outer
    # edge) included
    report, sol = run_stages(RunConfig(
        m=4, R=8.0, h=0.2, stages=("solve", "suite", "supersolution")))
    triangle = int(sol.grid.mask_triangle.sum())
    checks = [c for stage in ("suite", "supersolution")
              for c in report["stages"][stage]["checks"]]
    assert len(checks) == 30
    assert {c["nodes_checked"] + c["nodes_excluded"] for c in checks} \
        == {triangle}


def test_plot_rejects_dimension_before_solving(tmp_path, capsys):
    # the maps need the candidate, defined for n in {8, 10, 12}: n = 2 is a
    # configuration error found before any Newton solve or cache write
    rc = main(["plot", "--m", "1", "--R", "8", "--h", "0.2",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert _last_line(capsys) == "RESULT fail stages= failures=1"
    cache = tmp_path / "cache"
    assert not cache.exists() or not any(cache.iterdir())


def test_full_run_emits_certificate(tmp_path, capsys):
    out = tmp_path / "full"
    rc = main(["run", "--out", str(out)] + M_ARGS)
    assert rc == 0
    rep = json.loads((out / "report.json").read_text())
    cert = rep["stages"]["certificate"]
    assert cert["conclusion"] == "stable"
    assert cert["n"] == 8
    assert _last_line(capsys) == \
        "RESULT pass stages=solve,suite,supersolution,spectrum,rigor failures=0"


def _altered(name, change):
    """Breaks one pillar: cli's `name` returns change(its result)."""
    def breaks(monkeypatch):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *a, **k: change(original(*a, **k)))
    return breaks


@pytest.mark.parametrize("breaks, expected", [
    (_altered("run_inequality_suite", lambda reports: [
        dict(r, passed=False) if r["id"] == "13-radial" else r
        for r in reports]), ["suite:13-radial"]),
    (_altered("verify_supersolution", lambda rep: dict(rep, passed=False)),
     ["supersolution"]),
    (_altered("min_eigenvalue",
              lambda est: dataclasses.replace(est, lambda_min=-0.5)),
     ["spectrum"]),
    (lambda monkeypatch: _with_budget(monkeypatch, 500),
     ["rigor:defect<=0", "rigor:c_s<0", "rigor:c_ss<0", "rigor:c_st<0"]),
], ids=["suite", "supersolution", "spectrum", "rigor"])
def test_failing_pillar_is_named_and_withholds_the_certificate(
        breaks, expected, capsys, monkeypatch):
    # a full run with one pillar broken lists exactly the failed items,
    # writes no certificate and exits 1
    breaks(monkeypatch)
    rc = main(["run"] + M_ARGS)
    rep = json.loads(Path("out/report.json").read_text())
    assert rep["failures"] == expected
    assert "certificate" not in rep["stages"]
    assert rc == 1
    assert _last_line(capsys) == (
        "RESULT fail stages=solve,suite,supersolution,spectrum,rigor "
        f"failures={len(expected)}")


def _program_env():
    """This environment, with the package under test first on the path of
    a fresh interpreter."""
    src = str(Path(saddlecheck.__file__).resolve().parents[1])
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_leaves_sympy_out():
    # a fresh interpreter, since this one has pytest and the oracles' mpmath
    # loaded: neither they nor sympy may come in with the program, scipy
    # loads only when a numeric stage first needs it, and the process pool
    # only when a run has the spectrum stage
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, saddlecheck.cli; print([m for m in "
         "('sympy', 'mpmath', 'pytest', 'scipy', 'multiprocessing', "
         "'concurrent.futures.process') if m in sys.modules])"],
        env=_program_env(), capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


_NO_FRONTIER = hashlib.sha256(b"").hexdigest()


# (box budget, per claim (label, status, boxes, undecided), frontier sha256)
@pytest.mark.parametrize("m, expected", [
    (4, (2_000_000, [("defect<=0", "proven", 843, 0),
                     ("c_s<0", "proven", 5_929, 0),
                     ("c_ss<0", "proven", 667, 0),
                     ("c_st<0", "proven", 2_265, 0)], _NO_FRONTIER)),
    (5, (2_000_000, [("defect<=0", "proven", 1_007, 0)], _NO_FRONTIER)),
    # the d = 5 defect turns positive between a = 0.43 and 0.435; the
    # claim holds on a <= 0.42
    (6, (2_000_000, [("defect<=0", "proven", 967, 0)], _NO_FRONTIER)),
])
def test_rigor_decisions_pinned(m, expected, monkeypatch):
    # every box decision of the prover shows in the box count and the
    # frontier, so a change to the interval kernels that moves one is caught
    # here even if the claim still proves
    max_boxes, rows, frontier_sha256 = expected
    results = []
    _with_budget(monkeypatch, max_boxes, results)
    proofs, seconds, trace = run_rigor(RunConfig(m=m))
    assert [(p["claim"], p["status"], p["boxes_examined"],
             p["undecided_boxes"]) for p in proofs] == rows
    assert list(seconds) == [f"rigor:{row[0]}" for row in rows]
    assert [t["claim"] for t in trace] == [row[0] for row in rows]
    assert [(t["batches"], t["max_depth"]) for t in trace] == \
        [(r.batches, r.max_depth) for r in results]
    assert [p.get("a_max") for p in proofs] == \
        [DEFECT_A_MAX[2 * m]] + [None] * (len(rows) - 1)
    frontier = b"".join(r.frontier.tobytes() for r in results)
    assert hashlib.sha256(frontier).hexdigest() == frontier_sha256


def test_report_times_and_traces_each_proof(capsys):
    # each proof's wall seconds go under timing and its batches and deepest
    # bisection under trace.rigor, and the log line gives seconds and
    # boxes/s; a run without the rigor stage has no trace
    assert main(["run", "--stages", "solve,rigor"] + M_ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    rep = json.loads(Path("out/report.json").read_text())
    assert [(t["claim"], t["batches"], t["max_depth"])
            for t in rep["trace"]["rigor"]] == [
        ("defect<=0", 15, 14), ("c_s<0", 17, 16), ("c_ss<0", 13, 12),
        ("c_st<0", 18, 17)]
    for p in rep["stages"]["rigor"]["proofs"]:
        assert not {"seconds", "batches", "max_depth"} & set(p)
        assert 0.0 < rep["timing"][f"rigor:{p['claim']}"] \
            <= rep["timing"]["rigor"]
        assert sum(re.fullmatch(
            rf"rigor: {re.escape(p['claim'])}: proven "
            rf"\({p['boxes_examined']} boxes, \d+\.\d\d s, \d+ boxes/s\)",
            line) is not None for line in lines) == 1
    assert main(["run", "--stages", "solve,suite"] + M_ARGS) == 0
    assert "trace" not in json.loads(Path("out/report.json").read_text())


@pytest.mark.parametrize("R, h, message", [
    ("12", "0.07", "R/h must be an integer"),
    ("12", "0.3", "spacing must satisfy 0 < h <= 0.2"),
    ("6", "0.2", "truncation radius must be >= 8"),
], ids=["R/h", "h", "R"])
def test_grid_error_is_found_before_any_proof(R, h, message, tmp_path,
                                             monkeypatch, capsys):
    # the grid rules are configuration errors: no worker starts, no proof
    # runs and the cache is not touched
    calls = []
    monkeypatch.setattr(cli, "prove_nonpositive",
                        lambda *a, **k: calls.append(a))
    rc = main(["run", "--m", "4", "--R", R, "--h", h])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out.splitlines()[-1] == "RESULT fail stages= failures=1"
    assert calls == []
    assert not (tmp_path / "cache").exists()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _no_fork():
    raise AssertionError("forked")


def test_spectrum_runs_in_a_worker_only_with_its_stage(monkeypatch, capfd):
    # the eigensolve runs in a forked worker, the suite and the proofs here,
    # and the lines keep the stage order; without the spectrum stage
    # nothing forks
    _with_budget(monkeypatch, 500)
    pids = {"run_inequality_suite": [], "min_eigenvalue": []}

    def recorded(name):
        call = getattr(cli, name)

        def recording(*args):
            pids[name].append(os.getpid())
            return call(*args)

        monkeypatch.setattr(cli, name, recording)

    recorded("run_inequality_suite")
    recorded("min_eigenvalue")
    rc = main(["run", "--stages", "solve,suite,spectrum,rigor"] + M_ARGS)
    assert rc == 1                      # the cut budget leaves claims open
    lines = capfd.readouterr().out.splitlines()
    # min_eigenvalue's list is the worker's, not this one
    assert pids == {"run_inequality_suite": [os.getpid()],
                    "min_eigenvalue": []}
    assert lines[0].startswith("solve: ")
    suite_lines = [k for k, line in enumerate(lines) if line.startswith("  [")]
    [spectrum] = [k for k, line in enumerate(lines)
                  if line.startswith("spectrum: ")]
    rigor = [k for k, line in enumerate(lines) if line.startswith("rigor: ")]
    assert len(suite_lines) == 29 and len(rigor) == 4
    assert max(suite_lines) < spectrum < min(rigor)
    _no_child_left()

    monkeypatch.setattr(os, "fork", _no_fork)
    assert main(["run", "--stages", "solve,suite,rigor"] + M_ARGS) == 1
    assert pids["run_inequality_suite"] == [os.getpid()] * 2


def test_timing_wall_spans_the_run(capsys):
    # stage seconds are measured where each stage ran; wall is run_stages
    # from start to end, so it covers the solve and then both the worker's
    # spectrum and this process's suite and proofs
    report, _ = run_stages(RunConfig(
        m=4, R=8.0, h=0.2, stages=("solve", "suite", "spectrum", "rigor")))
    timing = report["timing"]
    assert timing["wall"] >= timing["solve"] + max(
        timing["spectrum"], timing["suite"] + timing["rigor"])
    report, _ = run_stages(RunConfig(m=4, R=8.0, h=0.2,
                                     stages=("solve", "suite")))
    timing = report["timing"]
    assert timing["wall"] >= timing["solve"] + timing["suite"]
    _no_child_left()


def test_newton_error_exits_two_before_the_fork(monkeypatch, capsys):
    # the solve runs in this process before the worker forks, so its error
    # is raised here and no worker starts
    _with_budget(monkeypatch, 500)

    def fail(*args, **kwargs):
        raise NewtonError(f"line search failed in process {os.getpid()}")

    monkeypatch.setattr(cli, "load_or_solve", fail)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert main(["run"] + M_ARGS) == 2
    captured = capsys.readouterr()
    [pid] = re.findall(r"^error: line search failed in process (\d+)$",
                       captured.err, re.M)
    assert int(pid) == os.getpid()
    assert captured.out.splitlines()[-1] == "RESULT fail stages= failures=1"
    _no_child_left()


def test_solution_reaches_the_worker_only_by_fork(monkeypatch, capsys):
    # the field goes to the worker in the fork's copy of this process,
    # never pickled: a run passes with a SaddleSolution that will not pickle
    def refuse(self, protocol):
        raise pickle.PicklingError("SaddleSolution pickled")

    monkeypatch.setattr(SaddleSolution, "__reduce_ex__", refuse)
    sol = newton_solve(DimensionParams(4), build_grid(8, 0.2))
    with pytest.raises(pickle.PicklingError):
        pickle.dumps(sol)
    assert main(["run"] + M_ARGS) == 0
    assert _last_line(capsys) == \
        "RESULT pass stages=solve,suite,supersolution,spectrum,rigor failures=0"
    _no_child_left()


def test_caller_never_imports_scipy_on_a_warm_cache(capsys):
    # with the field in the cache, only the spectrum needs scipy, and it runs
    # in the worker: a fresh interpreter runs all five stages and ends
    # without scipy
    assert main(["solve"] + M_ARGS) == 0
    capsys.readouterr()
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; from saddlecheck import cli; "
         "code = cli.main(sys.argv[1:]); "
         "print(code, sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy'))", "run"] + M_ARGS,
        env=_program_env(), capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[-2] == ("RESULT pass stages=solve,suite,supersolution,"
                         "spectrum,rigor failures=0")
    assert lines[-1] == "0 []"


class _Unrebuildable(Exception):
    def __init__(self, message, detail):
        super().__init__(message)


@pytest.mark.parametrize("exc, raised, message", [
    (ArithmeticError("not an M-matrix"), ArithmeticError, "not an M-matrix"),
    (_Unrebuildable("no convergence", 7), RuntimeError,
     "_Unrebuildable: no convergence"),
], ids=["picklable", "unrebuildable"])
def test_worker_exception_is_raised_here(exc, raised, message, monkeypatch,
                                         capfd):
    # this process's stage lines come first, no proof line follows, and
    # the worker's traceback is the cause
    _with_budget(monkeypatch, 500)

    def fail(asm):
        raise exc

    monkeypatch.setattr(cli, "min_eigenvalue", fail)
    with pytest.raises(raised, match=message) as info:
        main(["run"] + M_ARGS)
    assert "in fail" in str(info.value.__cause__)
    out = capfd.readouterr().out
    assert out.startswith("solve: ") and "rigor: " not in out
    _no_child_left()


def test_worker_dying_without_results_raises(monkeypatch, capsys):
    # the pool raises BrokenProcessPool, which ends the run like a failed
    # Newton solve
    _with_budget(monkeypatch, 500)
    monkeypatch.setattr(cli, "min_eigenvalue", lambda *args: os._exit(3))
    assert main(["run"] + M_ARGS) == 2
    captured = capsys.readouterr()
    assert re.search(r"^error: .*terminated abruptly", captured.err, re.M)
    assert captured.out.splitlines()[-1] == "RESULT fail stages= failures=1"
    assert not Path("out/report.json").exists()
    _no_child_left()


def test_failed_proof_kills_the_worker(monkeypatch, capsys):
    # the worker's eigensolve would sleep for a minute; an exception in
    # this process's proofs kills and reaps it instead of waiting
    monkeypatch.setattr(cli, "min_eigenvalue", lambda asm: time.sleep(60))

    def fail(*args, **kwargs):
        raise RuntimeError("prover fault")

    monkeypatch.setattr(cli, "prove_nonpositive", fail)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="prover fault"):
        main(["run"] + M_ARGS)
    assert time.monotonic() - t0 < 30
    _no_child_left()


_ORPHAN_RUN = """
import os, sys, time
from saddlecheck import cli

def eigensolve(asm):
    with open(sys.argv[1] + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(sys.argv[1] + ".tmp", sys.argv[1])
    time.sleep(60)

cli.min_eigenvalue = eigensolve
cli.main(sys.argv[2:])
"""


def _alive(pid):
    # a zombie has ended and waits only to be reaped by its new parent
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    return re.search(r"^State:\s+Z", status, re.M) is None


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads process states from /proc")
def test_worker_ends_with_a_killed_caller(tmp_path):
    # SIGKILL runs no handler in the caller; the kernel closes its end of
    # the pipe, and the worker, which would sleep for a minute, ends
    pid_file = tmp_path / "worker.pid"
    caller = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_RUN, str(pid_file), "run"] + M_ARGS,
        env=_program_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    worker = None
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() and time.monotonic() < deadline \
                and caller.poll() is None:
            time.sleep(0.05)
        worker = int(pid_file.read_text())
        caller.kill()
        caller.wait(timeout=10)
        deadline = time.monotonic() + 5
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _alive(worker)
    finally:
        caller.kill()
        caller.wait(timeout=10)
        if worker is not None and _alive(worker):
            os.kill(worker, signal.SIGKILL)
