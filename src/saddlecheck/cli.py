"""Command-line pipeline: the stages solve, suite, supersolution, spectrum
and rigor, then the report.

Run settings come from command-line flags only.  Exit status is 0 iff every
requested verification passed; the last stdout line is always
machine-parseable (usage errors and a failed Newton solve included; --help
prints only the help):

    RESULT <pass|fail> stages=<csv> failures=<k>
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
import time
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NoReturn

from saddlecheck.cache import load_or_solve
from saddlecheck.checks import (CheckReport, run_inequality_suite,
                                verify_supersolution)
from saddlecheck.grid import grid_size
from saddlecheck.params import CANDIDATE_DIMENSIONS, CandidateParams
from saddlecheck.reporting import (build_report, check_report_to_dict,
                                   eig_to_dict, export_csv, export_signmaps,
                                   proof_to_dict, solver_to_dict,
                                   write_report)
from saddlecheck.rigor import builtin_expressions, claims, prove_nonpositive
from saddlecheck.solver import NEWTON_TOL, NewtonError, SaddleSolution
from saddlecheck.spectral import (assemble, min_eigenvalue,
                                  stability_certificate)

ALL_STAGES = ("solve", "suite", "supersolution", "spectrum", "rigor")

# The largest m the Newton chain solves.  m <= 8 solves at R12 h.05, R16 h.1
# and R20 h.025; m = 9 fails with "line search failed" on all three (at R12
# h.05 on the h = 0.05 level), and m = 10-18 already fail at R12 h.1.  The
# one-level grid R8 h.2 solves up to m = 98: the (s t)^(m-1) weights are what
# give out, so the bound is fixed here, not a setting.
MAX_M = 8


@dataclass(frozen=True)
class RunConfig:
    m: int = 4
    R: float = 12.0
    h: float = 0.05
    stages: tuple = ALL_STAGES
    out: str = "out"
    cache: str | None = None           # None -> env var / default directory

    @property
    def n(self) -> int:
        return 2 * self.m

    def validated(self, command: str = "run") -> "RunConfig":
        """self, once the settings are checked for command; raises
        ValueError before any stage runs."""
        if not 1 <= self.m <= MAX_M:
            raise ValueError(f"the Newton chain solves m in 1..{MAX_M}, "
                             f"got m={self.m}")
        grid_size(self.R, self.h)
        unknown = set(self.stages) - set(ALL_STAGES)
        if unknown:
            raise ValueError(f"unknown stages: {sorted(unknown)}")
        needs_candidate = ({"suite", "supersolution", "rigor"}
                           & set(self.stages)) | ({"plot"} & {command})
        if needs_candidate and self.n not in CANDIDATE_DIMENSIONS:
            raise ValueError(f"the candidate (needed by "
                             f"{', '.join(sorted(needs_candidate))}) is "
                             f"defined for n in {CANDIDATE_DIMENSIONS}, "
                             f"got n={self.n}")
        return self


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig defaults, overridden by the flags given."""
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                        if getattr(args, f.name, None) is not None})


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def run_stages(cfg: RunConfig) -> tuple[dict, SaddleSolution]:
    """Execute the requested stages in dependency order; returns the report
    dictionary (also carries 'failures', a list of failed item names) and the
    solution the stages ran on.

    With the rigor stage, a worker forked on entry runs solve, suite,
    supersolution and spectrum while this process runs the proofs, which
    need neither the field nor scipy; the log keeps the stage order."""
    t_start = time.perf_counter()
    proofs = None
    if "rigor" in cfg.stages:
        with _NumericWorker(cfg) as worker:
            t0 = time.perf_counter()
            proofs = run_rigor(cfg)
            rigor_s = time.perf_counter() - t0
            num = worker.result()
    else:
        num = _numeric_stages(cfg, print)
    stages, timing, failures = num.stages, num.timing, num.failures

    trace = {}
    if proofs is not None:
        timing["rigor"] = rigor_s
        stages["rigor"] = {"proofs": proofs}
        trace["rigor"] = []
        for p in proofs:
            # the seconds and work counts leave the judged payload
            secs = timing[f"rigor:{p['claim']}"] = p.pop("seconds")
            trace["rigor"].append({"claim": p["claim"],
                                   "batches": p.pop("batches"),
                                   "max_depth": p.pop("max_depth")})
            print(f"rigor: {p['claim']}: {p['status']} "
                  f"({p['boxes_examined']} boxes, {secs:.2f} s, "
                  f"{p['boxes_examined'] / secs:.0f} boxes/s)")
            if p["status"] != "proven":
                failures.append(f"rigor:{p['claim']}")

    if num.super_report is not None and num.super_report.passed \
            and not failures:
        stages["certificate"] = stability_certificate(
            num.sol, CandidateParams(n=cfg.n),
            num.suite_reports + [num.super_report])

    timing["wall"] = time.perf_counter() - t_start
    report = build_report(_config_echo(cfg), stages, timing, trace)
    report["failures"] = failures
    return report, num.sol


@dataclass
class _NumericStages:
    """What solve, suite, supersolution and spectrum hand on: the report
    payload of each, its seconds, the failed items and the objects the
    certificate is built from."""
    sol: SaddleSolution
    stages: dict
    timing: dict
    failures: list
    suite_reports: list
    super_report: CheckReport | None


def _numeric_stages(cfg: RunConfig, emit) -> _NumericStages:
    """solve, then whichever of suite, supersolution and spectrum cfg asks
    for; each log line goes to emit."""
    stages: dict = {}
    timing: dict = {}
    failures: list[str] = []
    cand = CandidateParams(n=cfg.n) if cfg.n in CANDIDATE_DIMENSIONS else None

    t0 = time.perf_counter()
    sol, cached, rejected = load_or_solve(cfg.m, cfg.R, cfg.h,
                                          directory=cfg.cache)
    timing["solve"] = time.perf_counter() - t0
    stages["solve"] = solver_to_dict(sol) | {"from_cache": cached}
    if rejected is not None:
        stages["solve"]["cache_rejected"] = rejected
    emit(f"solve: m={cfg.m} R={cfg.R:g} h={cfg.h:g} "
         f"residual={sol.residual_norm:.3e} "
         f"cg_iters={stages['solve']['cg_iters']} "
         f"({'cache' if cached else _newton_summary(sol)})")

    suite_reports = []
    if "suite" in cfg.stages:
        t0 = time.perf_counter()
        suite_reports = run_inequality_suite(sol)
        timing["suite"] = time.perf_counter() - t0
        stages["suite"] = {"checks": [check_report_to_dict(r)
                                      for r in suite_reports]}
        for rep in suite_reports:
            emit("  " + rep.summary())
            if not rep.passed:
                failures.append(f"suite:{rep.id}")

    super_report = None
    if "supersolution" in cfg.stages:
        t0 = time.perf_counter()
        super_report = verify_supersolution(sol, cand)
        timing["supersolution"] = time.perf_counter() - t0
        stages["supersolution"] = {"checks":
                                   [check_report_to_dict(super_report)]}
        emit("  " + super_report.summary())
        if not super_report.passed:
            failures.append("supersolution")

    if "spectrum" in cfg.stages:
        t0 = time.perf_counter()
        est = min_eigenvalue(assemble(sol))
        timing["spectrum"] = time.perf_counter() - t0
        expect_stable = cfg.m >= 4
        consistent = (est.lambda_min > -0.01 if expect_stable
                      else est.lambda_min < -0.001)
        stages["spectrum"] = eig_to_dict(est) | {
            "expect_stable": expect_stable, "sign_consistent": consistent}
        emit(f"spectrum: lambda_min={est.lambda_min:+.6f} "
             f"({'consistent' if consistent else 'INCONSISTENT'})")
        if not consistent:
            failures.append("spectrum")

    return _NumericStages(sol, stages, timing, failures, suite_reports,
                         super_report)


class WorkerError(RuntimeError):
    """The numeric-stage worker ended without sending its results."""


class _RemoteTraceback(Exception):
    """The worker's traceback, set as the cause of an exception it raised."""

    def __str__(self) -> str:
        return self.args[0]


class _NumericWorker:
    """_numeric_stages(cfg) in a process forked on entry.

    result() waits for the worker, prints the lines it logged and returns
    its _NumericStages, or raises the exception it raised; leaving the block
    kills and reaps a worker that is still there.  The worker leaves through
    os._exit, so no handler or finally block of the forked caller runs
    twice, and it exits when the pipe to this process is broken.  The fork
    comes before the first scipy import, so the worker's import overlaps
    the proofs too; numpy's OpenBLAS makes its own thread pool safe to
    fork."""

    def __init__(self, cfg: RunConfig):
        sys.stdout.flush()                # or the worker inherits the buffer
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(read_fd)
            _serve(cfg, write_fd)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")

    def __enter__(self) -> "_NumericWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None

    def result(self) -> _NumericStages:
        try:
            lines, value, error, remote_tb = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            lines = None
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if lines is None:
            raise WorkerError(f"the numeric-stage worker exited with status "
                              f"{os.waitstatus_to_exitcode(status)} without "
                              f"sending its results")
        for line in lines:
            print(line)
        if error is not None:
            error.__cause__ = _RemoteTraceback(remote_tb)
            raise error
        return value


def _serve(cfg: RunConfig, write_fd: int) -> NoReturn:
    """The worker's whole life: run the numeric stages and send (log lines,
    _NumericStages or None, exception or None, its traceback text) down
    write_fd, pickled."""
    code = 1
    try:
        lines: list[str] = []
        try:
            payload = (lines, _numeric_stages(cfg, lines.append), None, None)
        except BaseException as exc:      # re-raised by the parent
            payload = (lines, None, _picklable(exc),
                       "".join(traceback.format_exception(exc)))
        with open(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _picklable(exc: BaseException) -> BaseException:
    """exc, or a RuntimeError with its type and message when exc's args do
    not rebuild it (scipy's ArpackNoConvergence, for one)."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


def _newton_summary(sol: SaddleSolution) -> str:
    """'3 Newton iters, started from h=0.1 (3) and h=0.2 (11)': Newton
    steps per level."""
    text = f"{sol.newton_iters} Newton iters"
    if sol.coarse_iters:
        *finer, coarsest = [f"h={h:g} ({iters})"
                            for h, iters in sol.coarse_iters]
        chain = f"{', '.join(finer)} and {coarsest}" if finer else coarsest
        text += f", started from {chain}"
    return text


def run_rigor(cfg: RunConfig) -> list[dict]:
    """Interval proofs of the claims in rigor.claims(n), in table order; a
    defect entry also names the upper end a_max of its a-range.  Each entry
    also holds the proof's wall seconds, batch count and deepest bisection
    (seconds, batches, max_depth)."""
    cat = builtin_expressions(cfg.n)
    proofs = []
    for label, key, kwargs in claims(cfg.n):
        t0 = time.perf_counter()
        res = prove_nonpositive(cat[key], **kwargs)
        entry = proof_to_dict(res, label)
        entry.update(seconds=time.perf_counter() - t0, batches=res.batches,
                     max_depth=res.max_depth)
        if key == "defect_gap":
            entry["a_max"] = kwargs["box"][kwargs["names"].index("a")][1]
        proofs.append(entry)
    return proofs


def _config_echo(cfg: RunConfig) -> dict:
    return {"m": cfg.m, "n": cfg.n, "R": cfg.R, "h": cfg.h, "tol": NEWTON_TOL,
            "stages": list(cfg.stages), "out": cfg.out}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, help="factor dimension (n = 2m)")
    p.add_argument("--R", type=float, help="truncation radius")
    p.add_argument("--h", type=float, help="grid spacing (R/h integer)")
    p.add_argument("--out", help="output directory for report.json (plot: "
                                 "also the maps and u.csv); default out")
    p.add_argument("--cache", help="solution cache directory "
                                   "(default: $SADDLECHECK_CACHE_DIR)")


def _stage_list(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlecheck",
        description="Solve and verify Allen-Cahn saddle solutions in the "
                    "doubly-radial reduction.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": "solve the reduced PDE and cache the field",
        "plot": "emit the six diagnostic SVG maps and u.csv",
        "run": "full pipeline (solve, suite, supersolution, spectrum, rigor), "
               "or the --stages given",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "run":
            p.add_argument("--stages", type=_stage_list,
                           help="comma-separated subset of: "
                                + ",".join(ALL_STAGES))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if not exc.code:                # --help
            raise
        # argparse has printed the usage error on stderr
        print("RESULT fail stages= failures=1")
        return 2
    try:
        cfg = resolve_config(args)
        if args.command != "run":
            cfg = replace(cfg, stages=("solve",))
        cfg = cfg.validated(args.command)
        report, sol = run_stages(cfg)
        out = Path(cfg.out)
        if args.command == "plot":
            paths = export_signmaps(sol, CandidateParams(n=cfg.n), out)
            export_csv(sol.u, "u", cfg.h, out / "u.csv")
            for p in paths:
                print(f"plot: {p}")
        print(f"report: {write_report(report, out / 'report.json')}")
    except (ValueError, NewtonError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("RESULT fail stages= failures=1")
        return 2
    failures = report["failures"]
    status = "pass" if not failures else "fail"
    print(f"RESULT {status} stages={','.join(cfg.stages)} "
          f"failures={len(failures)}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
