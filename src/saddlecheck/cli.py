"""Command-line pipeline: the stages solve, suite, supersolution, spectrum
and rigor, then the report.

Run settings come from command-line flags only.  Exit status is 0 iff every
requested verification passed, 1 if one failed, and 2, with 'error: ...' on
stderr and no report, if the run could not finish: a usage or configuration
error (a grid above grid.N_MAX among them), a failed Newton solve, a
spectrum worker that died or raised spectral.MMatrixError (the pencil breaks
a premise of the bracket, the iteration did not settle, its last iterate is
not positive, or the bracket's rounded lower end is not above the last
shift sigma, which then lay above lambda_min), an OSError
(say --out under a file) or a MemoryError, in this process or the worker.
The last stdout line is then machine-parseable (--help prints only the
help, and any other exception propagates with its traceback):

    RESULT <pass|fail> stages=<csv> failures=<k>

k counts the report's 'failures', which reporting.verdict derives from the
report's stage payloads together with the certificate (run_stages).  With
the spectrum stage, the eigensolve runs in a child forked with os.fork,
which sends its result back through a socket pair, while this process runs
the suite, the supersolution and the proofs.
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import socket
import sys
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NoReturn

from saddlecheck.cache import format_exact, load_or_solve
from saddlecheck.candidate import CANDIDATE_DIMENSIONS
from saddlecheck.checks import (run_inequality_suite, summary,
                                verify_supersolution)
from saddlecheck.grid import grid_size
from saddlecheck.reporting import (build_report, eig_to_dict, export_csv,
                                   export_signmaps, proof_to_dict,
                                   solver_to_dict, verdict, write_report)
from saddlecheck.rigor import builtin_expressions, claims, prove_nonpositive
from saddlecheck.solver import NEWTON_TOL, NewtonError, SaddleSolution
from saddlecheck.spectral import MMatrixError, assemble, min_eigenvalue

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
    dictionary and the solution the stages ran on.  reporting.verdict
    derives the report's 'failures' and stages.certificate from the stage
    payloads alone: the certificate is written exactly when nothing failed
    and the supersolution stage ran (so for --stages solve,supersolution
    too).

    This process solves (cache load or Newton).  With the spectrum stage it
    then forks a worker (_spectrum_worker) that assembles the pencil and
    runs the eigensolve, the one stage that needs scipy.sparse.linalg and
    the LU, while this process runs the suite, the supersolution and the
    proofs.  The spectrum line prints when the worker's payload and seconds
    are back, so the lines keep the stage order.  run_rigor's entries,
    seconds and work counts go into stages.rigor, timing and trace as they
    are."""
    t_start = time.perf_counter()
    stages, timing, trace = {}, {}, {}
    t0 = time.perf_counter()
    sol, cached, rejected = load_or_solve(cfg.m, cfg.R, cfg.h,
                                          directory=cfg.cache)
    timing["solve"] = time.perf_counter() - t0
    stages["solve"] = solver_to_dict(sol) | {"from_cache": cached}
    if rejected is not None:
        stages["solve"]["cache_rejected"] = rejected
    print(f"solve: m={cfg.m} R={format_exact(cfg.R)} h={format_exact(cfg.h)} "
          f"residual={sol.residual_norm:.3e} "
          f"cg_iters={stages['solve']['cg_iters']} "
          f"({'cache' if cached else _newton_summary(sol)})")

    with (_spectrum_worker(sol) if "spectrum" in cfg.stages
          else nullcontext()) as spectrum:
        if "suite" in cfg.stages:
            t0 = time.perf_counter()
            entries = run_inequality_suite(sol)
            timing["suite"] = time.perf_counter() - t0
            stages["suite"] = {"checks": entries}
            for entry in entries:
                print("  " + summary(entry))

        if "supersolution" in cfg.stages:
            t0 = time.perf_counter()
            entry = verify_supersolution(sol)
            timing["supersolution"] = time.perf_counter() - t0
            stages["supersolution"] = {"checks": [entry]}
            print("  " + summary(entry))

        if "rigor" in cfg.stages:
            t0 = time.perf_counter()
            proofs, proof_s, trace["rigor"] = run_rigor(cfg)
            timing["rigor"] = time.perf_counter() - t0
            timing |= proof_s
            stages["rigor"] = {"proofs": proofs}

        if spectrum is not None:
            eig, timing["spectrum"] = spectrum.result()
            expect_stable = cfg.m >= 4
            consistent = (eig["lower"] > 0.0 if expect_stable
                          else eig["lambda_min"] < 0.0)
            stages["spectrum"] = eig | {"expect_stable": expect_stable,
                                        "sign_consistent": consistent}
            print(f"spectrum: lambda_min={eig['lambda_min']:+.6f} "
                  f"lower={eig['lower']:+.6f} "
                  f"({'consistent' if consistent else 'INCONSISTENT'})")

    for p in stages.get("rigor", {}).get("proofs", []):
        secs = timing[f"rigor:{p['claim']}"]
        print(f"rigor: {p['claim']}: {p['status']} "
              f"({p['boxes_examined']} boxes, {secs:.2f} s, "
              f"{p['boxes_examined'] / secs:.0f} boxes/s)")

    failures, certificate = verdict(sol, stages)
    if certificate is not None:
        stages["certificate"] = certificate

    timing["wall"] = time.perf_counter() - t_start
    report = build_report(_config_echo(cfg), stages, timing, trace)
    report["failures"] = failures
    return report, sol


@contextmanager
def _spectrum_worker(sol: SaddleSolution):
    """Forks a child that runs the eigensolve (_spectrum_child) and yields
    the _Worker that reads its reply.  sol reaches the child in the fork's
    copy of this process and is never pickled; one pickle comes back through
    a socket pair.  The child ends once this process's end closes, so when
    this process dies, and a block left before result() kills and reaps
    it."""
    sys.stdout.flush()                    # or the child inherits the buffer
    sys.stderr.flush()
    here, there = socket.socketpair()
    with here:
        with there:
            pid = os.fork()
            if pid == 0:
                _spectrum_child(here, there, sol)
        worker = _Worker(pid, here)
        try:
            yield worker
        finally:
            if worker.pid is not None:    # not reaped by result()
                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)


def _spectrum_child(here: socket.socket, there: socket.socket,
                    sol: SaddleSolution) -> NoReturn:
    """Sends one pickle back on there, (eig_to_dict of sol's principal
    eigenvalue estimate, seconds) or (_picklable(exc), traceback text), and
    leaves through os._exit on every path, never into the caller's frames."""
    code = 1
    try:
        here.close()

        def watch() -> None:              # EOF: the caller's end is closed
            there.recv(1)
            os._exit(1)

        threading.Thread(target=watch, daemon=True).start()
        t0 = time.perf_counter()
        try:
            est = min_eigenvalue(assemble(sol))
            reply = eig_to_dict(est), time.perf_counter() - t0
        except BaseException as exc:
            reply = _picklable(exc), traceback.format_exc()
        there.sendall(pickle.dumps(reply))
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


class _WorkerTraceback(Exception):
    """The text of a traceback in the spectrum worker."""


@dataclass
class _Worker:
    """This process's side of the forked spectrum child."""
    pid: int | None                       # None once the child is reaped
    conn: socket.socket

    def result(self) -> tuple[dict, float]:
        """The child's reply, read to EOF, once it has exited; raises its
        exception, or ChildProcessError if it exited without a reply."""
        data = b"".join(iter(lambda: self.conn.recv(1 << 16), b""))
        code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if code != 0 or not data:
            raise ChildProcessError(f"spectrum worker terminated abruptly "
                                    f"(exit status {code})")
        value, detail = pickle.loads(data)
        if isinstance(value, BaseException):
            raise value from _WorkerTraceback(detail)
        return value, detail


def _picklable(exc: BaseException) -> BaseException:
    """exc, or a RuntimeError with its type and message when exc's args do
    not rebuild it."""
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
        *finer, coarsest = [f"h={format_exact(h)} ({iters})"
                            for h, iters in sol.coarse_iters]
        chain = f"{', '.join(finer)} and {coarsest}" if finer else coarsest
        text += f", started from {chain}"
    return text


def run_rigor(cfg: RunConfig) -> tuple[list[dict], dict, list[dict]]:
    """Interval proofs of the claims in rigor.claims(n), in table order.
    Returns the report entries (a defect entry also names the upper end
    a_max of its a-range), the wall seconds of each proof keyed
    rigor:<claim>, and the trace entry {claim, batches, max_depth} of
    each."""
    cat = builtin_expressions(cfg.n)
    proofs, seconds, trace = [], {}, []
    for label, key, kwargs in claims(cfg.n):
        t0 = time.perf_counter()
        res = prove_nonpositive(cat[key], **kwargs)
        seconds[f"rigor:{label}"] = time.perf_counter() - t0
        entry = proof_to_dict(res, label)
        if key == "defect_gap":
            entry["a_max"] = kwargs["box"][kwargs["names"].index("a")][1]
        proofs.append(entry)
        trace.append({"claim": label, "batches": res.batches,
                      "max_depth": res.max_depth})
    return proofs, seconds, trace


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
            paths = export_signmaps(sol, out)
            export_csv(sol.u, "u", cfg.h, out / "u.csv")
            for p in paths:
                print(f"plot: {p}")
        print(f"report: {write_report(report, out / 'report.json')}")
    except (ValueError, NewtonError, MMatrixError, OSError,
            MemoryError) as exc:
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
