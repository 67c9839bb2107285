"""Command-line pipeline: the stages solve, suite, supersolution, spectrum
and rigor, then the report.

Run settings come from command-line flags only.  Exit status is 0 iff every
requested verification passed; the last stdout line is always
machine-parseable (usage errors, a failed Newton solve and a spectrum
worker that died included; --help prints only the help):

    RESULT <pass|fail> stages=<csv> failures=<k>

k counts the report's 'failures', which one function derives from the
report's stage payloads; the certificate is derived from the same payloads
(run_stages).  With the spectrum stage, the eigensolve runs in a one-worker
process pool on the fork context while this process runs the suite, the
supersolution and the proofs.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import threading
import time
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, fields, replace
from pathlib import Path

from saddlecheck.cache import load_or_solve
from saddlecheck.checks import (run_inequality_suite, summary,
                                verify_supersolution)
from saddlecheck.grid import grid_size
from saddlecheck.params import CANDIDATE_DIMENSIONS, CandidateParams
from saddlecheck.reporting import (build_report, eig_to_dict, export_csv,
                                   export_signmaps, proof_to_dict,
                                   solver_to_dict, write_report)
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
    dictionary and the solution the stages ran on.  _failures derives the
    report's 'failures' from its stage payloads alone; stages.certificate,
    built on the payloads' check entries, is written exactly when the
    supersolution stage ran and that list is empty (so for --stages
    solve,supersolution too).

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
    print(f"solve: m={cfg.m} R={cfg.R:g} h={cfg.h:g} "
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
            entry = verify_supersolution(sol, CandidateParams(n=cfg.n))
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
            consistent = (eig["lambda_min"] > -0.01 if expect_stable
                          else eig["lambda_min"] < -0.001)
            stages["spectrum"] = eig | {"expect_stable": expect_stable,
                                        "sign_consistent": consistent}
            print(f"spectrum: lambda_min={eig['lambda_min']:+.6f} "
                  f"({'consistent' if consistent else 'INCONSISTENT'})")

    for p in stages.get("rigor", {}).get("proofs", []):
        secs = timing[f"rigor:{p['claim']}"]
        print(f"rigor: {p['claim']}: {p['status']} "
              f"({p['boxes_examined']} boxes, {secs:.2f} s, "
              f"{p['boxes_examined'] / secs:.0f} boxes/s)")

    failures = _failures(stages)
    if "supersolution" in stages and not failures:
        stages["certificate"] = stability_certificate(
            sol, CandidateParams(n=cfg.n),
            _checks(stages, "suite") + _checks(stages, "supersolution"))

    timing["wall"] = time.perf_counter() - t_start
    report = build_report(_config_echo(cfg), stages, timing, trace)
    report["failures"] = failures
    return report, sol


def _checks(stages: dict, name: str) -> list[dict]:
    """The check entries of stage name's payload; [] if it did not run."""
    return stages.get(name, {}).get("checks", [])


def _failures(stages: dict) -> list[str]:
    """The failed items of a run, read from its stage payloads: each failed
    suite check (suite:<id>), a failed supersolution check, an inconsistent
    spectrum sign, then each proof that is not proven (rigor:<claim>)."""
    verdicts = (
        [(f"suite:{c['id']}", c["passed"]) for c in _checks(stages, "suite")]
        + [("supersolution", c["passed"])
           for c in _checks(stages, "supersolution")]
        + [("spectrum",
            stages.get("spectrum", {}).get("sign_consistent", True))]
        + [(f"rigor:{p['claim']}", p["status"] == "proven")
           for p in stages.get("rigor", {}).get("proofs", [])])
    return [name for name, passed in verdicts if not passed]


@contextmanager
def _spectrum_worker(sol: SaddleSolution):
    """Forks a one-worker process pool on the fork context and yields the
    future of _spectrum() in it.  sol reaches the worker through the fork,
    in the initializer's arguments, which the fork context does not pickle.
    The worker exits once the one write end of a pipe, held here, closes:
    on an exception in the block, or when this process dies.  A worker
    that dies without a result raises BrokenProcessPool."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    sys.stdout.flush()                    # or the worker inherits the buffer
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    with ProcessPoolExecutor(1, multiprocessing.get_context("fork"),
                             initializer=_start_worker,
                             initargs=(read_fd, write_fd, sol)) as pool:
        try:
            yield pool.submit(_spectrum)
        except BaseException:
            os.close(write_fd)            # so leaving the block does not
            raise                         # wait for the eigensolve
        finally:
            os.close(read_fd)
    os.close(write_fd)


_forked_solution: SaddleSolution | None = None    # set in the worker


def _start_worker(read_fd: int, write_fd: int, sol: SaddleSolution) -> None:
    """Pool initializer: keeps sol for _spectrum, closes the worker's copy
    of the caller's write end and starts a thread that ends the worker at
    EOF on read_fd."""
    global _forked_solution
    _forked_solution = sol
    os.close(write_fd)

    def watch() -> None:
        os.read(read_fd, 1)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _spectrum() -> tuple[dict, float]:
    """The worker's task: eig_to_dict of the forked solution's principal
    eigenvalue estimate and the seconds it took.  An exception that would
    not unpickle goes back as _picklable(exc)."""
    t0 = time.perf_counter()
    try:
        est = min_eigenvalue(assemble(_forked_solution))
    except BaseException as exc:
        raise _picklable(exc)
    return eig_to_dict(est), time.perf_counter() - t0


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
            paths = export_signmaps(sol, CandidateParams(n=cfg.n), out)
            export_csv(sol.u, "u", cfg.h, out / "u.csv")
            for p in paths:
                print(f"plot: {p}")
        print(f"report: {write_report(report, out / 'report.json')}")
    except (ValueError, NewtonError, BrokenExecutor) as exc:
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
