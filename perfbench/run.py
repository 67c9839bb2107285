"""The saddlecheck benchmark.

    python3 perfbench/run.py --workload certify|scale --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each op is one fresh
`python -m saddlecheck.cli` process, started only after the previous one has
exited; BLAS/OpenMP pools are pinned to one thread.  The loop repeats whole
passes over the workload's ops until `--seconds` have been measured (at least
one pass, and never past the 180 s a run may take).  Every op's exit code,
RESULT line and report.json go through `checker.py`.

Workloads (see NOTES.md for why each was chosen):

* certify: `saddlecheck run --m M --R 12 --h 0.05` for M = 4, 5, 6, the
  product itself.  Set-up fills a solution cache with three
  `saddlecheck solve` runs, so the timed ops load the field and spend their
  time in the suite, the candidate, the spectrum and above all the interval
  proofs.  The seed only shuffles the order of the three dimensions.
* scale: `saddlecheck run --m 4 --R 20 --h 0.025` without the rigor stage,
  on an empty cache per op: 319,600 Newton unknowns, 638,401 spectral dofs.
  The seed is not used; the problem is fixed by the paper.
* tiny: m = 4, R = 8, h = 0.2, rigor omitted.  Only for `selfcheck.py`.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run (see
`layer_metrics`).  Everything the benchmark writes goes under
`.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from checker import Expect, HashBook, Verdict, check_op, read_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0    # a run must end within 180 s
SETUP_BUDGET_S = 10.0  # a third set-up is made while set-ups took less
IMPORT_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
FULL_STAGES = ("solve", "suite", "supersolution", "spectrum", "rigor")
NO_RIGOR = FULL_STAGES[:-1]

UNITS = (("_per_s", "1/s"), ("_s", "s"), (".s", "s"), ("_mb", "MB"),
         ("_frac", "frac"), ("_residual", "rel"))
CLAIMS = ("defect_d3", "defect_d4", "defect_d5", "c_s", "c_ss", "c_st")
LAYERS = ("import", "cli", "cache", "solver", "candidate", "checks",
          "spectral", "rigor")
OP_NAMES = ("certify_n8", "certify_n10", "certify_n12", "scale")


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple                   # saddlecheck arguments, minus --cache/--out
    expect: Expect | None = None  # None: a set-up op, judged by its exit code
    fresh_cache: bool = False     # True: the op gets an empty cache


@dataclass(frozen=True)
class Workload:
    setup: tuple                  # ops that fill the cache, in order
    ops: tuple                    # one pass


@dataclass
class OpRun:
    op: Op
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    report: dict | None
    verdict: Verdict | None = None
    spans: dict | None = None


def _grid(R, h):
    return ("--R", str(R), "--h", str(h))


def certify(seed: int) -> Workload:
    ms = [4, 5, 6]
    random.Random(seed).shuffle(ms)
    grid = _grid(12, 0.05)
    return Workload(
        setup=tuple(Op(f"solve_m{m}", ("solve", "--m", str(m)) + grid)
                    for m in (4, 5, 6)),
        ops=tuple(Op(f"certify_n{2 * m}", ("run", "--m", str(m)) + grid,
                     Expect(FULL_STAGES, 4 if m == 4 else 1)) for m in ms))


def scale(seed: int) -> Workload:
    return Workload(setup=(), ops=(
        Op("scale", ("run", "--m", "4") + _grid(20, 0.025)
           + ("--stages", ",".join(NO_RIGOR)),
           Expect(NO_RIGOR, None), fresh_cache=True),))


def tiny(seed: int) -> Workload:
    grid = _grid(8, 0.2)
    return Workload(
        setup=(Op("solve_m4", ("solve", "--m", "4") + grid),),
        ops=(Op("tiny", ("run", "--m", "4") + grid
                + ("--stages", ",".join(NO_RIGOR)), Expect(NO_RIGOR, None)),))


WORKLOADS = {"certify": certify, "scale": scale, "tiny": tiny}


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               TMPDIR=str(run_dir / "tmp"),
               # every op also passes --cache; this keeps a stray default
               # away from ./.saddlecheck_cache all the same
               SADDLECHECK_CACHE_DIR=str(run_dir / "default_cache"))
    return env


def spawn(argv, cwd: Path, env: dict, deadline: float):
    """Run argv to completion; returns (exit code, wall s, peak RSS MB,
    stdout+stderr).  The child is killed at `deadline` (time.monotonic)."""
    cwd.mkdir(parents=True, exist_ok=True)
    log = cwd / "stdout.txt"
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_maxrss / 1024.0,
            log.read_text(errors="replace"))


class Runner:
    """One benchmark run: its directories, environment and deadline."""

    def __init__(self, name: str, deadline: float):
        self.dir = WORK / "runs" / name
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self.env = child_env(self.dir)
        self.deadline = deadline
        self.count = 0
        self.setup_runs: list[OpRun] = []

    def op(self, op: Op, cache: Path, traced: bool = False) -> OpRun:
        self.count += 1
        op_dir = self.dir / f"{self.count:03d}-{op.name}"
        if op.fresh_cache:
            cache = op_dir / "cache"
        args = [*op.argv, "--cache", str(cache), "--out", str(op_dir / "out")]
        if traced:
            spans = op_dir / "spans.json"
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans),
                    op.name, "--", *args]
        else:
            argv = [sys.executable, "-m", "saddlecheck.cli", *args]
        code, wall, rss, out = spawn(argv, op_dir, self.env, self.deadline)
        run = OpRun(op, code, wall, rss, out,
                    read_json(op_dir / "out" / "report.json"))
        if op.expect is not None:
            run.verdict = check_op(op.expect, code, out, run.report)
        if traced:
            run.spans = read_json(spans)
        return run

    def setup(self, wl: Workload, cache: Path, traced: bool = False) -> float:
        """Fill `cache`; returns the wall time.  Raises on a failed op.

        A workload without set-up ops still starts one interpreter that
        imports the program: that compiles the bytecode a fresh checkout
        lacks, so set-up is never empty."""
        t0 = time.perf_counter()
        if not wl.setup:
            code, _, _, out = spawn(
                [sys.executable, "-c", "import saddlecheck.cli"],
                self.dir / "probe", self.env, self.deadline)
            if code != 0:
                raise SetupError(f"import failed:\n{out}")
        for op in wl.setup:
            run = self.op(op, cache, traced)
            if run.code != 0:
                raise SetupError(f"{op.name} exited {run.code}:\n{run.stdout}")
            self.setup_runs.append(run)
        return time.perf_counter() - t0

    def pass_(self, wl: Workload, cache: Path, traced: bool = False) -> list:
        return [self.op(op, cache, traced) for op in wl.ops]

    def passes(self, wl: Workload, cache: Path, seconds: float) -> list:
        """Closed loop: whole passes until `seconds` are measured."""
        done, t0 = [], time.monotonic()
        while True:
            runs = self.pass_(wl, cache)
            done.append(runs)
            took = sum(r.wall_s for r in runs)
            timed_out = any(r.code < 0 for r in runs)
            if (timed_out or time.monotonic() - t0 >= seconds
                    or time.monotonic() + took > self.deadline):
                return done


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "sympy": version("sympy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "threads": 1, "git_commit": commit or "none (not a git checkout)",
            "source_sha256": source_sha256()}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def summary(label: str, values: list) -> str:
    return (f"{label}: median {statistics.median(values):.4f} "
            f"max {max(values):.4f} n {len(values)}")


def judge(runs: list, book: HashBook) -> tuple[list, list]:
    """(lines to print, integrity problems) for a list of OpRuns."""
    lines, problems = [], []
    for r in runs:
        v = r.verdict
        v.integrity.extend(book.note(r.op.name, r.report))
        state = "ok" if not v.failures else "FAILED"
        lines.append(f"op {r.op.name}: {state} exit {r.code} "
                     f"{r.wall_s:.3f} s {r.rss_mb:.0f} MB")
        lines.extend(f"  failure: {f}" for f in v.failures)
        lines.extend(f"  INTEGRITY: {p}" for p in v.integrity)
        problems.extend(f"{r.op.name}: {p}" for p in v.integrity)
    return lines, problems


def untraced(wl: Workload, runner: Runner, seconds: float) -> dict:
    setup_s, cache, t0 = [], None, time.monotonic()
    # several set-ups, each into a fresh cache: at least 2, and 3 while
    # they are cheap (under SETUP_BUDGET_S in all)
    while len(setup_s) < 2 or (len(setup_s) < 3
                               and time.monotonic() - t0 < SETUP_BUDGET_S):
        cache = runner.dir / f"setup{len(setup_s)}" / "cache"
        setup_s.append(runner.setup(wl, cache))
    passes = runner.passes(wl, cache, seconds)
    runs = [r for p in passes for r in p]
    pass_s = [sum(r.wall_s for r in p) for p in passes]
    failed = sum(not r.verdict.ok for r in runs)
    walls = op_walls(runs)
    lines = [summary("setup_s", setup_s), summary("pass_s", pass_s)]
    lines += [summary(f"{name}_s", w) for name, w in walls.items()]
    lines.append(f"failed_frac: {failed}/{len(runs)}")
    return {"runs": runs, "lines": lines, "failed": failed,
            "reference": {"pass_s": pass_s, "op_s": walls,
                          "boxes": proof_boxes(runs)},
            "metrics": {"setup_s": statistics.median(setup_s),
                        "pass_s": statistics.median(pass_s),
                        "peak_rss_mb": max(r.rss_mb for r in runs),
                        "ok_frac": (len(runs) - failed) / len(runs)}}


def op_walls(runs: list) -> dict:
    walls = {}
    for r in runs:
        walls.setdefault(r.op.name, []).append(r.wall_s)
    return walls


def proof_boxes(runs: list) -> dict:
    """boxes_examined of every proof, in order, per op name."""
    return {r.op.name: [p["boxes_examined"] for p in
                        (r.report or {}).get("stages", {})
                        .get("rigor", {}).get("proofs", [])] for r in runs}


def import_times(runner: Runner) -> dict:
    """Median of fresh-interpreter `-X importtime` probes: cumulative
    seconds of the top-level saddlecheck imports and of sympy."""
    pkg, sym = [], []
    for k in range(IMPORT_PROBES):
        code, _, _, out = spawn(
            [sys.executable, "-X", "importtime", "-c", "import saddlecheck.cli"],
            runner.dir / f"importtime{k}", runner.env, runner.deadline)
        if code != 0:
            raise SetupError(f"import failed:\n{out}")
        total, sympy_us = 0, 0
        for line in out.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line.split("|")
            if name.strip().startswith("saddlecheck") and \
                    not name[1:].startswith(" "):
                total += int(cumulative)
            if name.strip() == "sympy" and not sympy_us:
                sympy_us = int(cumulative)
        pkg.append(total / 1e6)
        sym.append(sympy_us / 1e6)
    return {"import.saddlecheck_s": statistics.median(pkg),
            "import.sympy_s": statistics.median(sym)}


def layer_metrics(traced_runs: list) -> tuple[dict, list]:
    """Per-layer metrics from the spans of traced ops; also returns what
    could not be traced (wrap targets or counts the program no longer has).

    `<layer>.<function>_s` is the summed duration of that function's spans
    (children included); `<layer>.self_s` is the layer's self time: its
    spans' durations minus the part their child spans cover.  Sizes
    (unknowns, dofs, nnz) are maxima; counts are totals over the ops.
    """
    spans, missing, covered = [], set(), {}
    for seq, r in enumerate(traced_runs):
        missing.update((r.spans or {}).get("missing", []))
        for s in (r.spans or {}).get("spans", []):
            spans.append(dict(s, seq=seq, dur=s["end"] - s["start"]))
            if "describe_error" in s:
                missing.add(f"counts of {s['name']} ({s['describe_error']})")
    for s in spans:
        if s["parent"] is not None:
            key = (s["seq"], s["parent"])
            covered[key] = covered.get(key, 0.0) + s["dur"]

    def self_time(s):
        return s["dur"] - covered.get((s["seq"], s["id"]), 0.0)

    def pick(name, **match):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    def dur(name, **match):
        return sum(s["dur"] for s in pick(name, **match))

    def biggest(name, key):
        return max((s.get(key, 0) for s in pick(name)), default=0)

    out = {
        "solver.newton_s": dur("solver.newton_solve"),
        "solver.newton_iters": sum(s.get("iters", 0)
                                   for s in pick("solver.newton_solve")),
        "solver.unknowns": biggest("solver.newton_solve", "unknowns"),
        "solver.derivatives_s": dur("solver.compute_derivatives"),
        "cache.load_s": dur("cache.load_solution"),
        "cache.save_s": dur("cache.save_solution"),
        "cache.hits": len(pick("cache.load_or_solve", hit=True)),
        "cache.misses": len(pick("cache.load_or_solve", hit=False)),
        "candidate.compile_s": dur("candidate.compile"),
        "candidate.eval_s": sum(
            self_time(s) for s in spans if s["name"].startswith("candidate.")
            and s["name"] != "candidate.compile"),
        "candidate.points": sum(s.get("points", 0)
                                for s in pick("candidate.coefficient_set")),
        "checks.suite_s": dur("checks.run_inequality_suite"),
        "checks.suite_checks": sum(s.get("checks", 0) for s in
                                   pick("checks.run_inequality_suite")),
        "checks.supersolution_s": dur("checks.verify_supersolution"),
        "spectral.assemble_s": dur("spectral.assemble"),
        "spectral.dofs": biggest("spectral.assemble", "dofs"),
        "spectral.nnz": biggest("spectral.assemble", "nnz"),
        "spectral.eig_s": dur("spectral.min_eigenvalue"),
        "spectral.eig_residual": biggest("spectral.min_eigenvalue",
                                         "residual"),
    }
    for n in (8, 10, 12):
        out[f"rigor.catalog_n{n}_s"] = dur("rigor.builtin_expressions", n=n)
    for claim in CLAIMS:
        proofs = pick("rigor.prove_nonpositive", claim=claim)
        secs = sum(s["dur"] for s in proofs)
        boxes = sum(s.get("boxes", 0) for s in proofs)
        out[f"rigor.{claim}.s"] = secs
        out[f"rigor.{claim}.boxes"] = boxes
        out[f"rigor.{claim}.boxes_per_s"] = boxes / secs if secs else 0.0
        out[f"rigor.{claim}.undecided"] = sum(s.get("undecided", 0)
                                              for s in proofs)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            self_time(s) for s in spans if s["name"].split(".")[0] == layer)
    return out, sorted(missing)


def reference(workload: str, source_sha: str) -> dict | None:
    """The untraced figures of this workload and source from earlier runs in
    this checkout: every pass and op time, and the boxes of the latest run."""
    ref = None
    for path in sorted((WORK / "results").glob(f"{workload}-*.json")):
        rec = read_json(path) or {}
        old = rec.get("reference")
        if (rec.get("trace") != 0 or not rec.get("correct") or not old
                or rec.get("env", {}).get("source_sha256") != source_sha):
            continue
        ref = ref or {"pass_s": [], "op_s": {}, "boxes": {}}
        ref["pass_s"] += old["pass_s"]
        for name, walls in old["op_s"].items():
            ref["op_s"].setdefault(name, []).extend(walls)
        ref["boxes"] = old["boxes"]
    return ref


def traced(wl: Workload, runner: Runner, workload: str,
           source_sha: str) -> dict:
    """Import probes, a traced set-up and one traced pass.

    The untraced reference is every untraced run of the same workload and
    source already made in this checkout; when there is none, one untraced
    pass is made here first.  Tracing overhead is the traced pass minus the
    median untraced pass, and the traced proofs must examine exactly the
    boxes the untraced reports recorded."""
    metrics = import_times(runner)
    cache = runner.dir / "setup" / "cache"
    runner.setup(wl, cache, traced=True)
    ref, plain = reference(workload, source_sha), []
    if ref is None:
        plain = runner.pass_(wl, cache)
        ref = {"pass_s": [sum(r.wall_s for r in plain)],
               "op_s": op_walls(plain), "boxes": proof_boxes(plain)}
    runs = runner.pass_(wl, cache, traced=True)
    layers, missing = layer_metrics(runner.setup_runs + runs)
    metrics.update(layers)
    plain_s = statistics.median(ref["pass_s"])
    traced_s = sum(r.wall_s for r in runs)
    metrics.update({"trace.pass_untraced_s": plain_s,
                    "trace.pass_traced_s": traced_s,
                    "trace.overhead_s": traced_s - plain_s})
    metrics.update({f"op.{name}_s": statistics.median(ref["op_s"][name])
                    if name in ref["op_s"] else 0.0 for name in OP_NAMES})
    traced_boxes = {r.op.name: [s.get("boxes", 0) for s in
                                (r.spans or {}).get("spans", [])
                                if s["name"] == "rigor.prove_nonpositive"]
                    for r in runs}
    problems = [f"{name}: traced proofs examined {boxes} boxes, untraced "
                f"{ref['boxes'].get(name)}"
                for name, boxes in traced_boxes.items()
                if boxes != ref["boxes"].get(name)]
    failed = sum(not r.verdict.ok for r in plain + runs)
    lines = [f"trace: not traced: {', '.join(missing) or 'nothing'}",
             f"trace: untraced reference: {len(ref['pass_s'])} pass(es)",
             f"trace: overhead {traced_s - plain_s:+.3f} s on a "
             f"{plain_s:.3f} s pass"]
    spans = [s for r in runner.setup_runs + runs
             for s in (r.spans or {}).get("spans", [])]
    return {"runs": plain + runs, "lines": lines, "failed": failed,
            "metrics": metrics, "problems": problems, "spans": spans}


def metric_unit(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "saddlecheck" / "cli.py").is_file():
        print(f"error: no saddlecheck sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    env = environment()
    wl = WORKLOADS[args.workload](args.seed)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(name, deadline)
    book = HashBook(WORK / "solution_hashes.json", env["source_sha256"])
    try:
        result = (traced(wl, runner, args.workload, env["source_sha256"])
                  if args.trace else untraced(wl, runner, args.seconds))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    lines, problems = judge(result["runs"], book)
    problems += result.get("problems", [])
    book.save()

    print("env: " + json.dumps(env, sort_keys=True))
    for line in lines + result["lines"]:
        print(line)
    for p in problems:
        print(f"INTEGRITY: {p}")
    record = {"correct": not problems, "attempted": len(result["runs"]),
              "failed": result["failed"],
              "metrics": {k: {"value": v, "unit": metric_unit(k)}
                          for k, v in result["metrics"].items()}}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{name}-{stamp}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "env": env, "lines": lines + result["lines"], "problems": problems,
         "reference": result.get("reference"), "spans": result.get("spans"),
         **record},
        indent=1, sort_keys=True))
    shutil.rmtree(runner.dir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
