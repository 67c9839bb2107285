"""Self-check of the benchmark's own code; takes well under a minute.

    python3 perfbench/selfcheck.py

1. The checker rejects doctored reports: a flipped `passed`, a negative
   lambda_min on scale, a missing proof and a mismatched field hash; it
   counts an honest failure (exit 1, failure named) as failed, not as an
   integrity problem.
2. The whole harness runs on the tiny grid (m = 4, R = 8, h = 0.2, rigor
   omitted), untraced and traced, and its result lines carry exactly the
   metrics BENCHMARK.json names.
3. In a directory that holds only BENCHMARK.json and perfbench/, the
   harness exits non-zero without printing a result.

Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time

import run
from checker import Expect, HashBook, check_op

PROBLEMS = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        PROBLEMS.append(what)


def result_line(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def doctored_reports() -> None:
    runner = run.Runner("selfcheck", time.monotonic() + 120)
    wl = run.tiny(0)
    cache = runner.dir / "cache"
    runner.setup(wl, cache)
    base = runner.op(wl.ops[0], cache)
    expect(base.verdict.ok, "the tiny op passes the checker")
    good = base.report
    stdout = base.stdout
    scale = Expect(run.NO_RIGOR, None)

    flipped = copy.deepcopy(good)
    flipped["stages"]["suite"]["checks"][3]["passed"] = False
    v = check_op(scale, 0, stdout, flipped)
    expect(not v.ok and v.integrity, "a flipped `passed` under RESULT pass "
                                     "is rejected as a false pass")

    negative = copy.deepcopy(good)
    negative["stages"]["spectrum"]["lambda_min"] = -0.02
    expect(not check_op(scale, 0, stdout, negative).ok,
           "a negative lambda_min on scale is rejected")

    full = copy.deepcopy(good)
    full["config"]["stages"] = list(run.FULL_STAGES)
    full["stages"]["rigor"] = {"proofs": [
        {"claim": c, "status": "proven", "boxes_examined": 10,
         "undecided_boxes": 0, "min_undecided_width": 0.0}
        for c in ("defect<=0", "c_s<0", "c_ss<0", "c_st<0")]}
    full_out = stdout.replace("stages=" + ",".join(run.NO_RIGOR),
                              "stages=" + ",".join(run.FULL_STAGES))
    n8 = Expect(run.FULL_STAGES, 4)
    expect(check_op(n8, 0, full_out, full).ok,
           "an n = 8 report with 4/4 proofs passes")
    short = copy.deepcopy(full)
    short["stages"]["rigor"]["proofs"].pop()
    expect(not check_op(n8, 0, full_out, short).ok,
           "a missing proof is rejected")

    honest = copy.deepcopy(full)
    honest["stages"]["rigor"]["proofs"][0]["status"] = "undecided"
    honest["failures"] = ["rigor:defect<=0"]
    del honest["stages"]["certificate"]
    fail_out = full_out.replace("RESULT pass", "RESULT fail").replace(
        "failures=0", "failures=1")
    v = check_op(n8, 1, fail_out, honest)
    expect(not v.ok and not v.integrity and
           any("rigor:defect<=0" in f for f in v.failures),
           "an honest undecided proof is a named failure, not an integrity "
           "problem")

    book = HashBook(runner.dir / "hashes.json", "selfcheck")
    other = copy.deepcopy(good)
    other["stages"]["certificate"]["solution_sha256"] = "0" * 64
    expect(not book.note("tiny", good) and book.note("tiny", other),
           "a mismatched field hash is flagged")
    shutil.rmtree(runner.dir, ignore_errors=True)


def harness_pass() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "tiny",
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180)
        res = result_line(proc)
        expect(proc.returncode == 0 and res is not None,
               f"tiny run --trace {trace} exits 0 with a result line")
        if res is None:
            print(proc.stdout[-2000:], proc.stderr[-2000:])
            continue
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               f"tiny run --trace {trace} is correct with no failed op")
        names = [m["name"] for m in spec[key]]
        expect(sorted(res["metrics"]) == sorted(names),
               f"tiny run --trace {trace} reports exactly the {key} metrics")
        units = {m["name"]: m["unit"] for m in spec[key]}
        expect(all(units.get(k) == v["unit"] for k, v in res["metrics"].items()),
               f"tiny run --trace {trace} units match BENCHMARK.json")
        if trace == 0:
            expect(all(v["value"] > 0 for v in res["metrics"].values()),
                   "every end-to-end metric is above zero")


def bare_directory() -> None:
    bare = run.WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and result_line(proc) is None,
           "without the sources the harness exits non-zero, printing no result")
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    doctored_reports()
    harness_pass()
    bare_directory()
    print(f"selfcheck: {len(PROBLEMS)} problem(s)")
    sys.exit(1 if PROBLEMS else 0)
