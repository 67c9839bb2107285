"""Correctness checker for one `saddlecheck run` op.

An op is judged from three things the program leaves behind: its exit code,
the `RESULT` line it prints last, and the `report.json` it writes.  The
checker sorts what it finds into two lists:

* failures: the op did not deliver what the workload expects (a check that
  did not pass, a proof that is not `proven`, a missing certificate, ...).
  These count in `failed`.
* integrity problems: the op's output cannot be trusted (a crash or timeout,
  a RESULT line that disagrees with the exit code or the report, an op that
  says `pass` while the checker finds a failure, a field hash that differs
  between runs of the same op).  Any of these makes the run `correct: false`.

An op that fails honestly (exit 1, `RESULT fail`, the failure named in the
report) is a failed op, not an integrity problem.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

SUITE_CHECKS = 29          # size of the inequality suite
RESIDUAL_MAX = 1e-10       # Newton residual gate used by every op
LAMBDA_MIN_FLOOR = -0.01   # the CLI's own stability threshold for m >= 4


@dataclass(frozen=True)
class Expect:
    """What a passing op of a workload must show in its report."""
    stages: tuple
    proofs: int | None     # number of proofs, None when rigor is not run


@dataclass
class Verdict:
    failures: list
    integrity: list

    @property
    def ok(self) -> bool:
        return not self.failures and not self.integrity


def parse_result_line(text: str):
    """(status, stages, failures) from the last `RESULT ...` line, or None."""
    lines = [ln for ln in text.splitlines() if ln.startswith("RESULT ")]
    if not lines:
        return None
    fields = dict(part.split("=", 1) for part in lines[-1].split()[2:]
                  if "=" in part)
    try:
        count = int(fields.get("failures", ""))
    except ValueError:
        return None
    stages = tuple(s for s in fields.get("stages", "").split(",") if s)
    return lines[-1].split()[1], stages, count


def check_report(report: dict, expect: Expect) -> list:
    """Every way the report falls short of a passing op of this workload."""
    out = []
    stages = report.get("stages", {})
    missing = [s for s in expect.stages if s not in stages]
    if missing:
        out.append(f"stages missing: {','.join(missing)}")
    solve = stages.get("solve", {})
    residual = solve.get("residual_norm")
    if residual is None or not residual <= RESIDUAL_MAX:
        out.append(f"solve: residual {residual} > {RESIDUAL_MAX:g}")
    if "suite" in expect.stages:
        checks = stages.get("suite", {}).get("checks", [])
        passed = sum(bool(c.get("passed")) for c in checks)
        if len(checks) != SUITE_CHECKS or passed != SUITE_CHECKS:
            out.append(f"suite: {passed}/{len(checks)} passed, "
                       f"expected {SUITE_CHECKS}/{SUITE_CHECKS}")
    if "supersolution" in expect.stages:
        checks = stages.get("supersolution", {}).get("checks", [])
        if len(checks) != 1 or not checks[0].get("passed"):
            out.append("supersolution: not passed")
    if "spectrum" in expect.stages:
        spec = stages.get("spectrum", {})
        lam = spec.get("lambda_min")
        if lam is None or not lam > LAMBDA_MIN_FLOOR:
            out.append(f"spectrum: lambda_min {lam} <= {LAMBDA_MIN_FLOOR}")
        if not spec.get("sign_consistent"):
            out.append("spectrum: not sign_consistent")
    if expect.proofs is not None:
        proofs = stages.get("rigor", {}).get("proofs", [])
        for p in proofs:
            if p.get("status") != "proven":
                out.append(f"rigor:{p.get('claim')} {p.get('status')} "
                           f"({p.get('boxes_examined')} boxes, "
                           f"{p.get('undecided_boxes')} undecided)")
        proven = sum(p.get("status") == "proven" for p in proofs)
        if len(proofs) != expect.proofs or proven != expect.proofs:
            out.append(f"rigor: {proven}/{len(proofs)} proven, "
                       f"expected {expect.proofs}/{expect.proofs}")
    elif "rigor" in stages:
        out.append("rigor: stage present but not requested")
    if "certificate" not in stages:
        out.append("certificate: absent")
    if report.get("failures"):
        out.append("report failures: " + ", ".join(report["failures"]))
    return out


def check_op(expect: Expect, exit_code: int, stdout: str,
             report: dict | None) -> Verdict:
    failures, integrity = [], []
    if exit_code not in (0, 1):
        integrity.append(f"exit code {exit_code} (crash, timeout or "
                         "configuration error)")
    result = parse_result_line(stdout)
    if result is None:
        integrity.append("no RESULT line")
    if report is None:
        integrity.append("no readable report.json")
    if integrity:
        return Verdict(failures=["op did not complete"], integrity=integrity)
    status, stages, count = result
    failures = check_report(report, expect)
    if (status == "pass") != (exit_code == 0) or status not in ("pass", "fail"):
        integrity.append(f"RESULT {status} but exit code {exit_code}")
    if count != len(report.get("failures", [])):
        integrity.append(f"RESULT failures={count} but report lists "
                         f"{len(report.get('failures', []))}")
    if stages != tuple(report.get("config", {}).get("stages", ())):
        integrity.append("RESULT stages differ from the report's")
    if status == "pass" and failures:
        integrity.append("op reported pass but the checker rejects it")
    return Verdict(failures=failures, integrity=integrity)


def read_json(path: Path) -> dict | None:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


class HashBook:
    """First-seen `certificate.solution_sha256` per op and source tree.

    Solves are documented as bitwise deterministic, so every run of the same
    op on the same source must certify the same field.  The book persists in
    a JSON file so the runs of a set are compared with each other, not only
    the passes inside one run.
    """

    def __init__(self, path: Path, source_sha: str):
        self.path = Path(path)
        self.source_sha = source_sha
        self.seen = read_json(self.path) or {}

    def note(self, op: str, report: dict | None) -> list:
        cert = (report or {}).get("stages", {}).get("certificate")
        if not cert:
            return []
        key = f"{self.source_sha}/{op}"
        sha = cert.get("solution_sha256")
        first = self.seen.setdefault(key, sha)
        if first != sha:
            return [f"solution_sha256 {str(sha)[:12]} differs from "
                    f"{str(first)[:12]} seen earlier for {op}"]
        return []

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        os.replace(tmp, self.path)
