"""Run one `saddlecheck` command in this process with spans around the
public functions of each module, then write the spans as JSON.

    python3 perfbench/trace_child.py SPANS.json OP_ID -- <saddlecheck argv>

The functions are wrapped at the names their callers look them up by (for
example `cli.assemble`, not `spectral.assemble`), so the traced call
sequence is exactly the one `python -m saddlecheck.cli` runs.  Spans are held
in memory and written once, when the command has returned.  Each span has a
name `<layer>.<function>`, start and end (perf_counter seconds), the id of
its parent span, the op id, and a few counts taken from the call's
arguments or result.  A name that no longer exists in the program is listed
under `missing`, and a count that can no longer be read is recorded as
`describe_error`, instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.claims: dict[int, str] = {}   # id(expr) -> catalog name

    def span(self, name: str, start: float, end: float | None) -> dict:
        record = {"id": len(self.spans), "name": name, "start": start,
                  "end": end, "parent": self.stack[-1] if self.stack else None,
                  "op": self.op}
        self.spans.append(record)
        return record

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.span(name, time.perf_counter(), None)
            self.stack.append(record["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self.stack.pop()
            if describe is not None:
                try:
                    record.update(describe(args, kwargs, result))
                except (AttributeError, KeyError, IndexError,
                        TypeError) as exc:  # the program changed shape
                    record["describe_error"] = repr(exc)
            return result

        setattr(module, attr, traced)

    def catalog(self, args, kwargs, cat):
        self.claims.update({id(expr): key for key, expr in cat.items()})
        return {"n": args[0] if args else kwargs.get("n", 8)}

    def claim(self, args, kwargs, res):
        key = self.claims.get(id(args[0]), "unknown")
        if key == "defect_gap":
            key = f"defect_d{int((kwargs.get('fixed') or {}).get('d', 0))}"
        return {"claim": key, "boxes": int(res.boxes_examined),
                "undecided": int(len(res.frontier)), "status": res.status}


def install(tracer: Tracer):
    """Wrap the public functions; returns the CLI module to call."""
    t0 = time.perf_counter()
    from saddlecheck import cache, candidate, checks, cli, solver
    tracer.span("import.saddlecheck", t0, time.perf_counter())

    wraps = [
        (cli, "main", "cli.main", None),
        (cli, "load_or_solve", "cache.load_or_solve",
         lambda a, k, r: {"hit": bool(r[1])}),
        (cache, "load_solution", "cache.load_solution", None),
        (cache, "save_solution", "cache.save_solution", None),
        (cache, "newton_solve", "solver.newton_solve",
         lambda a, k, r: {"iters": int(r.newton_iters),
                          "unknowns": int(r.grid.n_unknowns)}),
        (cache, "compute_derivatives", "solver.compute_derivatives", None),
        (solver, "compute_derivatives", "solver.compute_derivatives", None),
        (cli, "run_inequality_suite", "checks.run_inequality_suite",
         lambda a, k, r: {"checks": len(r)}),
        (cli, "verify_supersolution", "checks.verify_supersolution", None),
        (checks, "l_phi", "candidate.l_phi", None),
        (checks, "phi_field", "candidate.phi_field", None),
        (candidate, "coefficient_set", "candidate.coefficient_set",
         lambda a, k, r: {"points": int(r.c_s.size)}),
        # the lru-cached sympy differentiate-and-lambdify step
        (candidate, "_compiled_partials", "candidate.compile", None),
        (cli, "assemble", "spectral.assemble",
         lambda a, k, r: {"dofs": int(r.n_dof),
                          "nnz": int(r.stiffness.nnz)}),
        (cli, "min_eigenvalue", "spectral.min_eigenvalue",
         lambda a, k, r: {"residual": float(r.residual)}),
        (cli, "builtin_expressions", "rigor.builtin_expressions",
         tracer.catalog),
        (cli, "prove_nonpositive", "rigor.prove_nonpositive", tracer.claim),
    ]
    for module, attr, name, describe in wraps:
        tracer.wrap(module, attr, name, describe)
    return cli


def main(argv: list[str]) -> int:
    out_path, op = argv[0], argv[1]
    tracer = Tracer(op)
    code = 2
    try:
        cli = install(tracer)
        code = cli.main(argv[3:])
    finally:
        with open(out_path, "w") as fh:
            json.dump({"op": op, "spans": tracer.spans,
                       "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
