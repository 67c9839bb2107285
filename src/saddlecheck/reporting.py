"""Run reports, the run's verdict and field exports.

Three output formats, all deterministic:

* JSON report (schema ``saddlecheck-report/1``): config echo, per-stage
  payloads, wall-clock timings kept under a separate "timing" key so
  reports from identical runs are byte-identical outside that key, and,
  when the rigor stage runs, each proof's batches and deepest bisection
  under "trace".  Its failures and its stability certificate are both
  derived from the stage payloads by one function, verdict.
* CSV field dumps: row-major, ``%.17g`` formatting (lossless float64
  round-trip), self-describing header line.
* SVG maps: quantized, run-length-encoded heatmaps and three-color sign
  maps with a fixed color scale and legend; pure text output, diffable.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from saddlecheck import __version__
from saddlecheck.candidate import (lambda_coeff, region_classify, REGION_E1,
                                   REGION_E3, t_ratio, wedge_fields)
from saddlecheck.solver import SaddleSolution
from saddlecheck.spectral import EigEstimate
from saddlecheck.rigor import ProofResult

REPORT_SCHEMA = "saddlecheck-report/1"


# ---------------------------------------------------------------------------
# JSON report
# ---------------------------------------------------------------------------

def eig_to_dict(est: EigEstimate) -> dict:
    return {
        "lambda_min": float(est.lambda_min),
        "lower": float(est.lower),
        "iterations": int(est.iterations),
        "shift": float(est.shift),
    }


def proof_to_dict(res: ProofResult, claim: str) -> dict:
    return {
        "claim": claim,
        "status": res.status,
        "boxes_examined": int(res.boxes_examined),
        "min_undecided_width": float(res.min_undecided_width),
        "undecided_boxes": int(len(res.frontier)),
    }


def solver_to_dict(sol: SaddleSolution) -> dict:
    return {
        "m": sol.m,
        "R": sol.grid.R,
        "h": sol.grid.h,
        "residual_norm": float(sol.residual_norm),
        "newton_iters": int(sol.newton_iters),
        "coarse_iters": [[float(h), int(steps)]
                         for h, steps in sol.coarse_iters],
        "cg_iters": [[float(h), [int(k) for k in per_step]]
                     for h, per_step in sol.cg_iters],
    }


def build_report(config: dict, stages: dict, timing: dict,
                 trace: dict) -> dict:
    """Assemble the self-contained run report.

    ``stages`` values must already be JSON-serializable dictionaries (the
    checks' entries and the *_to_dict helpers); ``timing`` maps stage name (and rigor:<claim>) to
    wall seconds and is the only part allowed to differ between reruns of an
    identical config.  ``trace`` holds work counts that do not judge
    anything; it is left out when empty.
    """
    report = {
        "schema": REPORT_SCHEMA,
        "config": dict(sorted(config.items())),
        "stages": stages,
        "timing": timing,
    }
    if trace:
        report["trace"] = trace
    return report


def verdict(sol: SaddleSolution, stages: dict) -> tuple[list[str], dict | None]:
    """(failures, certificate) of a run, both read from its stage payloads.

    The failures are each failed suite check (suite:<id>), a failed
    supersolution check, an inconsistent spectrum sign, then each proof that
    is not proven (rigor:<claim>).  The certificate records the
    supersolution-based stability conclusion on the suite's and then the
    supersolution's check entries (their hashes), with the version of the
    package that reached it.  It is written exactly when nothing failed and
    the supersolution entries hold supersolution-n<n>, n = 2 sol.m, the
    solution's own dimension; else it is None.
    """
    suite, sup = (stages.get(name, {}).get("checks", [])
                  for name in ("suite", "supersolution"))
    verdicts = (
        [(f"suite:{c['id']}", c["passed"]) for c in suite]
        + [("supersolution", c["passed"]) for c in sup]
        + [("spectrum",
            stages.get("spectrum", {}).get("sign_consistent", True))]
        + [(f"rigor:{p['claim']}", p["status"] == "proven")
           for p in stages.get("rigor", {}).get("proofs", [])])
    failures = [name for name, passed in verdicts if not passed]
    n = 2 * sol.m
    if failures or f"supersolution-n{n}" not in [c["id"] for c in sup]:
        return failures, None
    return failures, {
        "schema": "stability-certificate/1",
        "n": n,
        "m": sol.m,
        "grid": {"R": sol.grid.R, "h": sol.grid.h},
        "conclusion": "stable",
        "basis": "positive supersolution of the linearized operator",
        "solution_sha256": _digest(sol.u),
        "report_sha256": [report_digest(c) for c in suite + sup],
        "report_ids": [c["id"] for c in suite + sup],
        "package_version": __version__,
    }


def _digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        return hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def report_digest(check: dict) -> str:
    """sha256 of a check entry of report.json, on the keys that judge it."""
    return _digest({k: check[k] for k in
                    ("id", "passed", "worst_margin", "tolerance_used",
                     "nodes_checked")})


def write_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# CSV field dumps
# ---------------------------------------------------------------------------

def export_csv(field: np.ndarray, name: str, h: float,
               path: str | Path) -> Path:
    """Row-major dump with a self-describing header; %.17g entries
    round-trip float64 bitwise."""
    field = np.asarray(field, dtype=float)
    if field.size == 0:
        raise ValueError(f"refusing to export empty field {name!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows, cols = field.shape
    np.savetxt(path, field, fmt="%.17g", delimiter=",", comments="",
               header=f"name,{name},rows,{rows},cols,{cols},h,{h:.17g}")
    return path


# ---------------------------------------------------------------------------
# SVG maps
# ---------------------------------------------------------------------------

_SIGN_COLORS = {-1: "#3b6bb5", 0: "#e8e8e8", 1: "#c24a3a"}
_RAMP = ["#30123b", "#3f3994", "#455ed2", "#3e8efa", "#28bceb", "#18dcc3",
         "#35f394", "#6dfe62", "#a4fc3c", "#d1e835", "#f3c63a", "#fe9b2d",
         "#f36315", "#d93806", "#b11901", "#7a0403"]

_CELL = 3  # px per plotted cell
_MAX_CELLS = 220


def _stride(n: int) -> int:
    return max(1, int(np.ceil(n / _MAX_CELLS)))


def _svg_grid(colors: np.ndarray, title: str, legend: list[tuple[str, str]]
              ) -> str:
    """Render a (rows, cols) array of color strings (empty = skip) as
    row-wise run-length-encoded SVG rects, plus a title and legend."""
    rows, cols = colors.shape
    width = cols * _CELL + 150
    height = max(rows * _CELL + 40, 40 + 18 * (len(legend) + 1))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}">',
           f'<text x="10" y="20" font-family="monospace" font-size="14">'
           f'{title}</text>']
    y0 = 30
    for i in range(rows):
        j = 0
        while j < cols:
            c = colors[i, j]
            if not c:
                j += 1
                continue
            j2 = j
            while j2 + 1 < cols and colors[i, j2 + 1] == c:
                j2 += 1
            out.append(f'<rect x="{j * _CELL}" y="{y0 + i * _CELL}" '
                       f'width="{(j2 - j + 1) * _CELL}" height="{_CELL}" '
                       f'fill="{c}"/>')
            j = j2 + 1
    lx = cols * _CELL + 12
    for k, (color, label) in enumerate(legend):
        ly = y0 + 18 * k
        out.append(f'<rect x="{lx}" y="{ly}" width="12" height="12" '
                   f'fill="{color}"/>')
        out.append(f'<text x="{lx + 18}" y="{ly + 11}" '
                   f'font-family="monospace" font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _orient(arr: np.ndarray) -> np.ndarray:
    """Plot with s rightward and t upward: transpose and flip rows."""
    return arr.T[::-1]


def svg_sign_map(field: np.ndarray, mask: np.ndarray, title: str,
                 path: str | Path) -> Path:
    """Three-color sign map (negative / zero / positive) of the field on the
    masked nodes; unmasked nodes are left blank."""
    k = _stride(field.shape[0])
    f = _orient(field[::k, ::k])
    m = _orient(np.asarray(mask)[::k, ::k])
    sign = np.zeros(f.shape, dtype=np.int8)
    sign[f > 0.0] = 1
    sign[f < 0.0] = -1
    colors = np.where(m, np.vectorize(_SIGN_COLORS.get)(sign), "")
    legend = [(_SIGN_COLORS[-1], "negative"),
              (_SIGN_COLORS[0], "|value| <= 0"),
              (_SIGN_COLORS[1], "positive")]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_svg_grid(colors, title, legend))
    return path


def svg_heatmap(field: np.ndarray, mask: np.ndarray, title: str,
                path: str | Path, vmin: float, vmax: float) -> Path:
    """Sixteen-level quantized heatmap with a fixed [vmin, vmax] scale."""
    if not vmax > vmin:
        raise ValueError("vmax must exceed vmin")
    k = _stride(field.shape[0])
    f = _orient(field[::k, ::k])
    m = _orient(np.asarray(mask)[::k, ::k]) & np.isfinite(f)
    lev = np.clip(np.nan_to_num(f, nan=vmin) - vmin, 0.0, vmax - vmin)
    idx = np.minimum((lev / (vmax - vmin) * len(_RAMP)).astype(int),
                     len(_RAMP) - 1)
    colors = np.where(m, np.array(_RAMP)[idx], "")
    legend = [(_RAMP[0], f"{vmin:g}"),
              (_RAMP[len(_RAMP) // 2], f"{(vmin + vmax) / 2:g}"),
              (_RAMP[-1], f"{vmax:g}")]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_svg_grid(colors, title, legend))
    return path


def export_signmaps(sol: SaddleSolution, outdir: str | Path) -> list[Path]:
    """The six standard diagnostic maps for the supersolution argument:
    coefficient ratios, the directional-convexity ratio T, the operator
    value on the inner wedge and on the small-t strip, and the C_tt sign."""
    outdir = Path(outdir)
    i, j, cs, _, lphi = wedge_fields(sol)
    s, t = sol.grid.coords[i], sol.grid.coords[j]
    inner = i < sol.grid.N              # the outer edge carries data
    region = region_classify(s, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_ts = cs.c_t / cs.c_s
        ratio_gap = cs.c_ss / (cs.c_st - cs.c_tt)
        r = np.clip(1.0 - lambda_coeff(s, t, 2 * sol.m), 0.0, 1.0 - 1e-9)
        tval, tok = t_ratio(cs, r)
    shape = (sol.grid.N + 1,) * 2

    def quadrant(values, keep=True):
        """The wedge values as a full-quadrant map (nan elsewhere) and the
        mask of the wedge nodes where keep holds."""
        field, mask = np.full(shape, np.nan), np.zeros(shape, dtype=bool)
        field[i, j], mask[i, j] = values, keep
        return field, mask

    paths = [
        svg_heatmap(*quadrant(ratio_ts, np.isfinite(ratio_ts)),
                    "C_t / C_s", outdir / "map-ct-over-cs.svg", 0.0, 2.0),
        svg_heatmap(*quadrant(ratio_gap, np.isfinite(ratio_gap)),
                    "C_ss / (C_st - C_tt)", outdir / "map-css-over-gap.svg",
                    0.0, 2.0),
        svg_heatmap(*quadrant(tval, tok & np.isfinite(tval)),
                    "T(1 - lambda)", outdir / "map-t-ratio.svg", 0.0, 1.0),
        svg_sign_map(*quadrant(lphi, inner & (region == REGION_E1)),
                     "L Phi on inner wedge", outdir / "map-lphi-e1.svg"),
        svg_sign_map(*quadrant(lphi, inner & (region == REGION_E3)),
                     "L Phi on small-t strip", outdir / "map-lphi-e3.svg"),
        svg_sign_map(*quadrant(cs.c_tt),
                     "sign of C_tt", outdir / "map-ctt-sign.svg"),
    ]
    return paths
