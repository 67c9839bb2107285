"""Versioned on-disk cache for solved fields.

A cache entry is a single ``.npz`` holding the solved field plus a JSON
header (format version, m, R, h, the Newton residual and iteration count)
and a SHA-256 content hash of the header and the field.  The grid size is
not stored, since build_grid(R, h) gives it, nor the Newton tolerance,
since the entry's name holds it; an entry whose header holds those two
fields still loads, because its hash covers the header as stored.  An
unreadable entry or any header or hash mismatch is treated as a miss and
forces a re-solve; the reason is logged on the ``saddlecheck.cache``
logger and returned by load_or_solve.  Loading never silently returns
stale or corrupted data.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import zipfile
from pathlib import Path

import numpy as np

from saddlecheck.grid import build_grid
from saddlecheck.solver import NEWTON_TOL, SaddleSolution, newton_solve

# 2: fields solved with solver.weighted_form; 3: refined levels solved by
# the CG loop of solver._TwoGrid, which sums without BLAS, so a field no
# longer follows the BLAS thread count and has other bits than in format 2;
# 4: every LU made by solver.factor with SuperLU panels of solver.LU_PANEL
# columns, which reorders its supernodal updates, so a field's last bits
# differ from those of format 3
CACHE_FORMAT = 4
CACHE_ENV_VAR = "SADDLECHECK_CACHE_DIR"

log = logging.getLogger(__name__)


class CacheMismatch(RuntimeError):
    """Cache entry exists but its header or content hash does not match."""


def cache_dir(override: str | os.PathLike | None = None) -> Path:
    """Resolve the cache directory: explicit argument, then the
    SADDLECHECK_CACHE_DIR environment variable, then ./.saddlecheck_cache."""
    if override is not None:
        return Path(override)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path(".saddlecheck_cache")


def format_exact(x: float) -> str:
    """x in the fewest digits that read back as x: '12', '0.05',
    '8.000000001'."""
    return np.format_float_positional(x, trim="-")


def solution_key(m: int, R: float, h: float) -> str:
    """The entry name; R and h are printed exactly, so two grids never
    share one key."""
    return f"sol_m{m}_R{format_exact(R)}_h{format_exact(h)}_tol{NEWTON_TOL:g}"


def _header(sol: SaddleSolution) -> dict:
    return {
        "format": CACHE_FORMAT,
        "m": sol.m,
        "R": sol.grid.R,
        "h": sol.grid.h,
        "residual_norm": sol.residual_norm,
        "newton_iters": sol.newton_iters,
    }


def _content_hash(header: dict, u: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(header, sort_keys=True).encode())
    digest.update(np.ascontiguousarray(u).tobytes())
    return digest.hexdigest()


def save_solution(sol: SaddleSolution,
                  directory: str | os.PathLike | None = None) -> Path:
    """Write the solution to the cache; returns the entry path.

    Only the field itself is stored: a derivative field is computed from
    it when something first reads it, as for a solved field.  Concurrent
    saves of one key each leave a whole entry.
    """
    root = cache_dir(directory)
    root.mkdir(parents=True, exist_ok=True)
    header = _header(sol)
    header["sha256"] = _content_hash(header, sol.u)
    path = root / (solution_key(sol.m, sol.grid.R, sol.grid.h) + ".npz")
    # this writer's own temp file: another process saving the same key at
    # the same time cannot truncate it or rename it away
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, u=sol.u, header=np.bytes_(json.dumps(header,
                                                              sort_keys=True)))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load_solution(path: str | os.PathLike) -> SaddleSolution:
    """Load and revalidate a cache entry; raises CacheMismatch, naming the
    cause, on an unreadable file, any format, header or hash discrepancy,
    an m that is not an int >= 1, an R or h that is not a finite real
    number, a newton_iters that is not an int >= 0, a residual_norm that
    is not a float between 0 and NEWTON_TOL or a field that is not a
    finite float64 array of the grid's shape.  Derivative fields are not
    computed here but on first read."""
    try:
        # np.load(path) would leave its own file open on a damaged archive
        with open(path, "rb") as fh, np.load(fh) as data:
            header = json.loads(bytes(data["header"]).decode())
            u = data["u"]
    except KeyError as exc:
        raise CacheMismatch(f"{path}: missing entry {exc}") from exc
    except (OSError, EOFError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise CacheMismatch(
            f"{path}: unreadable ({type(exc).__name__}: {exc})") from exc
    if header.get("format") != CACHE_FORMAT:
        raise CacheMismatch(f"{path}: format {header.get('format')!r}, "
                            f"expected {CACHE_FORMAT}")
    expected = header.pop("sha256", None)
    if _content_hash(header, u) != expected:
        raise CacheMismatch(f"{path}: content hash mismatch")
    missing = sorted({"m", "R", "h", "residual_norm", "newton_iters"}
                     - header.keys())
    if missing:
        raise CacheMismatch(f"{path}: header lacks {', '.join(missing)}")
    m, residual = header["m"], header["residual_norm"]
    if not (type(m) is int and m >= 1):
        raise CacheMismatch(f"{path}: m {m!r} is not an int >= 1")
    for name in ("R", "h"):
        if not (type(header[name]) in (int, float)
                and math.isfinite(header[name])):
            raise CacheMismatch(f"{path}: {name} {header[name]!r} is not a "
                                f"finite real number")
    iters = header["newton_iters"]
    if not (type(iters) is int and iters >= 0):
        raise CacheMismatch(f"{path}: newton_iters {iters!r} is not an "
                            f"int >= 0")
    if not (isinstance(residual, float) and 0.0 <= residual <= NEWTON_TOL):
        raise CacheMismatch(f"{path}: residual_norm {residual!r} is not "
                            f"between 0 and {NEWTON_TOL:g}")
    try:
        grid = build_grid(header["R"], header["h"])
    except ValueError as exc:
        raise CacheMismatch(f"{path}: {exc}") from exc
    if u.shape != (grid.N + 1, grid.N + 1):
        raise CacheMismatch(f"{path}: field shape {u.shape} does not match "
                            f"grid N={grid.N}")
    if u.dtype != np.float64:
        raise CacheMismatch(f"{path}: field dtype {u.dtype}, expected float64")
    finite = np.isfinite(u)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise CacheMismatch(f"{path}: field value {u[i, j]} at node "
                            f"({i}, {j}) is not finite")
    return SaddleSolution(m=m, grid=grid, u=u, residual_norm=residual,
                          newton_iters=iters)


def load_or_solve(m: int, R: float, h: float,
                  directory: str | os.PathLike | None = None
                  ) -> tuple[SaddleSolution, bool, str | None]:
    """Return (solution, came_from_cache, rejected_reason), re-solving on
    miss or mismatch; rejected_reason is None unless an existing entry was
    rejected.  An entry whose header (m, R, h) is not the requested triple
    is rejected too."""
    path = cache_dir(directory) / (solution_key(m, R, h) + ".npz")
    reason = None
    if path.exists():
        try:
            sol = load_solution(path)
            held = (sol.m, sol.grid.R, sol.grid.h)
            if held != (m, R, h):
                raise CacheMismatch(f"{path}: entry holds (m, R, h) = "
                                    f"{held}, requested {(m, R, h)}")
            return sol, True, None
        except CacheMismatch as exc:
            reason = str(exc)
            log.warning("cache entry %s rejected, re-solving: %s", path, reason)
    grid = build_grid(R, h)
    sol = newton_solve(m, grid)
    save_solution(sol, directory)
    return sol, False, reason
