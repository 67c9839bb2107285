"""Solution cache (hash-validated npz), the run's verdict (failures and
stability certificate) and report/CSV/SVG serialization."""

import hashlib
import json
import logging

import numpy as np
import pytest

import saddlecheck
from oracles import import_csv
from saddlecheck import cache, rigor, solver
from saddlecheck.cache import (CACHE_ENV_VAR, CacheMismatch, _content_hash,
                               cache_dir, load_or_solve, load_solution,
                               save_solution, solution_key)
from saddlecheck.checks import run_inequality_suite, verify_supersolution
from saddlecheck.cli import RunConfig, run_stages
from saddlecheck.reporting import (REPORT_SCHEMA, build_report, export_csv,
                                   export_signmaps, report_digest,
                                   svg_heatmap, svg_sign_map, verdict,
                                   write_report)

M, R, H = 4, 8.0, 0.2


def test_cache_roundtrip_bitwise(tmp_path, solved):
    sol = solved(M, R, H)
    path = save_solution(sol, tmp_path)
    assert path.parent == tmp_path
    assert path.stem == solution_key(M, R, H)
    back = load_solution(path)
    assert np.array_equal(back.u, sol.u)
    assert np.array_equal(back.u_ss, sol.u_ss)   # computed on first read
    assert back.m == M and back.grid.h == H


def test_cache_key_and_header_are_pinned(tmp_path, solved):
    # entries written before the tolerance became a constant must still hit
    assert solution_key(4, 12.0, 0.05) == "sol_m4_R12_h0.05_tol1e-10"
    sol = solved(M, R, H)
    path = save_solution(sol, tmp_path)
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
    assert sorted(header) == ["R", "format", "h", "m", "newton_iters",
                              "residual_norm", "sha256"]
    # an entry whose header also holds the grid size and the tolerance, as
    # earlier entries of this format do, still loads: its hash covers the
    # header as stored
    del header["sha256"]
    header |= {"N": sol.grid.N, "newton_tol": 1e-10}
    digest = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
    digest.update(sol.u.tobytes())
    header["sha256"] = digest.hexdigest()
    with open(path, "wb") as fh:
        np.savez(fh, u=sol.u, header=np.bytes_(json.dumps(header,
                                                          sort_keys=True)))
    assert np.array_equal(load_solution(path).u, sol.u)


def test_load_or_solve_hits_and_refreshes(tmp_path, solved):
    sol = solved(M, R, H)
    path = save_solution(sol, tmp_path)
    hit, cached, _ = load_or_solve(M, R, H, directory=tmp_path)
    assert cached and np.array_equal(hit.u, sol.u)
    path.unlink()
    fresh, cached, _ = load_or_solve(M, R, H, directory=tmp_path)
    assert not cached
    assert np.array_equal(fresh.u, sol.u)   # deterministic solver


def test_cache_rejects_tampering(tmp_path, solved):
    sol = solved(M, R, H)
    path = save_solution(sol, tmp_path)
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        u = data["u"].copy()
    u[5, 3] += 1e-9
    with open(path, "wb") as fh:
        np.savez(fh, u=u, header=np.bytes_(json.dumps(header, sort_keys=True)))
    with pytest.raises(CacheMismatch):
        load_solution(path)
    # load_or_solve treats the bad entry as a miss and re-solves
    sol2, cached, _ = load_or_solve(M, R, H, directory=tmp_path)
    assert not cached
    assert np.array_equal(sol2.u, sol.u)


def test_concurrent_saves_of_one_key(tmp_path, solved, monkeypatch):
    # a second save of the same key runs while the first is mid-write, as
    # when `run` and `plot` fill one cache at once: each writes its own temp
    # file, so neither is truncated or renamed away under the other
    sol = solved(M, R, H)
    savez, calls = np.savez, []

    def interleaved(fh, **arrays):
        calls.append(fh)
        fh.write(b"partial")
        if len(calls) == 1:
            save_solution(sol, tmp_path)
        fh.seek(0)
        savez(fh, **arrays)

    monkeypatch.setattr(cache.np, "savez", interleaved)
    path = save_solution(sol, tmp_path)
    assert len(calls) == 2
    assert np.array_equal(load_solution(path).u, sol.u)
    assert list(tmp_path.glob("*.tmp")) == []

    # a write that fails leaves no temp file and no entry
    def failing(fh, **arrays):
        fh.write(b"partial")
        raise OSError("disk full")

    monkeypatch.setattr(cache.np, "savez", failing)
    path.unlink()
    with pytest.raises(OSError, match="disk full"):
        save_solution(sol, tmp_path)
    assert list(tmp_path.iterdir()) == []


def _rewrite_header(path, edit, change=lambda u: u):
    """Apply edit to a cache entry's header and change to its field, and
    give it a matching hash."""
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        u = change(data["u"].copy())
    header.pop("sha256")
    edit(header)
    header["sha256"] = _content_hash(header, u)
    with open(path, "wb") as fh:
        np.savez(fh, u=u, header=np.bytes_(json.dumps(header, sort_keys=True)))


def _save_as_format_1(sol, directory):
    """A cache entry whose header says format 1, with a matching hash."""
    path = save_solution(sol, directory)
    _rewrite_header(path, lambda header: header.update(format=1))
    return path


def test_cache_rejects_entry_of_older_format(tmp_path, solved):
    # a field solved by an older discretization must not be certified by
    # the current one, even when its header hash is self-consistent
    sol = solved(M, R, H)
    path = _save_as_format_1(sol, tmp_path)
    with pytest.raises(CacheMismatch):
        load_solution(path)
    _, cached, _ = load_or_solve(M, R, H, directory=tmp_path)
    assert not cached
    # format 2 fields came from a CG whose sums went through BLAS: their
    # bits followed the thread count, so they are re-solved too
    _rewrite_header(path, lambda header: header.update(format=2))
    with pytest.raises(CacheMismatch, match="format 2, expected 3"):
        load_solution(path)


def test_rejected_cache_entry_is_logged_with_its_reason(tmp_path, solved,
                                                      caplog):
    path = _save_as_format_1(solved(M, R, H), tmp_path)
    with caplog.at_level(logging.WARNING, logger="saddlecheck.cache"):
        _, cached, _ = load_or_solve(M, R, H, directory=tmp_path)
    assert not cached
    [record] = [r for r in caplog.records if r.name == "saddlecheck.cache"]
    assert record.levelno == logging.WARNING
    assert str(path) in record.getMessage()
    assert "format 1, expected 3" in record.getMessage()


def _empty(path):
    path.write_bytes(b"")


def _truncated(path):
    path.write_bytes(path.read_bytes()[:200])


def _plain_array(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))     # np.load returns an array, not an archive


def _header_without_residual_norm(path):
    _rewrite_header(path, lambda header: header.pop("residual_norm"))


def _header_with_nan_residual_norm(path):
    # a NaN residual is not within NEWTON_TOL, whatever its hash
    _rewrite_header(path, lambda header: header.update(
        residual_norm=float("nan")))


def _header_with(**fields):
    # the header comes from outside the program: only an int m >= 1 is a
    # factor dimension, only finite reals are a grid's R and h and only an
    # int >= 0 counts Newton steps, whatever its hash
    return lambda path: _rewrite_header(path, lambda hdr: hdr.update(fields))


def _field_with(change):
    # the field comes from outside the program too: only a finite float64
    # array is a solved field, whatever its hash
    return lambda path: _rewrite_header(path, lambda header: None, change)


def _nan_at_5_3(u):
    u[5, 3] = np.nan
    return u


@pytest.mark.parametrize("damage, cause", [
    (_empty, "EOFError"),
    (_truncated, "BadZipFile"),
    (_plain_array, "TypeError"),
    (_header_without_residual_norm, "lacks residual_norm"),
    (_header_with_nan_residual_norm,
     "residual_norm nan is not between 0 and 1e-10"),
    (_header_with(residual_norm=-1e-12),
     "residual_norm -1e-12 is not between 0 and 1e-10"),
    (_header_with(residual_norm=float("-inf")),
     "residual_norm -inf is not between 0 and 1e-10"),
    (_header_with(m=0), "m 0 is not an int >= 1"),
    (_header_with(m=4.5), "m 4.5 is not an int >= 1"),
    (_header_with(m="4"), "m '4' is not an int >= 1"),
    (_header_with(R="8"), "R '8' is not a finite real number"),
    (_header_with(h=float("nan")), "h nan is not a finite real number"),
    (_header_with(newton_iters="x"), "newton_iters 'x' is not an int >= 0"),
    (_field_with(lambda u: u.astype(np.float32)),
     "field dtype float32, expected float64"),
    (_field_with(_nan_at_5_3), "field value nan at node"),
], ids=["empty", "truncated", "plain-array", "no-residual-norm",
        "nan-residual-norm", "residual-negative", "residual-neg-inf",
        "m-zero", "m-float", "m-string", "R-string", "h-nan",
        "newton-iters-string", "field-float32", "field-nan"])
def test_damaged_cache_entry_is_rejected_with_its_cause(tmp_path, solved,
                                                        damage, cause):
    sol = solved(M, R, H)
    path = save_solution(sol, tmp_path)
    damage(path)
    with pytest.raises(CacheMismatch, match=cause):
        load_solution(path)
    again, cached, reason = load_or_solve(M, R, H, directory=tmp_path)
    assert not cached and cause in reason
    assert np.array_equal(again.u, sol.u)


def test_rejected_cache_reason_reaches_the_report(tmp_path, solved):
    _save_as_format_1(solved(M, R, H), tmp_path)
    cfg = RunConfig(m=M, R=R, h=H, stages=("solve",), cache=str(tmp_path))
    report, _ = run_stages(cfg)
    solve = report["stages"]["solve"]
    assert solve["from_cache"] is False
    assert "format 1, expected 3" in solve["cache_rejected"]
    # the re-solve replaced the entry: a hit carries no rejection key
    report, _ = run_stages(cfg)
    assert report["stages"]["solve"]["from_cache"] is True
    assert "cache_rejected" not in report["stages"]["solve"]


def test_solve_stage_computes_no_derivative(tmp_path, monkeypatch):
    # nothing in a solve run reads a derivative field, so no stencil runs,
    # neither after the Newton solve (cold) nor after the load (warm)
    calls = []

    def counted(stencil):
        def call(*args, **kwargs):
            calls.append(stencil.__name__)
            return stencil(*args, **kwargs)
        return call

    monkeypatch.setattr(solver, "_d1", counted(solver._d1))
    monkeypatch.setattr(solver, "_d2", counted(solver._d2))
    cfg = RunConfig(m=M, R=R, h=H, stages=("solve",), cache=str(tmp_path))
    for from_cache in (False, True):
        report, sol = run_stages(cfg)
        assert report["stages"]["solve"]["from_cache"] is from_cache
        assert calls == []
    sol.u_st                        # reads u_s, then differentiates it
    assert calls == ["_d1", "_d1"]


def test_entry_under_another_key_is_rejected(tmp_path, solved):
    # an m = 4 entry copied to the m = 5 key has a valid hash and header,
    # but not the requested dimension: it must not pass as the m = 5 field
    path = save_solution(solved(M, R, H), tmp_path)
    path.rename(tmp_path / (solution_key(M + 1, R, H) + ".npz"))
    cfg = RunConfig(m=M + 1, R=R, h=H, stages=("solve",), cache=str(tmp_path))
    report, sol = run_stages(cfg)
    solve = report["stages"]["solve"]
    assert sol.m == solve["m"] == M + 1
    assert solve["from_cache"] is False
    assert "(4, 8.0, 0.2)" in solve["cache_rejected"]
    assert "(5, 8.0, 0.2)" in solve["cache_rejected"]


def test_two_grids_get_two_cache_keys(tmp_path):
    # R = 8 and R = 8.000000001 give the same N at h = 0.2, but are two
    # grids: each has its own entry, so neither run evicts the other's
    radii = (8.0, 8.000000001)
    for from_cache in (False, True):
        for radius in radii:
            sol, cached, reason = load_or_solve(M, radius, H,
                                                directory=tmp_path)
            assert sol.grid.R == radius
            assert cached is from_cache and reason is None
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        solution_key(M, radius, H) + ".npz" for radius in radii)


def test_coarse_levels_reach_the_report(tmp_path):
    cfg = RunConfig(m=M, R=R, h=0.1, stages=("solve",), cache=str(tmp_path))
    report, sol = run_stages(cfg)
    solve = report["stages"]["solve"]
    assert solve["from_cache"] is False
    [[h, steps]] = solve["coarse_iters"]
    assert (h, steps) == sol.coarse_iters[0] and h == 0.2 and steps > 0
    # the refined level's CG iterations, one count per Newton step
    [[h, per_step]] = solve["cg_iters"]
    assert h == 0.1 and len(per_step) == sol.newton_iters
    assert per_step == list(sol.cg_iters[0][1]) and min(per_step) > 0
    # a cache load ran no coarse level and no CG
    report, _ = run_stages(cfg)
    assert report["stages"]["solve"]["from_cache"] is True
    assert report["stages"]["solve"]["coarse_iters"] == []
    assert report["stages"]["solve"]["cg_iters"] == []


def test_cache_dir_resolution(tmp_path, monkeypatch):
    assert cache_dir(tmp_path) == tmp_path
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
    assert cache_dir() == tmp_path / "env"
    monkeypatch.delenv(CACHE_ENV_VAR)
    assert cache_dir().name == ".saddlecheck_cache"


def test_csv_roundtrip_bitwise(tmp_path, solved):
    sol = solved(M, R, H)
    path = export_csv(sol.u, "u", H, tmp_path / "u.csv")
    arr, meta = import_csv(path)
    assert meta["name"] == "u" and meta["h"] == H
    assert arr.shape == sol.u.shape
    assert np.array_equal(arr, sol.u)


def test_csv_rejects_malformed(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("name,u,rows,2,cols,2,h,0.1\n1.0,\n2.0,3.0\n")
    with pytest.raises(ValueError):
        import_csv(p)


def test_report_roundtrip_and_determinism(tmp_path, solved):
    sol = solved(M, R, H)
    checks = run_inequality_suite(sol)
    cfg = {"m": M, "R": R, "h": H}
    r1 = build_report(cfg, {"suite": {"checks": checks}}, {"suite": 0.12}, {})
    r2 = build_report(cfg, {"suite": {"checks": checks}}, {"suite": 99.0}, {})
    assert r1["schema"] == REPORT_SCHEMA
    # determinism modulo timing: everything except the timing key agrees
    s1 = {k: v for k, v in r1.items() if k != "timing"}
    s2 = {k: v for k, v in r2.items() if k != "timing"}
    assert json.dumps(s1, sort_keys=True) == json.dumps(s2, sort_keys=True)
    path = write_report(r1, tmp_path / "report.json")
    assert json.loads(path.read_text()) == r1


def test_certificate_roundtrip_and_refusals(sol_m4_coarse):
    sup = verify_supersolution(sol_m4_coarse)
    suite = run_inequality_suite(sol_m4_coarse)
    stages = {"suite": {"checks": suite}, "supersolution": {"checks": [sup]}}
    failures, cert = verdict(sol_m4_coarse, stages)
    assert failures == []
    assert cert["schema"] == "stability-certificate/1"
    assert cert["n"] == 8 and cert["m"] == 4
    assert cert["conclusion"] == "stable"
    # the suite's entries, then the supersolution's
    assert cert["report_ids"] == [c["id"] for c in suite] + [sup["id"]]
    assert cert["report_sha256"][-1] == report_digest(sup)
    assert cert["package_version"] == saddlecheck.__version__
    assert sorted(cert) == ["basis", "conclusion", "grid", "m", "n",
                            "package_version", "report_ids",
                            "report_sha256", "schema", "solution_sha256"]

    # failed prerequisite
    failed = dict(sup, passed=False)
    assert verdict(sol_m4_coarse, dict(
        stages, supersolution={"checks": [failed]})) == (["supersolution"],
                                                         None)

    # missing supersolution report
    assert verdict(sol_m4_coarse, {"suite": {"checks": suite}}) == ([], None)

    # empty payload
    assert verdict(sol_m4_coarse, {}) == ([], None)

    # suite and spectrum passed, but no supersolution stage ran
    assert verdict(sol_m4_coarse, {"suite": {"checks": suite},
                                   "spectrum": {"sign_consistent": True}}
                   ) == ([], None)


def test_certificate_dimension_mismatch(sol_m4_coarse):
    # every check passes, but the supersolution entry is n = 10's: it does
    # not certify the m = 4 (n = 8) solution
    sup = verify_supersolution(sol_m4_coarse)
    assert sup["id"] == "supersolution-n8"
    suite = run_inequality_suite(sol_m4_coarse)
    stages = {"suite": {"checks": suite},
              "supersolution": {"checks": [dict(sup, id="supersolution-n10")]}}
    assert all(c["passed"] for c in suite)
    assert verdict(sol_m4_coarse, stages) == ([], None)


def test_report_digest_refuses_a_value_that_is_not_json(sol_m4_coarse):
    # a numpy scalar is not a JSON value: hashing its str would let two
    # entries that report.json writes alike hash apart, or the reverse
    entry = verify_supersolution(sol_m4_coarse)
    report_digest(entry)
    with pytest.raises(TypeError):
        report_digest(dict(entry, nodes_checked=np.int64(entry["nodes_checked"])))


def test_svg_emitters_deterministic(tmp_path, solved):
    sol = solved(M, R, H)
    mask = sol.grid.mask_triangle
    pa = svg_sign_map(sol.u_st, mask, "x", tmp_path / "a.svg")
    pb = svg_sign_map(sol.u_st, mask, "x", tmp_path / "b.svg")
    a, b = pa.read_text(), pb.read_text()
    assert a == b and a.startswith("<svg") and a.rstrip().endswith("</svg>")
    hm = svg_heatmap(sol.u, mask, "u", tmp_path / "h.svg", 0.0, 1.0).read_text()
    assert hm.startswith("<svg")
    # NaN entries must not crash the quantizer
    noisy = sol.u.copy()
    noisy[0, 0] = np.nan
    svg_heatmap(noisy, mask, "u", tmp_path / "n.svg", 0.0, 1.0)


def test_export_signmaps_files(tmp_path, solved):
    sol = solved(M, R, H)
    paths = export_signmaps(sol, tmp_path)
    assert len(paths) == 6
    names = {p.name for p in paths}
    assert names == {"map-ct-over-cs.svg", "map-css-over-gap.svg",
                     "map-t-ratio.svg", "map-lphi-e1.svg",
                     "map-lphi-e3.svg", "map-ctt-sign.svg"}
    for p in paths:
        text = p.read_text()
        assert text.startswith("<svg")
    # byte-identical on re-export
    first = {p.name: p.read_bytes() for p in paths}
    again = export_signmaps(sol, tmp_path)
    assert {p.name: p.read_bytes() for p in again} == first


def test_export_signmaps_runs_the_coefficient_tape_once(tmp_path, solved,
                                                        monkeypatch):
    # L Phi and the coefficient maps share one evaluation of the C's
    runs = []
    run = rigor.Tape.run

    def counting(self, env):
        runs.append(env)
        return run(self, env)

    monkeypatch.setattr(rigor.Tape, "run", counting)
    export_signmaps(solved(M, R, H), tmp_path)
    assert len(runs) == 1
