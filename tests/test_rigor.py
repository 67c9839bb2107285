"""Outward-rounded interval arithmetic, expression catalog, symbolic
differentiation, and the branch-and-bound nonpositivity prover."""

import itertools

import numpy as np
import pytest

from oracles import (dag_nodes, divided_difference, divided_difference_float,
                     evaluate, evaluate_floats, jet_coefficients, psi,
                     subsolution_defect, variables)
from saddlecheck import rigor
from saddlecheck.candidate import CandidateParams
from saddlecheck.rigor import (ExprNode, HalfPlane, IntervalArray, Tape,
                               _down, _up, builtin_expressions, claims,
                               defect_quotient_expression, differentiate, nexp,
                               prove_nonpositive)

RNG = np.random.default_rng(917)

# frozen oracle for the scaled subsolution defect at (a, y, z) = (0.3, 3, 0.5)
# with drift coefficient d = 3; value computed by 50-digit arbitrary-precision
# evaluation of the definition
DEFECT_ORACLE = -0.2497967676318935697


def _point_env(names, values):
    return dict(zip(names, values))


def test_interval_arithmetic_soundness_bulk():
    # 1e5 random (box, point-in-box) pairs per catalog entry: every pointwise
    # value must land inside the box enclosure
    cat = builtin_expressions(8)
    n_boxes, n_samples = 2000, 50
    for name in ("c_s", "c_ss", "c_st", "c_tt", "c_t", "f", "h"):
        expr = cat[name]
        t_lo = RNG.uniform(0.2, 18.0, n_boxes)
        t_w = RNG.uniform(1e-4, 0.3, n_boxes)
        s_lo = t_lo + t_w + RNG.uniform(0.05, 5.0, n_boxes)
        s_w = RNG.uniform(1e-4, 0.3, n_boxes)
        env = {"s": IntervalArray.from_bounds(s_lo, s_lo + s_w),
               "t": IntervalArray.from_bounds(t_lo, t_lo + t_w)}
        iv = evaluate(expr, env)
        fs = s_lo[:, None] + s_w[:, None] * RNG.uniform(0, 1, (n_boxes, n_samples))
        ft = t_lo[:, None] + t_w[:, None] * RNG.uniform(0, 1, (n_boxes, n_samples))
        vals = evaluate(expr, {"s": fs, "t": ft})
        ok = (vals >= iv.lo[:, None]) & (vals <= iv.hi[:, None])
        assert np.all(ok | iv.bad[:, None]), name
        assert not iv.bad.any(), name


def test_catalog_size_and_point_agreement():
    cat = builtin_expressions(8)
    assert len(cat) >= 8
    for key in ("f", "h", "c_s", "c_t", "c_ss", "c_st", "c_tt",
                "defect_gap"):
        assert key in cat
    cs = jet_coefficients(2.0, 1.0, CandidateParams(n=8))
    env = {"s": 2.0, "t": 1.0}
    for key, want in (("c_s", cs.c_s), ("c_t", cs.c_t), ("c_ss", cs.c_ss),
                      ("c_st", cs.c_st), ("c_tt", cs.c_tt)):
        assert evaluate(cat[key], env) == pytest.approx(want, rel=1e-12)


def _claims_name_their_catalog(n, cat):
    for label, key, kwargs in claims(n):
        assert key in cat, (n, label, key)
        known = set(kwargs["names"]) | set(kwargs.get("fixed", {}))
        assert variables(cat[key]) <= known, (n, label)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_claim_table_matches_catalog(n):
    cat = builtin_expressions(n)
    _claims_name_their_catalog(n, cat)
    # a row naming a missing key is caught
    with pytest.raises(AssertionError):
        _claims_name_their_catalog(n, {k: v for k, v in cat.items()
                                       if k != "defect_gap"})


def test_cross_coefficient_vanishes_on_diagonal_interval():
    # C_st(t, t) = 0 analytically; the interval enclosure at a point input
    # must straddle zero with near-roundoff width
    cat = builtin_expressions(8)
    for tt in (0.7, 1.3, 4.0):
        pt = IntervalArray.point(np.array([tt]))
        iv = evaluate(cat["c_st"], {"s": pt, "t": pt})
        assert iv.lo[0] <= 0.0 <= iv.hi[0]
        assert iv.hi[0] - iv.lo[0] <= 1e-10


def _heteroclinic(x):
    return np.tanh(x / np.sqrt(2.0))


def _defect_from_quotient(a, u, z, d):
    """D = Q H(y) H(z) from the catalogue's Q, y = z + u."""
    q = evaluate_floats(defect_quotient_expression(),
                        {"a": a, "u": u, "z": z, "d": d})
    return q * _heteroclinic(z + u) * _heteroclinic(z)


def test_defect_frozen_oracle_and_gap_form_agreement():
    # the oracle is the printed two-term form in 60-digit arithmetic; the
    # catalogue holds Q = D / (H(y)H(z)) in gap coordinates
    got = subsolution_defect(0.3, 3.0, 0.5, 3.0)
    assert got == pytest.approx(DEFECT_ORACLE, rel=1e-14)
    got_gap = _defect_from_quotient(0.3, 2.5, 0.5, 3.0)
    assert got_gap == pytest.approx(DEFECT_ORACLE, rel=1e-12)
    # dense random agreement between the two parametrizations
    a = RNG.uniform(0.01, 0.45, 3000)
    z = RNG.uniform(0.01, 12.0, 3000)
    u = RNG.uniform(0.01, 12.0, 3000)
    v1 = subsolution_defect(a, z + u, z, 3.0)
    v2 = _defect_from_quotient(a, u, z, 3.0)
    assert np.max(np.abs(v1 - v2) / np.maximum(np.abs(v1), 1e-300)) < 1e-9


@pytest.mark.parametrize("d", [3.0, 4.0, 5.0])
def test_quotient_times_heteroclinics_is_the_defect(d):
    # Q H(y) H(z) against the 60-digit printed form, down to u, z ~ 1e-3
    # (where D ~ yz, so D and Q H(y)H(z) are both small) and out to z = 12
    rng = np.random.default_rng(int(d))
    n = 400
    a = rng.uniform(0.01, 0.45, n)
    u = np.concatenate([10.0 ** rng.uniform(-3, -2, n // 4),
                        rng.uniform(1e-3, 12.0, 3 * n // 4)])
    z = np.concatenate([rng.uniform(1e-3, 12.0, n // 4),
                        10.0 ** rng.uniform(-3, -2, n // 4),
                        12.0 - rng.uniform(0.0, 0.5, n // 4),
                        rng.uniform(1e-3, 12.0, n // 4)])
    want = subsolution_defect(a, z + u, z, d)
    got = _defect_from_quotient(a, u, z, d)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


@pytest.mark.parametrize("a, d", [(0.45, 3.0), (0.45, 4.0), (0.42, 5.0),
                                  (0.1, 5.0)])
def test_quotient_corner_limit(a, d):
    # G'(0) = -sqrt2/3, so Q(u = 0, z = 0) = 2a^2 - 1 + 2 d a^2 / 3
    got = evaluate_floats(defect_quotient_expression(),
                          {"a": a, "u": 0.0, "z": 0.0, "d": d})
    assert got == pytest.approx(2 * a * a - 1 + 2 * d * a * a / 3, rel=1e-14)


def test_n12_claim_box_excludes_the_known_counterexample():
    # H(0.45y)H(0.45z) is not a subsolution at d = 5: its defect is positive
    # at (a, u, z) = (0.45, 0.014, 0.28) and turns sign between a = 0.43 and
    # 0.435, so the n = 12 claim must stop short of that
    assert subsolution_defect(0.45, 0.28 + 0.014, 0.28, 5.0) > 0.0
    assert evaluate_floats(builtin_expressions(12)["defect_gap"],
                           {"a": 0.45, "u": 0.014, "z": 0.28, "d": 5.0}) > 0.0
    (kwargs,) = [kw for _, key, kw in claims(12) if key == "defect_gap"]
    assert kwargs["fixed"] == {"d": 5.0}
    assert kwargs["box"][kwargs["names"].index("a")][1] < 0.435


def test_differentiate_matches_finite_differences():
    # Q's partials through the divided-difference node, on both of the
    # oracle's float routes (quadrature for y^2 - z^2 <= 1 + 2z^2/pi^2,
    # quotient beyond)
    gap = defect_quotient_expression()
    names = ("a", "u", "z")
    eps = 1e-6
    for (u, z), nm in itertools.product([(1.7, 0.9), (0.2, 0.3), (0.01, 2.0)],
                                        names):
        base = {"a": 0.31, "u": u, "z": z, "d": 3.0}
        g = differentiate(gap, nm)
        hi = dict(base)
        lo = dict(base)
        hi[nm] += eps
        lo[nm] -= eps
        fd = (evaluate_floats(gap, hi) - evaluate_floats(gap, lo)) / (2 * eps)
        assert evaluate_floats(g, base) == pytest.approx(fd, rel=1e-6), \
            (u, z, nm)


def test_differentiate_shares_subtrees():
    # d/dx exp(x) must reuse the original exp node, so one memo pass covers
    # both the function and its derivative
    x = ExprNode.var("x")
    e = nexp(x)
    assert any(node is e for node in dag_nodes(differentiate(e, "x")))


def test_prover_toy_claims(monkeypatch):
    x = ExprNode.var("x")
    # max of x(1-x) is 1/4: provable with slack, undecided without
    expr = x * (1.0 - x) - 0.26
    res = prove_nonpositive(expr, ["x"], [[0.0, 1.0]])
    assert res.status == "proven"
    assert res.min_undecided_width == 0.0
    # no box variable in the claim: one 0-d enclosure decides every box of
    # the first batch, the root split unevaluated to 1,024 boxes
    const = prove_nonpositive(ExprNode.const(-1.0), ["x"], [[0.0, 1.0]])
    assert (const.status, const.boxes_examined) == ("proven", 1024)
    monkeypatch.setattr(rigor, "MAX_BOXES", 20_000)
    bad = prove_nonpositive(x * (1.0 - x) - 0.24, ["x"], [[0.0, 1.0]])
    assert bad.status == "undecided"
    # the surviving frontier hugs the true maximizer x = 1/2
    assert np.all(bad.frontier[:, 0, 0] < 0.5 + 0.1)
    assert np.all(bad.frontier[:, 0, 1] > 0.5 - 0.1)
    # a 100-box budget splits the root to 64 boxes, not 128, and stops at
    # their 128 children
    monkeypatch.setattr(rigor, "MAX_BOXES", 100)
    const = prove_nonpositive(ExprNode.const(1.0), ["x"], [[0.0, 1.0]])
    assert const.status == "undecided" and const.frontier.shape == (128, 1, 2)


@pytest.mark.parametrize("value", [0.0, -0.0, np.nan])
def test_prover_decides_only_upper_bounds_below_zero(value):
    # an enclosure whose upper end is 0 or NaN decides no box: every box is
    # split down to min_width and left in the frontier, 2^14 of them
    res = prove_nonpositive(ExprNode.const(value), ["x"], [[0.0, 1.0]])
    assert res.status == "undecided"
    assert res.frontier.shape == (2**14, 1, 2)
    assert res.boxes_examined == 1024 * (2**5 - 1)


def test_prover_width_counts_splittable_dims_only():
    # the frozen a keeps its full width in every frontier box; the reported
    # width is that of the dims the prover can still split
    a, x = ExprNode.var("a"), ExprNode.var("x")
    res = prove_nonpositive(a * (x * (1.0 - x)) - 0.24, ["a", "x"],
                            [[0.5, 1.0], [0.0, 1.0]], frozen_dims=("a",))
    assert res.status == "undecided" and len(res.frontier)
    assert 0.0 < res.min_undecided_width <= 1e-4
    assert np.all(res.frontier[:, 0] == [0.5, 1.0])


def test_prover_halfplane_constraint():
    s, t = ExprNode.var("s"), ExprNode.var("t")
    # t - s <= 0 holds only thanks to the clip s >= t + 0.05
    res = prove_nonpositive(t - s, ["s", "t"], [[0.0, 2.0], [0.0, 2.0]],
                            constraints=(HalfPlane(0, 1, 0.05),))
    assert res.status == "proven"


def _pairwise(a, b, relation, rows=256):
    """[i, j] = relation(a[i], b[j]) over boxes (N, dims, 2), row-chunked."""
    return np.concatenate([relation(a[i:i + rows, None], b[None])
                           for i in range(0, len(a), rows)])


def _inside_halfplane(boxes, c):
    """Measure of each 2-D box inside x[greater] >= x[lesser] + delta: the
    integral over the lesser variable t of clamp(s1 - delta - t, 0, s1 - s0),
    written as the difference of two ramps."""
    s0, s1 = boxes[:, c.greater, 0], boxes[:, c.greater, 1]
    t0, t1 = boxes[:, c.lesser, 0], boxes[:, c.lesser, 1]

    def ramp(top):
        return 0.5 * (np.maximum(top - t0, 0.0) ** 2
                      - np.maximum(top - t1, 0.0) ** 2)
    return ramp(s1 - c.delta) - ramp(s0 - c.delta)


_X, _S, _T = ExprNode.var("x"), ExprNode.var("s"), ExprNode.var("t")


@pytest.mark.parametrize("expr, kwargs, max_boxes", [
    (_X * (1.0 - _X) - 0.26, dict(names=["x"], box=[[0.0, 1.0]]), None),
    (_T - _S, dict(names=["s", "t"], box=[[0.0, 2.0], [0.0, 2.0]],
                   constraints=(HalfPlane(0, 1, 0.05),)), None),
    (_X * (1.0 - _X) - 0.24, dict(names=["x"], box=[[0.0, 1.0]]), 1500),
], ids=["1d", "2d-halfplane", "budget"])
def test_prover_neither_drops_nor_duplicates_a_box(expr, kwargs, max_boxes,
                                                   monkeypatch):
    # the boxes the prover decided and its frontier tile the claim box
    # clipped to its constraints, and it evaluates a batch of fewer than
    # MIN_BATCH boxes only when none of them can be split or the budget
    # forbids doubling it
    runs = []
    run = Tape.run

    def recording(self, env):
        runs.append((self, env))
        return run(self, env)

    monkeypatch.setattr(Tape, "run", recording)
    if max_boxes is not None:
        monkeypatch.setattr(rigor, "MAX_BOXES", max_boxes)
    res = prove_nonpositive(expr, **kwargs)
    names, box = kwargs["names"], np.array(kwargs["box"])
    budget = rigor.MAX_BOXES
    # each batch runs the box tape first, then the centre tape
    batches = [np.stack([np.stack([env[nm].lo, env[nm].hi], axis=1)
                         for nm in names], axis=1)
               for tape, env in runs if tape is runs[0][0]]
    assert len(batches) == res.batches and res.max_depth < rigor.MAX_DEPTH
    assert (res.status == "undecided") == (max_boxes is not None)

    scale = box[:, 1] - box[:, 0]
    examined = 0
    for b in batches:
        refinable = ((b[:, :, 1] - b[:, :, 0]) / scale).max(axis=1) > 1e-4
        assert len(b) >= rigor.MIN_BATCH or not refinable.any() or \
            examined + 2 * len(b) > budget
        examined += len(b)

    # a box the prover evaluated and never split further is decided unless
    # it is in the frontier; where the claim holds, its centre says so
    evaluated, frontier = np.concatenate(batches), res.frontier
    every = np.concatenate([evaluated, frontier])
    split = _pairwise(evaluated, every, lambda a, b: np.all(
        (a[..., 0] <= b[..., 0]) & (b[..., 1] <= a[..., 1]), axis=-1)
        & np.any(a != b, axis=(-2, -1))).any(axis=1)
    in_frontier = {b.tobytes() for b in frontier}
    decided = np.array([b for b in evaluated[~split]
                        if b.tobytes() not in in_frontier])
    centres = 0.5 * (decided[:, :, 0] + decided[:, :, 1])
    assert np.all(evaluate(expr, {nm: centres[:, k]
                                  for k, nm in enumerate(names)}) <= 0.0)

    tiles = np.concatenate([decided, frontier])
    overlap = _pairwise(tiles, tiles, lambda a, b: np.all(
        (a[..., 0] < b[..., 1]) & (b[..., 0] < a[..., 1]), axis=-1))
    assert overlap.sum() == len(tiles)      # each tile meets itself only
    constraints = kwargs.get("constraints", ())
    if constraints:
        (c,) = constraints
        whole = _inside_halfplane(box[None], c)[0]
        assert whole == pytest.approx(1.95**2 / 2)
        assert _inside_halfplane(tiles, c).sum() == pytest.approx(whole,
                                                                  rel=1e-12)
    else:
        assert (tiles[:, 0, 1] - tiles[:, 0, 0]).sum() == \
            pytest.approx(scale[0], rel=1e-12)


def test_prover_fixed_and_frozen_dims():
    cat = builtin_expressions(8)
    gap = cat["defect_gap"]
    res = prove_nonpositive(
        gap, ["a", "u", "z"],
        [[0.01, 0.45], [0.5, 2.0], [0.5, 2.0]],
        fixed={"d": 3.0}, frozen_dims=("a",), min_width=1e-6)
    assert res.status == "proven"
    # frozen dimension is never split: frontier-free proof with modest effort
    assert res.boxes_examined < 50_000


def test_prover_deterministic():
    cat = builtin_expressions(8)
    kw = dict(names=["s", "t"], box=[[1.0, 4.0], [0.5, 2.0]],
              constraints=(HalfPlane(0, 1, 0.05),))
    r1 = prove_nonpositive(cat["c_ss"], **kw)
    r2 = prove_nonpositive(cat["c_ss"], **kw)
    assert r1.status == r2.status == "proven"
    assert r1.boxes_examined == r2.boxes_examined


def test_interval_division_by_zero_flags_bad():
    num = IntervalArray.from_bounds(np.array([1.0]), np.array([2.0]))
    den = IntervalArray.from_bounds(np.array([-1.0]), np.array([1.0]))
    out = num / den
    assert out.bad[0]
    assert out.lo[0] == -np.inf and out.hi[0] == np.inf


@pytest.mark.parametrize("n", [8, 10, 12])
def test_catalog_matches_jet_coefficients(n):
    # the catalog's DAG partials (program) and the oracle's forward-mode jets
    # are two independent derivative routes through the one formula f_generic
    rng = np.random.default_rng(n)
    t = rng.uniform(0.2, 20.0, 2000)
    s = t + rng.uniform(1e-3, 20.0, 2000)
    cat = builtin_expressions(n)
    cs = jet_coefficients(s, t, CandidateParams(n=n))
    for key in ("c_s", "c_t", "c_ss", "c_st", "c_tt"):
        want = getattr(cs, key)
        got = evaluate(cat[key], {"s": s, "t": t})
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-9, key


# ---------------------------------------------------------------------------
# the divided-difference node and the corner of the defect claim
# ---------------------------------------------------------------------------

def test_psi_endpoint_enclosures_contain_the_exact_values():
    # psi, psi', psi'' at points on both sides of the series / closed-form
    # switch, out past the largest argument of the defect claim (2 * 24^2)
    t = np.concatenate([[0.0, 1e-300, 1e-8, 1.0, np.nextafter(4.0, 0.0),
                         4.0, np.nextafter(4.0, 5.0), 1152.0],
                        10.0 ** RNG.uniform(-6, 3.1, 40)])
    for k, iv in enumerate(rigor._psi(t)):
        assert not iv.bad.any()
        for j, tj in enumerate(t):
            assert iv.lo[j] <= psi(tj, k) <= iv.hi[j], (k, tj)
        # tight: a few dozen ulps at most
        assert np.all(iv.hi - iv.lo <= 1e-13 * np.abs(iv.hi)), k


def _dd_boxes(rng, n):
    """Boxes (z_lo, z_hi, u_lo, u_hi) of the defect claim's quadrant: a
    quarter with u_lo = 0, a quarter with z_lo = 0, a quarter with both, and
    every box's u-width up to 12 on a log scale; a tenth are points."""
    z_lo = rng.uniform(0.0, 12.0, n) * (rng.uniform(size=n) < 0.5)
    u_lo = rng.uniform(0.0, 11.9, n)
    u_lo[: n // 4] = 0.0
    z_lo[n // 4: n // 2] = 0.0
    z_lo[n // 2: 3 * n // 4] = u_lo[n // 2: 3 * n // 4] = 0.0
    z_w = 10.0 ** rng.uniform(-6, 0, n)
    u_w = 10.0 ** rng.uniform(-6, np.log10(12.0), n)
    points = rng.uniform(size=n) < 0.1
    z_w[points] = u_w[points] = 0.0
    return z_lo, z_lo + z_w, u_lo, u_lo + u_w


def test_divided_difference_enclosures_contain_the_exact_values():
    # DD and its two partials over boxes touching u = 0, z = 0 or both, and
    # over u-widths up to 12, against 60-digit values at corners and inner
    # points of each box
    rng = np.random.default_rng(31)
    z_lo, z_hi, u_lo, u_hi = _dd_boxes(rng, 120)
    z = IntervalArray.from_bounds(z_lo, z_hi)
    u = IntervalArray.from_bounds(u_lo, u_hi)
    enclosures = [rigor._dd_interval(z, u, kind)
                  for kind in ("dd", "dd_z", "dd_u")]
    assert not any(iv.bad.any() for iv in enclosures)
    for b in range(len(z_lo)):
        points = [(z_lo[b], u_lo[b]), (z_hi[b], u_hi[b]),
                  (z_lo[b], u_hi[b]), (z_hi[b], u_lo[b])]
        points += list(zip(rng.uniform(z_lo[b], z_hi[b], 2),
                           rng.uniform(u_lo[b], u_hi[b], 2)))
        for zp, up in points:
            for iv, exact in zip(enclosures, divided_difference(zp, up)):
                assert iv.lo[b] <= exact <= iv.hi[b], (b, zp, up)


def test_divided_difference_limits_at_the_diagonal_and_the_corner():
    # at u = 0 the node is G'(z^2), at the corner G'(0) = -sqrt2/3; the
    # point enclosure holds the limit and the oracle's float route returns it
    z = np.array([0.0, 1e-3, 0.5, 3.0, 12.0])
    iv = rigor._dd_interval(IntervalArray.point(z),
                            IntervalArray.point(np.zeros_like(z)), "dd")
    limit = np.array([float(np.sqrt(2.0) * 2 * psi(2 * zk * zk, 1))
                      for zk in z])
    assert np.all((iv.lo <= limit) & (limit <= iv.hi))
    assert evaluate_floats(
        ExprNode("dd", (ExprNode.var("z"), ExprNode.var("u"))),
        {"z": z, "u": 0.0 * z}) == pytest.approx(limit, rel=1e-14)
    assert iv.lo[0] <= -np.sqrt(2.0) / 3.0 <= iv.hi[0]
    assert limit[0] == pytest.approx(-np.sqrt(2.0) / 3.0, rel=1e-15)


@pytest.mark.parametrize("kind", ["dd", "dd_z", "dd_u"])
def test_tape_encloses_divided_differences_over_intervals_only(kind):
    z, u = ExprNode.var("z"), ExprNode.var("u")
    tape = Tape([ExprNode(kind, (z, u)) + 1.0])
    with pytest.raises(ValueError, match=f"node kind '{kind}'"):
        tape.run({"z": 0.5, "u": 0.25})
    iv, = tape.run({"z": IntervalArray.point(0.5),
                    "u": IntervalArray.point(0.25)})
    assert not iv.bad and iv.lo <= iv.hi


def test_float_divided_difference_oracle_matches_60_digits():
    # the oracle's float DD and partials on both of its routes, quadrature
    # where h = y^2 - z^2 <= 1 + 2z^2/pi^2 and the quotient beyond, u = 0,
    # z = 0 and h just above 1 at z = 11.28 included
    rng = np.random.default_rng(33)
    z = np.concatenate([rng.uniform(0.0, 12.0, 200), [0.0, 0.0, 3.0, 12.0]])
    u = np.concatenate([10.0 ** rng.uniform(-4, np.log10(12.0), 100),
                        rng.uniform(0.0, 12.0, 100), [0.5, 2.0, 0.0, 1e-3]])
    h = u * (2.0 * z + u)
    quadrature = h <= 1.0 + 2.0 * z * z / np.pi**2
    assert quadrature.sum() >= 50 and (~quadrature).sum() >= 50
    assert np.any(quadrature & (h > 1.0) & (z > 11.0))
    got = np.array([divided_difference_float(z, u, kind)
                    for kind in ("dd", "dd_z", "dd_u")])
    want = np.array([divided_difference(zk, uk) for zk, uk in zip(z, u)]).T
    scale = np.where(want == 0.0, 1.0, np.abs(want))
    assert np.max(np.abs(got - want) / scale) <= 1e-13


@pytest.mark.parametrize("n", [8, 10, 12])
def test_defect_claim_enclosures_hold_down_to_the_corner(n):
    # Q and the two partials the prover bounds it with, over boxes of the
    # claim's domain that touch u = 0, z = 0 or both, against their float
    # values at points of each box
    rng = np.random.default_rng(40 + n)
    (kwargs,) = [kw for _, key, kw in claims(n) if key == "defect_gap"]
    expr = builtin_expressions(n)["defect_gap"]
    roots = [expr, differentiate(expr, "u"), differentiate(expr, "z")]
    z_lo, z_hi, u_lo, u_hi = _dd_boxes(rng, 2000)
    keep = (z_hi > z_lo + 1e-4) & (u_hi > u_lo + 1e-4) & (u_hi <= 11.99)
    z_lo, z_hi, u_lo, u_hi = z_lo[keep], z_hi[keep], u_lo[keep], u_hi[keep]
    a_lo = rng.uniform(0.01, kwargs["box"][0][1] - 0.01, len(z_lo))
    a_hi = a_lo + 0.01
    d = kwargs["fixed"]["d"]
    boxes = {"a": (a_lo, a_hi), "u": (u_lo, u_hi), "z": (z_lo, z_hi)}
    env = {nm: IntervalArray.from_bounds(*b) for nm, b in boxes.items()}
    enclosures = Tape(roots).run(env | {"d": IntervalArray.point(d)})
    pts = {nm: lo[:, None]
           + (hi - lo)[:, None] * rng.uniform(0, 1, (len(lo), 20))
           for nm, (lo, hi) in boxes.items()}
    for root, iv in zip(roots, enclosures):
        vals = evaluate_floats(root, pts | {"d": d})
        assert not iv.bad.any()
        assert np.all((iv.lo[:, None] <= vals) & (vals <= iv.hi[:, None]))


@pytest.mark.parametrize("n, a_max", [(12, 0.435), (8, 0.51)])
def test_defect_claim_past_the_corner_bound_stays_undecided(n, a_max,
                                                            monkeypatch):
    # Q(0, 0) = 2a^2 - 1 + 2da^2/3 is positive once a > sqrt(3/(6 + 2d))
    # (0.4330 at d = 5, 0.5 at d = 3), so no enclosure may prove the claim
    # there, and what is left open sits at the corner
    assert 2 * a_max**2 - 1 + 2 * (n / 2 - 1) * a_max**2 / 3 > 0.0
    (kwargs,) = [kw for _, key, kw in claims(n) if key == "defect_gap"]
    kwargs = dict(kwargs, box=[[0.01, a_max]] + kwargs["box"][1:])
    monkeypatch.setattr(rigor, "MAX_BOXES", 30_000)
    res = prove_nonpositive(builtin_expressions(n)["defect_gap"], **kwargs)
    assert res.status == "undecided" and len(res.frontier)
    u_box, z_box = res.frontier[:, 1], res.frontier[:, 2]
    assert u_box[:, 1].max() <= 0.5 and z_box[:, 1].max() <= 0.5
    assert np.any((u_box[:, 0] == 0.0) & (z_box[:, 0] == 0.0))


# ---------------------------------------------------------------------------
# rounding kernels against their nextafter / nan_to_num reference
# ---------------------------------------------------------------------------

def _ref_down(x):
    with np.errstate(over="ignore"):
        return np.nextafter(np.nextafter(x, -np.inf), -np.inf)


def _ref_up(x):
    with np.errstate(over="ignore"):
        return np.nextafter(np.nextafter(x, np.inf), np.inf)


def _ref_mul(a, b):
    cands = np.stack([a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi])
    cands = np.nan_to_num(cands, nan=0.0)
    bad = a.bad | b.bad
    return (np.where(bad, -np.inf, _ref_down(cands.min(axis=0))),
            np.where(bad, np.inf, _ref_up(cands.max(axis=0))), bad)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _whole_range_sample(rng, n):
    """Random sign, biased exponent 0..2046 (subnormals included) and
    mantissa: finite doubles spread over every binade."""
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    expo = rng.integers(0, 2047, n, dtype=np.uint64) << np.uint64(52)
    mant = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    return (sign | expo | mant).view(np.float64)


_TINY = np.finfo(np.float64).tiny
_MAX = np.finfo(np.float64).max
_EDGES = np.array([0.0, 5e-324, 1e-323, 1.5e-323, _TINY, np.nextafter(_TINY, 0),
                   np.nextafter(_MAX, 0), _MAX, np.inf, 1.0, 2.0])
_EDGES = np.concatenate([_EDGES, -_EDGES, [np.nan, -np.nan]])
# NaNs with small payloads: one integer step would turn them into numbers
_PAYLOAD_NANS = np.array([0x7FF0000000000001, 0x7FF0000000000002,
                          -0x000FFFFFFFFFFFFF], dtype=np.int64).view(np.float64)


@pytest.mark.parametrize("kernel, ref", [(_down, _ref_down), (_up, _ref_up)])
def test_rounding_kernels_match_nextafter_bitwise(kernel, ref):
    rng = np.random.default_rng(4)
    values = np.concatenate([_whole_range_sample(rng, 200_000), _EDGES,
                             _PAYLOAD_NANS])
    with np.errstate(invalid="ignore"):
        assert np.array_equal(_bits(kernel(values)), _bits(ref(values)))
        for v in np.concatenate([_EDGES, _PAYLOAD_NANS]):
            assert _bits(kernel(np.asarray(v))) == _bits(ref(np.asarray(v)))


def _intervals(a, b, bad=None):
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    bad = np.zeros(lo.shape, dtype=bool) if bad is None else bad
    return IntervalArray(np.where(bad, -np.inf, lo), np.where(bad, np.inf, hi),
                         bad)


def _assert_mul_matches_reference(x, y):
    with np.errstate(invalid="ignore", over="ignore"):
        got = x * y
        want = _ref_mul(x, y)
    assert np.array_equal(_bits(got.lo), _bits(want[0]))
    assert np.array_equal(_bits(got.hi), _bits(want[1]))
    assert np.array_equal(got.bad, want[2])


def test_interval_multiply_matches_reference_bitwise():
    rng = np.random.default_rng(5)
    n = 100_000
    # finite products of moderate size: the min/max path
    mod = [rng.uniform(-30, 30, n) * 10.0 ** rng.integers(-20, 20, n)
           for _ in range(4)]
    _assert_mul_matches_reference(_intervals(*mod[:2]), _intervals(*mod[2:]))
    # the whole exponent range overflows and underflows, with bad lanes
    wide = [_whole_range_sample(rng, n) for _ in range(4)]
    bad = rng.uniform(size=(2, n)) < 0.05
    _assert_mul_matches_reference(_intervals(*wide[:2], bad[0]),
                                  _intervals(*wide[2:], bad[1]))
    # every interval with edge-value endpoints against every other one
    lo, hi = np.meshgrid(_EDGES, _EDGES)
    keep = (lo <= hi) | np.isnan(lo) | np.isnan(hi)
    edge = IntervalArray.from_bounds(lo[keep], hi[keep])
    k = len(edge.lo)
    left = IntervalArray.from_bounds(np.repeat(edge.lo, k),
                                     np.repeat(edge.hi, k))
    right = IntervalArray.from_bounds(np.tile(edge.lo, k), np.tile(edge.hi, k))
    _assert_mul_matches_reference(left, right)
    # products that underflow to signed zeros stay on the min/max path
    small = _EDGES[np.isfinite(_EDGES) & (np.abs(_EDGES) < 1.0)]
    a, b = np.meshgrid(small, small)
    _assert_mul_matches_reference(_intervals(a.ravel(), -a.ravel()),
                                  _intervals(b.ravel(), b.ravel()))


def _moderate(rng, n):
    """Finite doubles of moderate size, both signs."""
    return rng.uniform(-30, 30, n) * 10.0 ** rng.integers(-20, 20, n)


def test_interval_square_matches_reference_bitwise():
    # x * x on one object, of one sign or of mixed sign
    rng = np.random.default_rng(6)
    n = 100_000
    x = _intervals(_moderate(rng, n), _moderate(rng, n))
    _assert_mul_matches_reference(x, x)
    wide = _intervals(_whole_range_sample(rng, n), _whole_range_sample(rng, n),
                      rng.uniform(size=n) < 0.05)
    _assert_mul_matches_reference(wide, wide)
    lo, hi = np.meshgrid(_EDGES, _EDGES)
    keep = (lo <= hi) | np.isnan(lo) | np.isnan(hi)
    edge = IntervalArray.from_bounds(lo[keep], hi[keep])
    _assert_mul_matches_reference(edge, edge)
    nans = IntervalArray.from_bounds(_PAYLOAD_NANS, _PAYLOAD_NANS[::-1])
    _assert_mul_matches_reference(nans, nans)


def test_from_bounds_rejects_reversed_lanes():
    # one lane with lo > hi is enough; NaN lanes pass
    for lo, hi in (([2.0, 1.0], [1.0, 3.0]), ([2.0], [1.0])):
        with pytest.raises(ValueError):
            IntervalArray.from_bounds(lo, hi)
    assert IntervalArray.from_bounds([np.nan, 1.0], [0.0, np.nan]).lo.shape \
        == (2,)


@pytest.mark.parametrize("c", [0.0, -0.0, 1.0, -1.0, 2.5, -3.75, 5e-324,
                               -5e-324, 1e-310, 1e300, -1e300, _MAX, -_MAX])
def test_interval_times_point_constant_matches_reference_bitwise(c):
    # a 0-d point constant on either side takes two products
    rng = np.random.default_rng(7)
    n = 20_000
    const = IntervalArray.point(c)
    mod = _intervals(_moderate(rng, n), _moderate(rng, n))
    wide = _intervals(_whole_range_sample(rng, n), _whole_range_sample(rng, n),
                      rng.uniform(size=n) < 0.05)
    lo, hi = np.meshgrid(_EDGES, _EDGES)
    keep = (lo <= hi) | np.isnan(lo) | np.isnan(hi)
    edge = IntervalArray.from_bounds(lo[keep], hi[keep])
    for other in (mod, wide, edge, IntervalArray.point(1.5), const):
        _assert_mul_matches_reference(const, other)
        _assert_mul_matches_reference(other, const)


def _one_signed(sign, a, b):
    """Intervals |a|, |b| sorted, times sign, with signed-zero endpoints in
    some lanes."""
    lo, hi = np.minimum(np.abs(a), np.abs(b)), np.maximum(np.abs(a), np.abs(b))
    lo[::97] = 0.0
    lo[::89] = -0.0
    hi[::101], lo[::101] = 0.0, -0.0
    iv = IntervalArray.from_bounds(lo, hi)
    return iv if sign > 0 else -iv


@pytest.mark.parametrize("sx, sy", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_interval_one_signed_product_matches_reference_bitwise(sx, sy):
    # operands of one sign each take the two corner products
    rng = np.random.default_rng(8)
    n = 100_000
    mod = [_moderate(rng, n) for _ in range(4)]
    x, y = _one_signed(sx, *mod[:2]), _one_signed(sy, *mod[2:])
    assert (x._sign(), y._sign()) == (sx, sy)
    _assert_mul_matches_reference(x, y)
    # lanes that overflow to inf, and subnormal products
    wide = [_whole_range_sample(rng, n) for _ in range(4)]
    _assert_mul_matches_reference(_one_signed(sx, *wide[:2]),
                                  _one_signed(sy, *wide[2:]))
    edges = np.abs(_EDGES[~np.isnan(_EDGES)])
    lo, hi = np.meshgrid(edges, edges)
    keep = lo <= hi
    k = int(keep.sum())
    x = _one_signed(sx, np.repeat(lo[keep], k), np.repeat(hi[keep], k))
    y = _one_signed(sy, np.tile(lo[keep], k), np.tile(hi[keep], k))
    _assert_mul_matches_reference(x, y)


def _ref_div(a, b):
    """Division as the reciprocal interval times a, by _ref_mul."""
    bad = a.bad | b.bad | ((b.lo <= 0.0) & (b.hi >= 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = IntervalArray(
            np.where(bad, -np.inf, np.minimum(1.0 / b.lo, 1.0 / b.hi)),
            np.where(bad, np.inf, np.maximum(1.0 / b.lo, 1.0 / b.hi)), bad)
    return _ref_mul(a, inv)


def _assert_div_matches_reference(x, y):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        got = x / y
        want = _ref_div(x, y)
    assert np.array_equal(_bits(got.lo), _bits(want[0]))
    assert np.array_equal(_bits(got.hi), _bits(want[1]))
    assert np.array_equal(got.bad, want[2])


def test_interval_division_matches_reference_bitwise():
    rng = np.random.default_rng(9)
    n = 100_000
    num = _intervals(_moderate(rng, n), _moderate(rng, n))
    # denominators of one sign: no bad lane
    sign = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    den = _intervals(sign * np.abs(_moderate(rng, n)),
                     sign * np.abs(_moderate(rng, n)))
    assert not (num / den).bad.any()
    _assert_div_matches_reference(num, den)
    _assert_div_matches_reference(den, den)
    wide = _whole_range_sample(rng, 2 * n).reshape(2, n)
    _assert_div_matches_reference(_intervals(*wide), _one_signed(1, *wide))
    for c in (3.0, -0.5, 1e-300):
        _assert_div_matches_reference(num, IntervalArray.point(c))
        _assert_div_matches_reference(IntervalArray.point(c), den)
    # with bad lanes, through zero and flagged
    bad = rng.uniform(size=n) < 0.05
    _assert_div_matches_reference(
        _intervals(_moderate(rng, n), _moderate(rng, n), bad),
        _intervals(_moderate(rng, n), _moderate(rng, n)))


# ---------------------------------------------------------------------------
# the merged tape against the DAG as built
# ---------------------------------------------------------------------------

def test_tape_merges_equal_subtrees_but_not_signed_zeros():
    x = ExprNode.var("x")
    zero, neg_zero = ExprNode.const(0.0), ExprNode.const(-0.0)
    tape = Tape([x * x, x * x + 1.0, x * x + 1.0, zero, neg_zero])
    assert [op[0] for op in tape.ops] == ["var", "mul", "const", "add",
                                          "const", "const"]
    assert tape.roots == [1, 3, 3, 4, 5]
    got = tape.run({"x": 2.0})
    assert got[:3] == [4.0, 5.0, 5.0]
    assert np.copysign(1.0, got[3]) == 1.0 and np.copysign(1.0, got[4]) == -1.0
    # every intermediate is released once, after its last reader; a root,
    # even one another root reads, never is
    assert sorted(s for slots in tape.release for s in slots) == [0, 2]
    assert tape.release[1] == [0] and tape.release[3] == [2]


def _unmerged(node, env, memo):
    """Interval value of the DAG as built: each node object once, constants
    as full arrays, products and quotients by the reference kernels."""
    if id(node) not in memo:
        kind = node.kind
        if kind == "const":
            like = next(iter(env.values())).lo
            out = IntervalArray.point(np.full_like(like, node.value))
        elif kind == "var":
            out = env[node.name]
        else:
            args = [_unmerged(c, env, memo) for c in node.children]
            if kind == "mul":
                out = IntervalArray(*_ref_mul(*args))
            elif kind == "div":
                out = IntervalArray(*_ref_div(*args))
            elif kind == "add":
                out = args[0] + args[1]
            elif kind == "sub":
                out = args[0] - args[1]
            elif kind == "pow":
                out = args[0] ** node.value
            elif kind in ("dd", "dd_z", "dd_u"):
                out = rigor._dd_interval(*args, kind)
            else:
                out = getattr(args[0], kind)()
        memo[id(node)] = out
    return memo[id(node)]


def _random_boxes(rng, kwargs, n):
    """n boxes inside a claim's domain, of widths from 1e-7 of the domain
    to all of it, a tenth of them points, clipped to its half-planes."""
    lo, hi = np.array(kwargs["box"], dtype=float).T
    span = hi - lo
    width = span * 10.0 ** rng.uniform(-7, 0, (n, len(lo)))
    width[rng.uniform(size=n) < 0.1] = 0.0
    left = lo + (span - width) * rng.uniform(0, 1, (n, len(lo)))
    boxes = np.stack([left, left + width], axis=2)
    for c in kwargs.get("constraints", ()):
        boxes[:, c.greater, 0] = np.maximum(boxes[:, c.greater, 0],
                                            boxes[:, c.lesser, 0] + c.delta)
        boxes[:, c.lesser, 1] = np.minimum(boxes[:, c.lesser, 1],
                                           boxes[:, c.greater, 1] - c.delta)
    return boxes[np.all(boxes[:, :, 0] <= boxes[:, :, 1], axis=1)]


@pytest.mark.parametrize("n", [8, 10, 12])
def test_merged_tape_matches_unmerged_dag_bitwise(n):
    # the prover's tapes (claim and gradients over the box, claim over the
    # centres) against the unmerged DAG, on every claim's domain
    rng = np.random.default_rng(100 + n)
    cat = builtin_expressions(n)
    for label, key, kwargs in claims(n):
        expr, names = cat[key], kwargs["names"]
        frozen = kwargs.get("frozen_dims", ())
        roots = [expr] + [differentiate(expr, nm) for nm in names
                          if nm not in frozen and nm in variables(expr)]
        boxes = _random_boxes(rng, kwargs, 10_000)
        centres = 0.5 * (boxes[:, :, 0] + boxes[:, :, 1])
        env = {nm: IntervalArray.from_bounds(boxes[:, k, 0], boxes[:, k, 1])
               for k, nm in enumerate(names)}
        cenv = {nm: env[nm] if nm in frozen
                else IntervalArray.point(centres[:, k])
                for k, nm in enumerate(names)}
        for e, tree in ((env, roots), (cenv, roots[:1])):
            fixed = {nm: IntervalArray.point(v)
                     for nm, v in kwargs.get("fixed", {}).items()}
            full = {nm: IntervalArray.point(np.full(len(boxes), v))
                    for nm, v in kwargs.get("fixed", {}).items()}
            with np.errstate(all="ignore"):
                got = Tape(tree).run(e | fixed)
                memo = {}
                want = [_unmerged(r, e | full, memo) for r in tree]
            for g, w in zip(got, want):
                for part in ("lo", "hi", "bad"):
                    a = np.broadcast_to(getattr(g, part), len(boxes))
                    assert np.array_equal(a.view(np.uint8),
                                          getattr(w, part).view(np.uint8)), \
                        (n, label, part)


# ---------------------------------------------------------------------------
# range-checked one-step rounding and the sign an interval records
# ---------------------------------------------------------------------------

def _count_kernel_calls(monkeypatch):
    """Calls of the lane-by-lane kernel, which _wrap skips on the fast range."""
    calls = []
    kernel = rigor._two_ulps

    def counted(x, direction):
        calls.append(direction)
        return kernel(x, direction)

    monkeypatch.setattr(rigor, "_two_ulps", counted)
    return calls


def _assert_wrap_matches_kernels(x, bad=None):
    """_wrap of the point interval x, with its extremes read by _wrap and
    handed over by the caller, is _down/_up bit for bit, with bad lanes
    [-inf, inf]."""
    bad = np.zeros(x.shape, dtype=bool) if bad is None else bad
    iv = IntervalArray(x, x, bad)
    ext = rigor._extremes(x)
    with np.errstate(invalid="ignore", over="ignore"):
        want_lo = np.where(bad, -np.inf, _ref_down(x))
        want_hi = np.where(bad, np.inf, _ref_up(x))
        runs = [iv._wrap(x.copy(), x.copy())]
        if ext is not None:
            runs.append(iv._wrap(x.copy(), x.copy(), bad, ext, ext))
    for got in runs:
        assert np.array_equal(_bits(got.lo), _bits(want_lo))
        assert np.array_equal(_bits(got.hi), _bits(want_hi))
        assert got.bad is bad
        _assert_recorded_sign_holds(got)
    return runs


# the fast range is (1e-300, 1e300): the last float outside, its ends, and
# the first float inside at each end
_RANGE_EDGES = [(np.nextafter(1e-300, 0), False), (1e-300, False),
                (np.nextafter(1e-300, 1), True), (np.nextafter(1e300, 0), True),
                (1e300, False), (np.nextafter(1e300, np.inf), False)]


@pytest.mark.parametrize("sign", [1, -1])
def test_wrap_one_step_matches_kernels_at_the_range_edges(sign, monkeypatch):
    # one-signed arrays whose min or max sits just inside or just outside
    # the fast range take the one step, and record their sign, exactly when
    # all of them is inside
    calls = _count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(12)
    base = sign * 10.0 ** rng.uniform(-299, 299, 4096)
    for edge, inside in _RANGE_EDGES:
        x = base.copy()
        x[::97] = sign * edge
        calls.clear()
        for got in _assert_wrap_matches_kernels(x):
            assert got.sign == (sign if inside else None), (edge, sign)
        assert not calls if inside else len(calls) == 4, (edge, sign)


def test_wrap_matches_kernels_with_edge_values_mixed_in(monkeypatch):
    # one value of _EDGES (+-0, subnormals, +-max, +-inf, NaN) or a payload
    # NaN among one-signed moderate values, with and without bad lanes
    calls = _count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(13)
    for sign in (1, -1):
        base = sign * np.abs(_moderate(rng, 1000))
        for v in np.concatenate([_EDGES, _PAYLOAD_NANS]):
            x = base.copy()
            x[rng.integers(0, len(x), 3)] = v
            calls.clear()
            _assert_wrap_matches_kernels(x)
            inside = 1e-300 < sign * float(v) < 1e300
            assert not calls if inside else calls, (v, sign)
            for got in _assert_wrap_matches_kernels(
                    x, rng.uniform(size=len(x)) < 0.1):
                assert got.sign is None


def test_wrap_matches_kernels_on_0d_and_empty_arrays():
    for v in np.concatenate([_EDGES, _PAYLOAD_NANS, [3.5, -1e-200, 1e299]]):
        [got] = _assert_wrap_matches_kernels(np.asarray(v))[:1]
        assert got.lo.shape == ()
        _assert_wrap_matches_kernels(np.asarray(v), np.asarray(True))
    [got] = _assert_wrap_matches_kernels(np.zeros(0))
    assert got.lo.shape == (0,) and got.sign is None and got._sign() == 0
    empty = IntervalArray.from_bounds(np.zeros(0), np.zeros(0))
    assert (empty * empty).lo.shape == (0,)
    assert (empty / IntervalArray.point(2.0)).lo.shape == (0,)


@pytest.mark.parametrize("sign", [1, -1])
def test_signed_reciprocal_division_matches_reference_bitwise(sign):
    # a denominator that recorded a strict sign takes the reciprocal
    # [1/hi, 1/lo] without the zero test or the min/max; one that reaches
    # outside the fast range records none and takes the general path, also
    # when only its hi array does (+inf and NaN lanes)
    rng = np.random.default_rng(14 + sign)
    n = 50_000
    mod = np.abs(_moderate(rng, 2 * n)).reshape(2, n) + 1e-300
    wide = np.abs(_whole_range_sample(rng, 2 * n)).reshape(2, n)
    wide[wide == 0.0] = 5e-324
    inner = np.array([e for e, inside in _RANGE_EDGES if inside] + [1.0])
    edge = np.abs(_EDGES[np.isfinite(_EDGES) & (_EDGES != 0.0)])
    open_hi = np.sort(mod, axis=0)
    open_hi[1, ::7], open_hi[1, ::11] = np.inf, np.nan
    nums = [_intervals(_moderate(rng, n), _moderate(rng, n)),
            _intervals(_whole_range_sample(rng, n), _whole_range_sample(rng, n),
                       rng.uniform(size=n) < 0.05)]
    for values, recorded in ((mod, True), (inner, True), (wide, False),
                             (edge, False), (open_hi, False)):
        if values.ndim == 1:
            lo, hi = np.meshgrid(values, values)
            values = np.array([lo[lo <= hi], hi[lo <= hi]])
        den = IntervalArray.from_bounds(*np.sort(values, axis=0)) + 0.0
        den = den if sign > 0 else -den
        assert den.sign == (sign if recorded else None)
        k = len(den.lo)
        for num in nums + [IntervalArray.point(-2.5)]:
            if num.lo.ndim:
                num = IntervalArray(np.resize(num.lo, k), np.resize(num.hi, k),
                                    np.resize(num.bad, k))
            _assert_div_matches_reference(num, den)


def _array_sign(iv):
    """The sign of an interval read from its arrays alone."""
    if iv.lo.size:
        if iv.lo.min() >= 0.0:
            return 1
        if iv.hi.max() <= 0.0:
            return -1
    return 0


def _assert_recorded_sign_holds(iv):
    """A recorded sign is the one the arrays give, with no bad lane and
    every endpoint finite and nonzero, of that sign or with lo < 0 < hi."""
    if iv.sign is not None:
        assert iv.sign == _array_sign(iv)
        assert not iv.bad.any()
        assert np.isfinite(iv.lo).all() and np.isfinite(iv.hi).all()
        if iv.sign:
            assert (iv.sign * iv.lo > 0).all() and (iv.sign * iv.hi > 0).all()
        else:
            assert (iv.lo < 0).all() and (iv.hi > 0).all()


@pytest.mark.parametrize("n", [8, 10, 12])
def test_recorded_signs_hold_on_every_claim_tape(n, monkeypatch):
    # a stale sign could pick the wrong corner product or reciprocal, so
    # every sign a product asks for and every sign a result records is
    # checked against the arrays, over every claim's tapes
    sign, wrap = IntervalArray._sign, IntervalArray._wrap
    asked = []

    def checked_sign(self):
        _assert_recorded_sign_holds(self)
        got = sign(self)
        assert got == _array_sign(self)
        asked.append(self.sign is not None)
        return got

    def checked_wrap(self, *args):
        out = wrap(self, *args)
        _assert_recorded_sign_holds(out)
        return out

    monkeypatch.setattr(IntervalArray, "_sign", checked_sign)
    monkeypatch.setattr(IntervalArray, "_wrap", checked_wrap)
    rng = np.random.default_rng(200 + n)
    cat = builtin_expressions(n)
    for label, key, kwargs in claims(n):
        expr, names = cat[key], kwargs["names"]
        frozen = kwargs.get("frozen_dims", ())
        roots = [expr] + [differentiate(expr, nm) for nm in names
                          if nm not in frozen and nm in variables(expr)]
        boxes = _random_boxes(rng, kwargs, 5_000)
        centres = 0.5 * (boxes[:, :, 0] + boxes[:, :, 1])
        env = {nm: IntervalArray.from_bounds(boxes[:, k, 0], boxes[:, k, 1])
               for k, nm in enumerate(names)}
        cenv = {nm: env[nm] if nm in frozen
                else IntervalArray.point(centres[:, k])
                for k, nm in enumerate(names)}
        fixed = {nm: IntervalArray.point(v)
                 for nm, v in kwargs.get("fixed", {}).items()}
        with np.errstate(all="ignore"):
            Tape(roots).run(env | fixed)
            Tape(roots[:1]).run(cenv | fixed)
    assert any(asked)
