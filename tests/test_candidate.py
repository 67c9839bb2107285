"""Supersolution candidate: profile, coefficient fields, operator value,
region diagnostics."""

import numpy as np
import pytest

from oracles import (f_partials, indicial_roots, jet_coefficients, l_phi0,
                     l_phi0_summand)
import saddlecheck.candidate as candidate
from saddlecheck.candidate import (REGION_E1, REGION_E2, REGION_E3,
                                   CandidateParams, CoefficientSet, _f_dags,
                                   candidate_expressions, coefficient_set,
                                   f_generic, lambda_coeff, phi0_generic,
                                   region_classify, t_ratio, wedge_fields)
from saddlecheck.checks import verify_supersolution
from saddlecheck.rigor import Tape

RNG = np.random.default_rng(20240818)
N8 = CandidateParams(n=8)


def _omega_samples(k: int):
    t = RNG.uniform(0.2, 10.0, k)
    s = t + RNG.uniform(0.05, 10.0, k)
    return s, t


def test_parameter_table():
    for n, coeff, p, has_exp in [(8, 0.00007, 1.8, True),
                                 (10, 0.001, 3.0, False),
                                 (12, 0.001, 4.0, False)]:
        c = CandidateParams(n=n)
        assert (c.phi0_coeff, c.phi0_exponent, c.has_exp_term) == \
            (coeff, p, has_exp)
        assert c.decay_exponent == (n - 3) / 2.0
    with pytest.raises(ValueError):
        CandidateParams(n=9)


def test_indicial_roots_bracket_decay():
    lo, hi = indicial_roots(N8.n)
    assert (lo, hi) == (-3.0, -2.0)
    assert abs(hi) < N8.decay_exponent < abs(lo)


def test_f_reference_value():
    # independent arbitrary-precision evaluation of the n=8 profile at (1,1)
    assert f_generic(1.0, 1.0, N8) == pytest.approx(0.151193100351031725,
                                                    rel=1e-14)


def test_profile_signs():
    s, t = _omega_samples(10_000)
    f = f_generic(s, t, N8)
    h = -f_generic(t, s, N8)
    assert np.all(f > 0.0)
    assert np.all(h < 0.0)


def test_partials_two_routes_agree():
    # the symbolic DAG partials of the program, evaluated over floats,
    # against the forward-mode jets of the oracle
    s, t = _omega_samples(200)
    sym = Tape(_f_dags(N8, "s", "t")).run({"s": s, "t": t})
    jet = f_partials(s, t, N8)
    for a, b in zip(sym, jet):
        assert np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-30)) < 1e-10


def test_partials_finite_difference_oracle():
    s0, t0, d = 3.0, 2.0, 1e-5
    f, fs, ft, fss, fst, ftt = f_partials(np.array([s0]), np.array([t0]), N8)

    def fv(s, t):
        return f_generic(s, t, N8)
    assert fs[0] == pytest.approx((fv(s0 + d, t0) - fv(s0 - d, t0)) / (2 * d),
                                  rel=1e-6)
    assert ft[0] == pytest.approx((fv(s0, t0 + d) - fv(s0, t0 - d)) / (2 * d),
                                  rel=1e-6)
    assert fst[0] == pytest.approx(
        (fv(s0 + d, t0 + d) - fv(s0 + d, t0 - d)
         - fv(s0 - d, t0 + d) + fv(s0 - d, t0 - d)) / (4 * d * d), rel=1e-5)


def test_coefficient_swap_identities():
    s, t = _omega_samples(10_000)
    ours = coefficient_set(s, t, N8)
    mirrored = coefficient_set(t, s, N8)
    scale = np.maximum(np.abs(ours.c_s), 1e-30)
    assert np.max(np.abs(ours.c_t + mirrored.c_s) / scale) < 1e-10
    assert np.max(np.abs(ours.c_tt + mirrored.c_ss)) < 1e-10
    assert np.max(np.abs(ours.c_st + mirrored.c_st)) < 1e-10


def test_cst_vanishes_on_diagonal():
    d = np.linspace(0.5, 10.0, 64)
    cs = coefficient_set(d, d, N8)
    assert np.max(np.abs(cs.c_st)) < 1e-12


def test_coefficient_signs_at_reference_point():
    cs = coefficient_set(2.0, 1.0, N8)
    assert cs.c_s < 0 and cs.c_ss < 0 and cs.c_st < 0


def _l_phi0(cs, u):
    """L Phi_0 = Delta_m Phi_0 + (1 - 3u^2) Phi_0 from a CoefficientSet."""
    return cs.lap_phi0 + (1.0 - 3.0 * u**2) * cs.phi0


def test_l_phi0_closed_form():
    # the oracle's one-summand closed form by direct substitution at
    # (s,t,u) = (2,1,0.9)
    want = N8.phi0_coeff * (-0.36 * 2.0**-3.8 * np.exp(-1 / 3)
                            + 2.0**-1.8 * np.exp(-1 / 3)
                            * (-1.0 + 10 / 9 - 3 * 0.81))
    got = l_phi0_summand(2.0, 1.0, 0.9, N8)
    assert got == pytest.approx(want, rel=1e-12)
    # full value is the symmetric sum
    total = l_phi0(2.0, 1.0, 0.9, N8)
    assert total == pytest.approx(got + l_phi0_summand(1.0, 2.0, 0.9, N8),
                                  rel=1e-12)
    # and the catalogue's Phi_0 and Delta_m Phi_0, differentiated by the
    # program, give it too
    assert _l_phi0(coefficient_set(2.0, 1.0, N8), 0.9) == \
        pytest.approx(total, rel=1e-13)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_l_phi0_three_routes(n):
    # L Phi_0 from the catalogue (symbolic partials of phi0_generic), from
    # forward-mode jets of phi0_generic and from the closed form derived by
    # hand, at seeded wedge points, some next to the cone s = t and some
    # next to the axis t = 0
    rng = np.random.default_rng(300 + n)
    cand = CandidateParams(n=n)
    t = np.concatenate([rng.uniform(0.05, 20.0, 4000),
                        rng.uniform(1e-3, 0.05, 500),
                        rng.uniform(0.05, 20.0, 500)])
    gap = np.concatenate([rng.uniform(1e-3, 20.0, 4500),
                          rng.uniform(1e-9, 1e-3, 500)])
    s = t + gap
    u = rng.uniform(-1.0, 1.0, s.size)
    ours, jets = coefficient_set(s, t, cand), jet_coefficients(s, t, cand)
    got = _l_phi0(ours, u)
    # the radial terms of t^(-p) e^(-s/3), of size Phi_0/t^2, cancel exactly
    # for n = 10, 12; the symbolic and jet routes carry that cancellation,
    # so their rounding error is measured against those terms too
    scale = (np.abs(ours.phi0) * (1.0 + 3.0 * u**2 + 1.0 / t**2)
             + np.abs(ours.lap_phi0))
    assert np.max(np.abs(got - _l_phi0(jets, u)) / scale) < 1e-12
    assert np.max(np.abs(got - l_phi0(s, t, u, cand)) / scale) < 1e-12
    assert np.max(np.abs(ours.phi0 - jets.phi0) / jets.phi0) < 1e-14
    # Phi_0 on the tape is phi0_generic on arrays, bit for bit
    assert np.array_equal(ours.phi0, phi0_generic(s, t, cand))


def test_phi0_radially_harmonic_for_n10():
    # for n=10 the drift Laplacian of s^-3 cancels exactly, so the summand
    # has no s^(-p-2) leading term: difference of values with/without it
    c10 = CandidateParams(n=10)
    p = c10.phi0_exponent
    d = c10.m - 1
    assert p * p + p - d * p == 0.0


def _interior(sol):
    """wedge_fields at the interior nodes 0 < t < s < R: (s, t, i, j, phi,
    l_phi)."""
    i, j, _, phi, lp = wedge_fields(sol)
    inner = i < sol.grid.N
    i, j = i[inner], j[inner]
    return (sol.grid.coords[i], sol.grid.coords[j], i, j, phi[inner],
            lp[inner])


def test_phi_positive_and_symmetric(sol_m4_coarse):
    s, t, i, j, phi, _ = _interior(sol_m4_coarse)
    assert np.all(phi > 0.0)
    # reflection consistency: Phi(t,s) rebuilt from the antisymmetry of the
    # solution (u(t,s) = -u(s,t)) must reproduce Phi(s,t) at every node
    f_sw = f_partials(t, s, N8)[0]
    h_sw = -f_partials(s, t, N8)[0]
    phi0 = N8.phi0_coeff * (s ** -N8.phi0_exponent * np.exp(-t / 3.0)
                            + t ** -N8.phi0_exponent * np.exp(-s / 3.0))
    reflected = (f_sw * (-sol_m4_coarse.u_t[i, j])
                 + h_sw * (-sol_m4_coarse.u_s[i, j]) + phi0)
    err = np.abs(phi - reflected) / np.abs(phi)
    assert np.max(err) < 1e-12


def test_l_phi_routes_and_symmetry(sol_m4_coarse):
    # wedge_fields (the tape of the catalogue's DAGs) against L Phi from the
    # C's of the forward-mode jet oracle
    sol = sol_m4_coarse
    s, t, i, j, phi, lp_sym = _interior(sol)
    c = jet_coefficients(s, t, N8)
    lp_jet = (c.c_s * sol.u_s[i, j] + c.c_t * sol.u_t[i, j]
              + c.c_ss * sol.u_ss[i, j] + c.c_st * sol.u_st[i, j]
              + c.c_tt * sol.u_tt[i, j] + _l_phi0(c, sol.u[i, j]))
    assert np.max(np.abs(lp_sym - lp_jet)) < 1e-10
    # bit for bit the full-quadrant route: Phi from f_generic and
    # phi0_generic on arrays, and the tape of the catalogue (the five C's,
    # Phi_0 and Delta_m Phi_0) over every node, (2, 1) standing in for the
    # nodes off the wedge
    S, T = sol.grid.meshgrid()
    wedge = (S > T) & (T > 0)
    S, T = np.where(wedge, S, 2.0), np.where(wedge, T, 1.0)
    phi_ref = (f_generic(S, T, N8) * sol.u_s - f_generic(T, S, N8) * sol.u_t
               + phi0_generic(S, T, N8))
    cat = candidate_expressions(N8)
    ref = CoefficientSet(**dict(zip(cat, Tape(list(cat.values())).run(
        {"s": S, "t": T}))))
    lp_ref = (ref.c_s * sol.u_s + ref.c_t * sol.u_t + ref.c_ss * sol.u_ss
              + ref.c_st * sol.u_st + ref.c_tt * sol.u_tt + ref.lap_phi0
              + (1.0 - 3.0 * sol.u**2) * ref.phi0)
    assert np.array_equal(phi.view(np.int64), phi_ref[i, j].view(np.int64))
    assert np.array_equal(lp_sym.view(np.int64), lp_ref[i, j].view(np.int64))


def test_l_phi_dimension_guard(sol_m1):
    # the candidate of the solution's n = 2 is not defined
    with pytest.raises(ValueError, match="got n=2"):
        wedge_fields(sol_m1)


def test_supersolution_evaluates_wedge_nodes_only(sol_m4_coarse, monkeypatch):
    # one tape run over the N(N-1)/2 nodes 0 < t < s <= R, nothing else
    sizes = []

    def counted(s, t, cand):
        sizes.append(np.size(s))
        return coefficient_set(s, t, cand)
    monkeypatch.setattr(candidate, "coefficient_set", counted)
    verify_supersolution(sol_m4_coarse)
    n = sol_m4_coarse.grid.N
    assert sizes == [n * (n - 1) // 2]


def test_region_partition():
    assert region_classify(2.0, 1.5) == REGION_E1
    assert region_classify(4.0, 1.0) == REGION_E2
    assert region_classify(4.0, 0.3) == REGION_E3
    s, t = _omega_samples(1000)
    labels = region_classify(s, t)
    assert set(np.unique(labels)) <= {REGION_E1, REGION_E2, REGION_E3}


def test_ct_over_cs_bound():
    # below 0.9 on the stated wedge s/10 < t < s
    s = RNG.uniform(0.5, 18.0, 4000)
    t = s * RNG.uniform(0.11, 0.98, 4000)
    cs = coefficient_set(s, t, N8)
    assert np.max(cs.c_t / cs.c_s) < 0.9


def test_t_ratio_on_e1():
    s = RNG.uniform(1.0, 15.0, 2000)
    t = s * RNG.uniform(0.66, 0.99, 2000)
    keep = t > 0.5
    s, t = s[keep], t[keep]
    cs = coefficient_set(s, t, N8)
    lam = lambda_coeff(s, t, 8)
    # denominator stays negative and T stays positive over the whole r range
    for r in (np.clip(1.0 - lam, 0.0, 1.0 - 1e-9), 1.0 - 1e-3):
        val, ok = t_ratio(cs, np.broadcast_to(r, s.shape))
        assert np.all(ok)
        assert np.all(val > 0.0)
    # at the left endpoint r = 1 - lambda the ratio is below 1 except in a
    # narrow near-diagonal band, where the overshoot is bounded (< 1.3)
    val, _ = t_ratio(cs, np.clip(1.0 - lam, 0.0, 1.0 - 1e-9))
    over = val >= 1.0
    assert np.all(t[over] / s[over] > 0.88)
    assert np.all(s[over] > 3.0)
    assert np.max(val) < 1.3
    # at r near 1 the ratio is strictly inside (0, 1) everywhere on E1
    val, _ = t_ratio(cs, np.full_like(s, 1.0 - 1e-3))
    assert np.all(val < 1.0)


def test_css_over_gap_below_one_on_e1():
    # strict bound on E1; on the wider wedge s/10 < t < s the ratio can
    # overshoot 1 by a few percent, so only a coarse envelope holds there
    s = RNG.uniform(1.0, 18.0, 4000)
    t = s * RNG.uniform(0.66, 0.99, 4000)
    keep = t > 0.5
    cs = coefficient_set(s[keep], t[keep], N8)
    assert np.max(cs.c_ss / (cs.c_st - cs.c_tt)) < 1.0
    s2 = RNG.uniform(0.5, 18.0, 4000)
    t2 = s2 * RNG.uniform(0.11, 0.98, 4000)
    cs = coefficient_set(s2, t2, N8)
    assert np.max(cs.c_ss / (cs.c_st - cs.c_tt)) < 1.1
