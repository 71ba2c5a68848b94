"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Expected values tagged as derived are computed here by independent oracles
(direct enumeration, fine-grid re-evaluation, closed formulas), never taken
from the solvers under test.
"""

import time

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import (
    GameContext,
    Mask,
    NashSearchConfig,
    PartitionContext,
    SearchConfig,
)
from spatial_pricing.ctransform import assignment_table, c_transform_table, double_transform_table, scale_tol
from spatial_pricing.model_one import profit_from_prices
from spatial_pricing.model_two import (
    one_d_reduction,
    profit_from_prices as subregion_profit,
    profit_from_values as subregion_value_profit,
    solve_boundary_control,
    solve_w_search,
)
from spatial_pricing.nash import best_response_dynamics, verify_equilibrium

from helpers import checked_reformulate, clamp_free_prices, region_from_points, random_kernel, random_points

METRIC = sp.CostKernel.metric(1.0)


def _report(k, name, detail):
    print(f"\nACCEPTANCE {k} ({name}): PASS — {detail}")


def _enumerate_best_price_profit(cost, levels, weights, tol, chunk=8192):
    """Independent oracle: scan every quantized price pattern, score the
    customer problem and the price-maximizing tie rule directly."""
    n, L = levels.shape
    total = L**n
    radix = L ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best = -np.inf
    cols = np.arange(n)
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (ids[:, None] // radix[None, :]) % L
        P = levels[cols[None, :], digits]
        totals = cost[None, :, :] + P[:, None, :]
        V = totals.min(axis=2)
        member = totals <= V[:, :, None] + tol
        paid = np.where(member, P[:, None, :], -np.inf).max(axis=2)
        best = max(best, float((paid @ weights).max()))
    return best


def test_criterion_1_quadratic_closed_form():
    t0 = time.time()
    n = 41
    region = sp.build_interval_region(n, 0.0, 1.0)
    x = region.coords_1d()
    kern = sp.CostKernel.quadratic()
    p0 = sp.PricePattern(x - 0.5 * x**2)
    f = sp.CustomerMeasure.uniform(n)
    rep = sp.solve_general(p0, kern, region, f, SearchConfig(levels=8, multistarts=16, seed=0))
    _, p_ref, _ = sp.quadratic_1d_reference(x)

    price_err = float(np.abs(rep.optimal_price.values - p_ref).max())
    assert price_err <= 0.02

    # derived target: profit of the closed form under uniform customers.
    # Its price quadrature is 1/6, but customers left of 1/2 travel to the
    # origin and pay zero, so the collected profit is 1/12.  The recovered
    # price is re-scored on a fine grid, where coarse-grid tie artifacts
    # (worth Theta(h)) vanish.
    fine = sp.build_interval_region(2001, 0.0, 1.0)
    xf = fine.coords_1d()
    quadrature = float(np.mean(xf / 2.0 - xf**2 / 4.0))
    assert abs(quadrature - 1.0 / 6.0) <= 1e-4
    p_fine = sp.PricePattern(np.interp(xf, x, rep.optimal_price.values))
    profit_fine = profit_from_prices(p_fine, kern, fine, sp.CustomerMeasure.uniform(2001))
    target = 1.0 / 12.0
    assert abs(profit_fine - target) <= 0.01 * target

    # the solver must also at least match the sampled closed form natively
    native_ref = profit_from_prices(sp.PricePattern(p_ref), kern, region, f)
    assert rep.profit >= native_ref - 1e-9

    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _report(
        1,
        "quadratic closed form",
        f"max price err {price_err:.2e} <= 0.02; fine-grid profit {profit_fine:.6f} "
        f"within 1% of {target:.6f}; price quadrature {quadrature:.6f} ~ 1/6; {elapsed:.1f}s",
    )


def test_criterion_2_metric_closed_form_oracle():
    t0 = time.time()
    rng = np.random.default_rng(42)
    L = 8
    worst = -np.inf
    for k in range(50):
        n = int(rng.integers(3, 7))
        d = 1 if k % 2 == 0 else 2
        region = region_from_points(random_points(rng, n, d))
        cost = sp.eval_cost(METRIC, region)
        p0 = sp.PricePattern(rng.uniform(0.0, 2.0, n))
        f = sp.CustomerMeasure.uniform(n)
        rep = sp.solve_metric(p0, METRIC, region, f)
        levels = np.stack([np.linspace(0.0, p0.values[i], L) for i in range(n)])
        best = _enumerate_best_price_profit(cost, levels, f.weights, scale_tol(cost))
        gap = best - rep.profit
        worst = max(worst, gap)
        assert gap <= 2.0 * float(p0.values.max()) / L
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    _report(2, "metric closed form vs enumeration", f"50 instances, worst enumeration gain {worst:.2e}; {elapsed:.1f}s")


def test_criterion_3_metric_pattern_distribution_free():
    t0 = time.time()
    rng = np.random.default_rng(7)
    for k in range(50):
        n = int(rng.integers(3, 7))
        region = region_from_points(random_points(rng, n, 1 if k % 2 else 2))
        p0 = sp.PricePattern(rng.uniform(0.0, 2.0, n))
        base = None
        for _ in range(5):
            f = sp.CustomerMeasure(rng.uniform(0.01, 1.0, n))
            pattern = sp.solve_metric(p0, METRIC, region, f).optimal_price.values
            if base is None:
                base = pattern
            else:
                assert (pattern == base).all()
    _report(3, "metric pattern distribution-free", f"50 instances x 5 measures, exact equality; {time.time()-t0:.1f}s")


def test_criterion_4_interval_reduction_formula():
    t0 = time.time()
    grid_n = 201
    for p0 in (0.2, 0.4, 1.0, 2.0):
        rep = one_d_reduction(0.0, 1.0, p0, sp.uniform_cdf(), grid_n=grid_n)
        p1, p2 = rep.diagnostics["p1"], rep.diagnostics["p2"]
        expected = max(p0 / 2.0, p0 - 0.5)
        step = p0 / (grid_n - 1)
        assert abs(p1 - expected) <= step + 1e-12
        assert abs(p2 - expected) <= step + 1e-12
        assert abs(p1 - p2) <= step + 1e-12
        # independent grid scan of the displayed objective
        g = np.linspace(0.0, p0, grid_n)
        P1, P2 = np.meshgrid(g, g, indexing="ij")
        s1 = p0 - P1
        s2 = P2 - p0 + 1.0
        s0 = 0.5 * (P2 - P1 + 1.0)
        F = lambda t: np.clip(t, 0.0, 1.0)
        obj = P1 * F(np.minimum(s0, s1)) + P2 * (1.0 - F(np.maximum(s0, s2)))
        obj[np.abs(P2 - P1) > 1.0 + 1e-12] = -np.inf
        assert rep.diagnostics["objective_two_term"] >= obj.max() - 1e-12
    elapsed = time.time() - t0
    assert elapsed <= 10.0
    _report(4, "interval reduction formula", f"four imposed-price levels within one grid step; {elapsed:.1f}s")


def test_criterion_5_reformulation_suite():
    t0 = time.time()
    rng = np.random.default_rng(11)
    done = 0
    while done < 200:
        n = int(rng.integers(3, 9))
        mask = np.where(rng.uniform(size=n) < 0.4, Mask.FIXED, Mask.FREE).astype(np.int8)
        if not (mask == Mask.FIXED).any() or not (mask == Mask.FREE).any():
            continue
        region = region_from_points(random_points(rng, n, 1 if done % 2 else 2), mask)
        kern = random_kernel(rng, n)
        p0 = sp.PricePattern(np.where(mask == Mask.FIXED, rng.uniform(0.0, 2.0, n), 0.0))
        ctx = PartitionContext.build(region, kern, p0)
        f = sp.CustomerMeasure(rng.uniform(0.0, 1.0, n))
        tol = 10.0 * ctx.tol * (1.0 + f.total_mass)
        p = ctx.full_prices(rng.uniform(-1.0, 2.5, ctx.free.size))
        pi_raw = subregion_profit(p, ctx, f)
        p_plus = clamp_free_prices(p, ctx)
        pi_plus = subregion_profit(p_plus, ctx, f)
        w, p_t = checked_reformulate(p_plus, ctx, f)  # the oracle's capture-identity checks included
        pi_tilde = subregion_profit(p_t, ctx, f)
        j = subregion_value_profit(w, ctx, f)
        assert pi_raw <= pi_plus + tol
        assert pi_plus <= pi_tilde + tol
        assert abs(pi_tilde - j) <= tol
        captured = assignment_table(p_t.values, sp.eval_cost(ctx.kernel, ctx.region), ctx.tol, ctx.free)[2] >= 0
        assert np.array_equal(captured, w <= ctx.v0 + ctx.tol)
        done += 1
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    _report(5, "reformulation suite", f"200 instances, profit chain and capture identity exact; {elapsed:.1f}s")


def test_criterion_6_transform_algebra():
    t0 = time.time()
    rng = np.random.default_rng(23)
    cases = 500
    for _ in range(cases):
        n = int(rng.integers(2, 8))
        region = region_from_points(random_points(rng, n, int(rng.integers(1, 3))))
        kern = random_kernel(rng, n)
        cost = sp.eval_cost(kern, region)
        tol = scale_tol(cost)
        v1 = rng.uniform(-2.0, 2.0, n)
        v2 = v1 + rng.uniform(0.0, 1.0, n)
        t1, t2 = c_transform_table(v1, cost), c_transform_table(v2, cost)
        assert (t1 >= t2 - tol).all()  # order reversal
        vv = double_transform_table(v1, cost)
        assert (vv >= v1 - tol).all()  # double transform dominates
        assert np.max(np.abs(c_transform_table(vv, cost) - t1)) <= tol  # triple = single
        w = np.min(cost - rng.uniform(-1.0, 1.0, n)[None, :], axis=1)
        gap = np.abs(w[:, None] - w[None, :])
        bound = np.max(np.abs(cost[:, None, :] - cost[None, :, :]), axis=2)
        assert (gap <= bound + tol).all()  # equicontinuity
        mcost = sp.eval_cost(METRIC, region)
        u = rng.uniform(-1.0, 1.0, n)
        lip = bool((np.abs(u[:, None] - u[None, :]) <= mcost + scale_tol(mcost)).all())
        conc = bool(np.max(np.abs(double_transform_table(u, mcost) - u)) <= scale_tol(mcost))
        assert lip == conc  # metric characterization
    elapsed = time.time() - t0
    _report(6, "transform algebra", f"{cases} cases x 5 properties, zero violations; {elapsed:.1f}s")


def test_criterion_7_game_dynamics():
    t0 = time.time()
    n = 21
    region = sp.build_interval_region(n, 0.0, 1.0)
    x = region.coords_1d()
    h = x[1] - x[0]
    cfg = NashSearchConfig(grid_n=30)
    rng = np.random.default_rng(5)
    measures = {
        "uniform": np.full(n, 1.0 / n),
        "triangular": np.minimum(x, 1.0 - x) + 1e-3,
        "random": rng.uniform(0.1, 1.0, n),
    }
    finals = {}
    for name, w in measures.items():
        ctx = GameContext.from_split(region, METRIC, 0.5, sp.CustomerMeasure(w / w.sum()))
        tr = best_response_dynamics(np.ones(n), np.ones(n), ctx, rounds=20, eps=1e-9, search=cfg)
        assert tr.converged and len(tr.rounds) <= 20
        finals[name] = tr.final
        p_fin, q_fin = tr.final
        assert np.abs(p_fin - (0.5 - x[ctx.indices("A")])).max() <= 2 * h
        assert np.abs(q_fin - (x[ctx.indices("B")] - 0.5)).max() <= 2 * h
    for name in ("triangular", "random"):
        assert (finals[name][0] == finals["uniform"][0]).all()
        assert (finals[name][1] == finals["uniform"][1]).all()

    ctx = GameContext.from_split(region, METRIC, 0.5, sp.CustomerMeasure.uniform(n))
    pa = np.zeros(n)
    pa[ctx.indices("A")] = 0.5 - x[ctx.indices("A")]
    qb = np.zeros(n)
    qb[ctx.indices("B")] = x[ctx.indices("B")] - 0.5
    ver = verify_equilibrium(pa, qb, ctx, cfg)
    assert ver.is_equilibrium
    gain_cap = h * ctx.f.total_mass
    assert ver.best_deviation_gain_a <= gain_cap
    assert ver.best_deviation_gain_b <= gain_cap
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    _report(
        7,
        "game dynamics",
        f"three measures converge to one pair within 2 grid steps; deviation gains "
        f"({ver.best_deviation_gain_a:.1e}, {ver.best_deviation_gain_b:.1e}) <= {gain_cap:.3f}; {elapsed:.1f}s",
    )


@pytest.mark.filterwarnings("ignore:atoms of the customer measure")
def test_criterion_8_cross_method_agreement():
    t0 = time.time()
    worst = 0.0
    for p0 in (0.4, 1.0, 2.0):
        n = 41
        region = sp.build_interval_region(n, 0.0, 1.0, fixed_window=(0.0, 1.0))
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(n, p0)))
        f = sp.CustomerMeasure.uniform(n)
        r_oned = one_d_reduction(0.0, 1.0, p0, ctx=ctx, f=f)
        r_w = solve_w_search(ctx, f, SearchConfig(levels=8, multistarts=8, seed=0))
        r_b = solve_boundary_control(ctx, f, SearchConfig(grid_n=201))
        profits = np.array([r_oned.profit, r_w.profit, r_b.profit])
        spread = float(profits.max() - profits.min())
        worst = max(worst, spread / max(p0, 1.0))
        # quantization tolerance: the coarsest lever is the ascent step after
        # refinement plus one spatial cell of tie ambiguity on the atoms
        quant_tol = 0.02 * max(p0, 1.0)
        assert spread <= quant_tol
    elapsed = time.time() - t0
    _report(8, "cross-method agreement", f"worst scaled profit spread {worst:.2e} <= 0.02; {elapsed:.1f}s")
