import math
import warnings

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import Mask, PartitionContext, SearchConfig, SearchMode, model_two
from spatial_pricing import ctransform as ct
from spatial_pricing.ctransform import NotCConcaveError, assignment_table, c_transform_table
from spatial_pricing.model_two import (
    one_d_reduction,
    profit_from_prices,
    profit_from_values,
    reformulate,
    solve_boundary_control,
    solve_w_search,
)

from helpers import (
    brute_force_price_profit,
    checked_reformulate,
    clamp_free_prices,
    random_kernel,
    random_partitioned_region,
    region_from_points,
)

METRIC = sp.CostKernel.metric(1.0)


def window_context(n=101, p0=0.4, window=(0.0, 1.0)):
    region = sp.build_interval_region(n, 0.0, 1.0, fixed_window=window)
    ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(n, p0)))
    return ctx, sp.CustomerMeasure.uniform(n)


def random_context(rng, n, d=1):
    region = random_partitioned_region(rng, n, d)
    kern = random_kernel(rng, n)
    p0 = sp.PricePattern(np.where(region.mask == Mask.FIXED, rng.uniform(0.0, 2.0, n), 0.0))
    return PartitionContext.build(region, kern, p0)


class TestContext:
    def test_rejects_missing_parts(self):
        region = sp.build_interval_region(5, 0.0, 1.0)  # no partition
        with pytest.raises(ValueError):
            PartitionContext.build(region, METRIC, sp.PricePattern(np.full(5, 1.0)))

    def test_rejects_negative_or_improper_imposed_prices(self):
        region = sp.build_interval_region(5, 0.0, 1.0, fixed_window=(0.2, 0.8))
        bad = np.zeros(5)
        bad[list(region.fixed_indices)] = -0.5
        with pytest.raises(ValueError):
            PartitionContext.build(region, METRIC, sp.PricePattern(bad))
        allinf = np.full(5, np.inf)
        with pytest.raises(ValueError):
            PartitionContext.build(region, METRIC, sp.PricePattern(allinf))

    def test_outside_value_is_finite_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            ctx = random_context(rng, int(rng.integers(3, 8)))
            assert np.isfinite(ctx.v0).all() and (ctx.v0 >= 0).all()

    def test_partially_unbounded_imposed_prices(self):
        # +inf entries are allowed on the fixed part as long as one is finite
        region = sp.build_interval_region(7, 0.0, 1.0, fixed_window=(0.2, 0.8))
        vals = np.zeros(7)
        fixed = list(region.fixed_indices)
        vals[fixed] = np.inf
        vals[fixed[0]] = 0.5
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(vals))
        assert np.isfinite(ctx.v0).all()


class TestProfit:
    def test_unreachable_free_prices_earn_nothing(self):
        # customers all strictly inside the fixed window with zero imposed price
        region = sp.build_interval_region(5, 0.0, 1.0, fixed_window=(0.2, 0.8))
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(5, 0.0)))
        w = np.zeros(5)
        w[list(region.fixed_indices)] = 1.0
        f = sp.CustomerMeasure(w / w.sum())
        huge = ctx.full_prices(np.full(region.free_indices.size, 10.0))
        assert profit_from_prices(huge, ctx, f) == 0.0

    def test_zero_free_prices_earn_nothing(self):
        region = sp.build_interval_region(5, 0.0, 1.0, fixed_window=(0.2, 0.8))
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(5, 1.0)))
        f = sp.CustomerMeasure.uniform(5)
        zero = ctx.full_prices(np.zeros(region.free_indices.size))
        assert np.isclose(profit_from_prices(zero, ctx, f), 0.0, atol=1e-12)

    def test_interval_instance_against_direct_simulation(self):
        # window (0, 1), imposed price 0.4, both interface prices at 0.2
        ctx, f = window_context(n=101, p0=0.4)
        p = ctx.full_prices(np.array([0.2, 0.2]))
        got = profit_from_prices(p, ctx, f)
        # independent simulation:每 customer minimizes cost by hand
        x = ctx.region.coords_1d()
        expected = 0.0
        for i, xi in enumerate(x):
            offers = {0: xi + 0.2, 100: (1 - xi) + 0.2}
            inside = 0.4 if 0 < i < 100 else np.inf
            best = min(min(offers.values()), inside)
            winners = [j for j, t in offers.items() if t <= best + 1e-12]
            if winners:
                expected += f.weights[i] * 0.2
        assert np.isclose(got, expected)
        # continuum value of the same expression is 0.2*F(0.2) + 0.2*(1-F(0.8)) = 0.08
        assert abs(got - 0.08) <= 0.01


class TestClampAndReformulate:
    def test_clamp_keeps_nonnegative_patterns(self):
        ctx, f = window_context(n=21)
        p = ctx.full_prices(np.array([0.3, 0.1]))
        clamped = clamp_free_prices(p, ctx)
        assert (clamped.values == p.values).all()
        assert np.isclose(profit_from_prices(clamped, ctx, f), profit_from_prices(p, ctx, f))

    def test_clamp_rescues_negative_prices(self):
        ctx, f = window_context(n=21, p0=1.0)
        p = ctx.full_prices(np.array([-1.0, -1.0]))
        before = profit_from_prices(p, ctx, f)
        clamped = clamp_free_prices(p, ctx)
        after = profit_from_prices(clamped, ctx, f)
        assert before <= 0.0 <= after + 1e-12
        assert (clamped.values[ctx.free] == 0.0).all()

    def test_clamp_never_lowers_profit_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            ctx = random_context(rng, int(rng.integers(3, 8)))
            f = sp.CustomerMeasure(rng.uniform(0, 1, ctx.region.size))
            p = ctx.full_prices(rng.uniform(-1.0, 2.0, ctx.free.size))
            before = profit_from_prices(p, ctx, f)
            after = profit_from_prices(clamp_free_prices(p, ctx), ctx, f)
            assert after >= before - 1e-9

    def test_reformulate_fixed_point_on_canonical_prices(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            ctx = random_context(rng, int(rng.integers(3, 8)))
            g = rng.uniform(0.0, 2.0, ctx.free.size)
            _, p_t = checked_reformulate(ctx.full_prices(g), ctx)
            _, p_tt = checked_reformulate(p_t, ctx)
            assert np.allclose(p_tt.values[ctx.free], p_t.values[ctx.free], atol=1e-9)

    def test_reformulate_conclusions_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            ctx = random_context(rng, int(rng.integers(3, 8)))
            f = sp.CustomerMeasure(rng.uniform(0, 1, ctx.region.size))
            p = ctx.full_prices(rng.uniform(0.0, 2.5, ctx.free.size))
            # the oracle checks all conclusions and raises on violation
            w, p_t = checked_reformulate(p, ctx, f)
            assert profit_from_prices(p_t, ctx, f) >= profit_from_prices(p, ctx, f) - 1e-9

    def test_reformulate_requires_nonnegative(self):
        ctx, _ = window_context(n=11)
        with pytest.raises(ValueError):
            reformulate(ctx.full_prices(np.array([-0.5, 0.2])), ctx)

    def test_two_interface_prices_reproduced(self):
        ctx, _ = window_context(n=21, p0=1.0)
        p1, p2 = 0.3, 0.7  # |p2 - p1| <= 1: both cones active
        _, p_t = checked_reformulate(ctx.full_prices(np.array([p1, p2])), ctx)
        assert np.isclose(p_t.values[0], p1) and np.isclose(p_t.values[-1], p2)


class TestValueProfit:
    def test_matches_reformulated_price_profit(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            ctx = random_context(rng, int(rng.integers(3, 8)))
            f = sp.CustomerMeasure(rng.uniform(0, 1, ctx.region.size))
            p = ctx.full_prices(rng.uniform(0.0, 2.0, ctx.free.size))
            w, p_t = checked_reformulate(p, ctx, f)
            J = profit_from_values(w, ctx, f)
            assert np.isclose(J, profit_from_prices(p_t, ctx, f), atol=1e-8 * (1 + f.total_mass))

    def test_zero_prices_value_function_earns_nothing(self):
        # zero free prices generate w(x) = distance to the free part
        ctx, f = window_context(n=21)
        w = np.min(ctx.cost[:, ctx.free], axis=1)
        assert np.isclose(profit_from_values(w, ctx, f), 0.0, atol=1e-12)

    def test_flat_zero_is_rejected_on_mixed_regions(self):
        ctx, f = window_context(n=21)
        with pytest.raises(NotCConcaveError):
            profit_from_values(np.zeros(21), ctx, f)


class TestWSearch:
    def test_matches_unrestricted_pricing_when_imposed_price_is_high(self):
        # one fixed point carrying no customers and a very high imposed price:
        # the subregion problem equals whole-region pricing on the free points
        pts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        mask = np.array([Mask.FREE, Mask.FREE, Mask.FIXED, Mask.FREE, Mask.FREE], dtype=np.int8)
        region = region_from_points(pts, mask)
        p0v = np.zeros(5)
        p0v[2] = 2.0
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(p0v))
        weights = np.array([0.25, 0.25, 0.0, 0.25, 0.25])
        f = sp.CustomerMeasure(weights)
        levels = 6
        rep = solve_w_search(ctx, f, SearchConfig(mode=SearchMode.EXHAUSTIVE, levels=levels, max_candidates=10**5))
        # oracle: enumerate free-point price patterns over the same grid and
        # evaluate the whole-region profit on the free subregion directly
        sub = region_from_points(pts[[0, 1, 3, 4]])
        f_sub = sp.CustomerMeasure(weights[[0, 1, 3, 4]])
        grids = [np.linspace(0, ctx.v0[i], levels) for i in ctx.free]
        best, _ = brute_force_price_profit(grids, METRIC, sub, f_sub)
        assert np.isclose(rep.profit, best, atol=1e-9)

    @pytest.mark.filterwarnings("ignore:atoms of the customer measure")
    def test_matches_interval_reduction(self):
        ctx, f = window_context(n=41, p0=0.4)
        rep = solve_w_search(ctx, f, SearchConfig(levels=8, multistarts=8, seed=0))
        ref = one_d_reduction(0.0, 1.0, 0.4, ctx=ctx, f=f)
        assert abs(rep.profit - ref.profit) <= 0.01

    def test_zero_imposed_price_earns_nothing(self):
        region = sp.build_interval_region(9, 0.0, 1.0, fixed_window=(0.2, 0.8))
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(9, 0.0)))
        w = np.where(region.mask == Mask.FIXED, 1.0, 0.0)
        f = sp.CustomerMeasure(w / w.sum())
        rep = solve_w_search(ctx, f, SearchConfig(levels=5, multistarts=5))
        assert np.isclose(rep.profit, 0.0, atol=1e-12)

    def test_report_invariants(self):
        rng = np.random.default_rng(5)
        ctx = random_context(rng, 7)
        f = sp.CustomerMeasure(rng.uniform(0.1, 1.0, 7))
        rep = solve_w_search(ctx, f, SearchConfig(levels=6, multistarts=6))
        tol = ctx.tol
        assert np.array_equal(rep.captured, rep.optimal_value <= ctx.v0 + tol)
        assert (rep.optimal_price.values[ctx.fixed] == ctx.p0.values[ctx.fixed]).all()
        value_form = model_two.profit_from_values(rep.optimal_value, ctx, f)
        assert np.isclose(rep.profit, value_form, atol=10 * tol * (1 + f.total_mass))


class TestBoundaryControl:
    def test_interval_control_structure(self):
        region = sp.build_interval_region(11, 0.0, 1.0, fixed_window=(0.3, 0.7))
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(11, 0.5)))
        f = sp.CustomerMeasure.uniform(11)
        rep = solve_boundary_control(ctx, f, SearchConfig(grid_n=101))
        ctrl = rep.diagnostics["control_indices"]
        assert ctrl == [3, 7]
        phi = np.asarray(rep.diagnostics["control_prices"])
        # caps are the outside-option values at the interface, coupling is the distance
        assert (phi <= ctx.v0[ctrl] + 1e-12).all()
        assert abs(phi[1] - phi[0]) <= 0.4 + 1e-12

    def test_transport_term_matches_interval_formula(self):
        region = sp.build_interval_region(21, 0.0, 1.0, fixed_window=(0.2, 0.8))
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(21, 0.6)))
        f = sp.CustomerMeasure.uniform(21)
        rep = solve_boundary_control(ctx, f, SearchConfig(grid_n=61))
        w = rep.optimal_value
        x = region.coords_1d()
        xa, xb = x[rep.diagnostics["control_indices"]]
        wc = c_transform_table(w, sp.eval_cost(METRIC, region), ctx.free)
        member = np.abs(w[:, None] + wc[None, :] - ctx.cost[:, ctx.free]) <= ctx.tol
        delta = np.where(member, ctx.cost[:, ctx.free], np.inf).min(axis=1)
        inside = ctx.region.mask == Mask.FIXED
        assert np.allclose(delta[inside], np.minimum(x[inside] - xa, xb - x[inside]), atol=1e-9)

    def test_zero_interface_prices_give_distance_function(self):
        region = sp.build_interval_region(21, 0.0, 1.0, fixed_window=(0.2, 0.8))
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(21, 0.6)))
        f = sp.CustomerMeasure.uniform(21)
        ctrl = np.nonzero(region.boundary_of_fixed & (region.mask == Mask.FREE))[0]
        w = np.min(ctx.cost[:, ctrl], axis=1)  # zero interface prices
        # 1-Lipschitz and vanishing trace
        assert (np.abs(w[:, None] - w[None, :]) <= ctx.cost + 1e-12).all()
        assert np.allclose(w[ctrl], 0.0)
        # fixed-part integrand vanishes: the generating interface point is the
        # cheapest superdifferential element at its own distance
        J = profit_from_values(w, ctx, f)
        free_part = float(np.dot(f.weights[ctx.free], w[ctx.free]))
        assert np.isclose(J, free_part, atol=1e-9)

    def test_state_equation_trace_and_lipschitz(self):
        region = sp.build_interval_region(31, 0.0, 1.0, fixed_window=(0.3, 0.7))
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(31, 0.8)))
        ctrl = np.nonzero(region.boundary_of_fixed & (region.mask == Mask.FREE))[0]
        rng = np.random.default_rng(6)
        # feasible control: 1-Lipschitz on the interface, below the outside option
        phi = np.minimum(rng.uniform(0.0, 0.8, ctrl.size), ctx.v0[ctrl])
        d = ctx.cost[np.ix_(ctrl, ctrl)]
        phi = np.min(phi[None, :] + d, axis=1)
        w = np.min(ctx.cost[:, ctrl] + phi[None, :], axis=1)
        assert np.allclose(w[ctrl], phi)
        assert (np.abs(w[:, None] - w[None, :]) <= ctx.cost + 1e-12).all()

    def test_requires_metric_and_interface(self):
        region = sp.build_interval_region(11, 0.0, 1.0, fixed_window=(0.3, 0.7))
        ctx_quad = PartitionContext.build(region, sp.CostKernel.quadratic(), sp.PricePattern(np.full(11, 0.5)))
        with pytest.raises(ValueError):
            solve_boundary_control(ctx_quad, sp.CustomerMeasure.uniform(11), SearchConfig())

    @pytest.mark.parametrize(
        "n, window, profit",
        [(41, (0.33, 0.71), 0.3652439024390245), (20, (0.31, 0.69), 0.3505263157894737)],
    )
    def test_window_edges_between_grid_points(self, n, window, profit):
        # the interface is marked by adjacency, so both free points next to
        # the window are controlled wherever its edges fall
        ctx, f = window_context(n=n, window=window)
        free_next_to_fixed = [int(ctx.fixed[0]) - 1, int(ctx.fixed[-1]) + 1]
        assert model_two._control_points(ctx).tolist() == free_next_to_fixed
        r_b = solve_boundary_control(ctx, f, SearchConfig(grid_n=21))
        r_w = solve_w_search(ctx, f, SearchConfig(grid_n=21))
        assert r_b.profit == pytest.approx(profit, abs=1e-9)
        assert r_w.profit == pytest.approx(profit, abs=1e-9)

    @pytest.mark.parametrize("solve", [solve_w_search, solve_boundary_control])
    def test_search_score_is_checked_against_the_report(self, monkeypatch, solve):
        # an objective that drifts from the value-side profit fails the solve
        generator_score = ct._generator_score

        def offset(cols, v0, weights, tol):
            score = generator_score(cols, v0, weights, tol)
            return lambda W: score(W) + 1e-6

        monkeypatch.setattr(ct, "_generator_score", offset)
        ctx, f = window_context(n=21, window=(0.3, 0.7))
        with pytest.raises(RuntimeError, match="search score"):
            solve(ctx, f, SearchConfig(grid_n=21, multistarts=4))

    def test_grid_region_close_to_free_search(self):
        # 2D box: interface controls are a strict subfamily of the free-point
        # generators, so the profits should sit close together
        region = sp.build_grid_region(7, 7, fixed_box=((0.2, 0.8), (0.2, 0.8)))
        ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(49, 0.6)))
        f = sp.CustomerMeasure.uniform(49)
        r_b = solve_boundary_control(ctx, f, SearchConfig(levels=8, multistarts=8, grid_n=9, seed=0))
        r_w = solve_w_search(ctx, f, SearchConfig(levels=8, multistarts=8, seed=0))
        assert r_b.profit <= r_w.profit + 0.02
        assert abs(r_b.profit - r_w.profit) <= 0.05


class TestIntervalReduction:
    @pytest.mark.parametrize("p0", [0.2, 0.4, 1.0, 2.0])
    def test_uniform_formula(self, p0):
        rep = one_d_reduction(0.0, 1.0, p0, sp.uniform_cdf())
        expected = max(p0 / 2, p0 - 0.5)
        step = p0 / 200
        assert abs(rep.diagnostics["p1"] - expected) <= step + 1e-12
        assert abs(rep.diagnostics["p2"] - expected) <= step + 1e-12

    def test_zero_imposed_price(self):
        rep = one_d_reduction(0.0, 1.0, 0.0, sp.uniform_cdf())
        assert rep.diagnostics["p1"] == 0.0 and rep.profit == 0.0

    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.3, 0.7), (0.33, 0.71)], ids=["whole", "inner", "off_grid"])
    def test_four_integral_form_consistent_on_atoms(self, window):
        # the atoms' profit at the reported (p1, p2), summed in four pieces:
        # left of the window each pays p1 plus its transport to alpha, up to
        # min(s0, s1) p1, past max(s0, s2) p2, and right of the window p2 plus
        # its transport from beta; it is the two-term objective plus the
        # atoms' transport premium
        alpha, beta = window
        ctx, f = window_context(n=101, p0=0.4, window=window)
        with pytest.warns(UserWarning, match="atoms of the customer measure"):
            rep = one_d_reduction(alpha, beta, 0.4, ctx=ctx, f=f)
        d = rep.diagnostics
        p1, p2 = d["p1"], d["p2"]
        x, wts = ctx.region.coords_1d(), f.weights
        s0, s1, s2 = 0.5 * (p2 - p1 + beta + alpha), 0.4 - p1 + alpha, p2 - 0.4 + beta
        left, right = x < alpha, x > beta
        mid_l = (x >= alpha) & (x <= min(s0, s1))
        mid_r = (x > max(s0, s2)) & (x <= beta)
        pieces = [wts[left] * (p1 + alpha - x[left]), wts[mid_l] * p1, wts[mid_r] * p2, wts[right] * (p2 + x[right] - beta)]
        four = math.fsum(np.concatenate(pieces))
        premium = math.fsum(np.concatenate([wts[left] * (alpha - x[left]), wts[right] * (x[right] - beta)]))
        assert window == (0.0, 1.0) or premium > 0
        assert four == pytest.approx(d["objective_two_term"] + premium, abs=1e-12)

    def test_continuum_cdf_on_the_same_context_does_not_warn(self):
        ctx, f = window_context(n=101, p0=0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = one_d_reduction(0.0, 1.0, 0.4, sp.uniform_cdf(), ctx=ctx, f=f)
        assert list(rep.diagnostics) == ["p1", "p2", "objective_two_term"]

    @pytest.mark.filterwarnings("ignore:atoms of the customer measure")
    def test_report_meets_the_w_search_report_invariants(self):
        # one_d's report runs no value-side check; its answers pass the
        # checks that w_search's report runs on every solve
        rng = np.random.default_rng(25)
        unit = sp.uniform_cdf()
        for i in range(100):
            n = int(rng.integers(9, 42))
            alpha = 0.0 if i % 5 == 0 else float(rng.uniform(0.05, 0.4))
            beta = 1.0 if i % 7 == 0 else float(rng.uniform(0.6, 0.95))
            p0 = float(rng.choice([0.0, 0.1, 0.4, 1.0, 2.5]))
            region = sp.build_interval_region(n, 0.0, 1.0, fixed_window=(alpha, beta))
            ctx = PartitionContext.build(region, METRIC, sp.PricePattern(np.full(n, p0)))
            weights = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.1, 2.0, n))
            f = sp.CustomerMeasure.uniform(n) if i % 2 else sp.CustomerMeasure(weights)
            cdf = None if i % 4 < 2 else (lambda t, mass=f.total_mass: mass * unit(t))
            rep = one_d_reduction(alpha, beta, p0, cdf, ctx=ctx, f=f, grid_n=int(rng.choice([3, 11, 21, 41])))
            assert list(rep.diagnostics) == ["p1", "p2", "objective_two_term"]
            j_value = profit_from_values(rep.optimal_value, ctx, f)
            assert abs(rep.profit - j_value) <= ct._check_slack(ctx.tol, f.total_mass)
            assert np.array_equal(rep.captured, rep.optimal_value <= ctx.v0 + ctx.tol)
            if i % 10 == 0:
                alone = one_d_reduction(alpha, beta, p0, unit, grid_n=11)
                assert list(alone.diagnostics) == ["p1", "p2", "objective_two_term", "transport_premium"]
                d = alone.diagnostics
                assert alone.optimal_price is None and alone.profit == d["objective_two_term"] + d["transport_premium"]

    def test_transport_premium_on_inner_window(self):
        # customers outside the window pay their transport on top of the
        # interface price under the reformulated pattern
        rep = one_d_reduction(0.25, 0.75, 0.4, sp.uniform_cdf())
        premium = rep.diagnostics["transport_premium"]
        assert np.isclose(premium, 2 * 0.25**2 / 2, atol=1e-4)  # two triangles
        assert np.isclose(rep.profit, rep.diagnostics["objective_two_term"] + premium, atol=1e-12)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            one_d_reduction(0.5, 0.4, 1.0, sp.uniform_cdf())
        with pytest.raises(ValueError):
            one_d_reduction(0.0, 1.0, -1.0, sp.uniform_cdf())
        with pytest.raises(ValueError):
            one_d_reduction(0.0, 1.0, 1.0)  # neither cdf nor context

    def test_context_without_a_measure_is_refused(self):
        # with a cdf, the context was dropped: the cdf-only report came back,
        # with no price and a profit of 0.335 on this window
        ctx, _ = window_context(n=21, p0=0.4, window=(0.3, 0.7))
        for cdf in (sp.uniform_cdf(), None):
            with pytest.raises(ValueError, match="^a region context needs a measure f$"):
                one_d_reduction(0.3, 0.7, 0.4, cdf, ctx=ctx)

    def test_measure_without_a_context_is_refused(self):
        # with a cdf, the measure was ignored beyond its mass check: the
        # cdf-only report came back, with a profit of 0.3350000000000001
        f = sp.CustomerMeasure(np.linspace(0.1, 3.0, 21))
        for cdf in (sp.uniform_cdf(), None):
            with pytest.raises(ValueError, match="^a measure f needs a region context$"):
                one_d_reduction(0.3, 0.7, 0.4, cdf, f=f)


class TestImprovementChain:
    def test_chain_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            ctx = random_context(rng, int(rng.integers(3, 9)))
            f = sp.CustomerMeasure(rng.uniform(0, 1, ctx.region.size))
            tol = 10 * ctx.tol * (1 + f.total_mass)
            p = ctx.full_prices(rng.uniform(-1.0, 2.5, ctx.free.size))
            pi_raw = profit_from_prices(p, ctx, f)
            p_plus = clamp_free_prices(p, ctx)
            pi_plus = profit_from_prices(p_plus, ctx, f)
            w, p_t = checked_reformulate(p_plus, ctx, f)
            pi_tilde = profit_from_prices(p_t, ctx, f)
            J = profit_from_values(w, ctx, f)
            assert pi_raw <= pi_plus + tol
            assert pi_plus <= pi_tilde + tol
            assert abs(pi_tilde - J) <= tol

    def test_capture_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            ctx = random_context(rng, int(rng.integers(3, 8)))
            f = sp.CustomerMeasure(rng.uniform(0, 1, ctx.region.size))
            p = ctx.full_prices(rng.uniform(0.0, 2.0, ctx.free.size))
            w, p_t = checked_reformulate(p, ctx, f)  # the oracle asserts the identity
            captured = assignment_table(p_t.values, sp.eval_cost(ctx.kernel, ctx.region), ctx.free)[2] >= 0
            assert np.array_equal(captured, w <= ctx.v0 + ctx.tol)

    def test_w_shape_on_interval_instances(self):
        ctx, f = window_context(n=41, p0=0.4, window=(0.0, 1.0))
        rep = solve_w_search(ctx, f, SearchConfig(levels=8, multistarts=8, seed=1))
        w = rep.optimal_value
        inside = ctx.region.mask == Mask.FIXED
        h = 1.0 / 40
        diffs = np.diff(w)[inside[:-1] & inside[1:]]
        # unit slopes except for at most one shorter step at the kink
        mixed = ~np.isclose(np.abs(diffs), h, atol=1e-9)
        assert mixed.sum() <= 1 and (np.abs(diffs) <= h + 1e-9).all()
        assert (np.diff(np.sign(diffs)) <= 0).all()  # rises from the left edge, falls to the right

    @pytest.mark.filterwarnings("ignore:atoms of the customer measure")
    def test_cross_method_agreement(self):
        ctx, f = window_context(n=41, p0=2.0)
        r_oned = one_d_reduction(0.0, 1.0, 2.0, ctx=ctx, f=f)
        r_w = solve_w_search(ctx, f, SearchConfig(levels=8, multistarts=8, seed=0))
        r_b = solve_boundary_control(ctx, f, SearchConfig(grid_n=201))
        profits = [r_oned.profit, r_w.profit, r_b.profit]
        assert max(profits) - min(profits) <= 0.02
        assert abs(r_oned.diagnostics["p1"] - 1.5) <= 0.01
