import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import SearchConfig, SearchMode
from spatial_pricing.ctransform import NotCConcaveError, c_transform_table, scale_tol, value_table
from spatial_pricing.model_one import (
    BudgetExceededError,
    profit_from_prices,
    profit_from_values,
)

from helpers import brute_force_price_profit, random_kernel, random_points, region_from_points

METRIC = sp.CostKernel.metric(1.0)


class TestPriceProfit:
    def test_two_point_enumeration(self):
        region = region_from_points([0.0, 1.0])
        f = sp.CustomerMeasure(np.array([0.5, 0.5]))
        p = sp.PricePattern(np.array([0.2, 0.9]))
        assert np.isclose(profit_from_prices(p, METRIC, region, f), 0.55)

    def test_constant_prices_collect_the_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            region = region_from_points(random_points(rng, n))
            kern = random_kernel(rng, n)
            f = sp.CustomerMeasure(rng.uniform(0, 1, n))
            k = float(rng.uniform(0, 2))
            got = profit_from_prices(sp.PricePattern(np.full(n, k)), kern, region, f)
            assert np.isclose(got, k * f.total_mass)

    def test_infinite_price_is_no_shop(self):
        # customers at the +inf points buy next door: 0.3, 0.3, 0.5, 0.2, 0.2 at mass 1/5 each
        region = sp.build_interval_region(5, 0.0, 1.0)
        p = sp.PricePattern(np.array([0.3, np.inf, 0.5, np.inf, 0.2]))
        assert np.isclose(profit_from_prices(p, METRIC, region, sp.CustomerMeasure.uniform(5)), 0.3)

    def test_metric_bound_at_origin_fine_grid(self):
        # bound 1 at the left endpoint, +inf elsewhere: price 1 + x, all home
        region = sp.build_interval_region(51, 0.0, 1.0)
        f = sp.CustomerMeasure.uniform(51)
        rep = sp.solve_metric(sp.PricePattern(np.r_[1.0, np.full(50, np.inf)]), METRIC, region, f)
        assert np.allclose(rep.optimal_price.values, 1.0 + region.coords_1d())
        assert np.isclose(rep.profit, 1.5)  # mean of 1 + x on a symmetric grid


class TestValueProfit:
    def test_zero_function(self):
        rng = np.random.default_rng(1)
        region = region_from_points(random_points(rng, 5))
        kern = random_kernel(rng, 5)
        f = sp.CustomerMeasure.uniform(5)
        assert profit_from_values(np.zeros(5), kern, region, f) == 0.0

    def test_matches_price_profit_through_transform(self):
        region = region_from_points([0.0, 1.0])
        f = sp.CustomerMeasure(np.array([0.5, 0.5]))
        p = sp.PricePattern(np.array([0.2, 0.9]))
        v = value_table(p.values, sp.eval_cost(METRIC, region))
        assert np.isclose(profit_from_values(v, METRIC, region, f), 0.55)

    def test_quadratic_reference_value_profit(self):
        # value-side profit of the sampled closed form approaches 1/12
        region = sp.build_interval_region(101, 0.0, 1.0)
        v_opt, _, _ = sp.quadratic_1d_reference(region.coords_1d())
        f = sp.CustomerMeasure.uniform(101)
        got = profit_from_values(v_opt, sp.CostKernel.quadratic(), region, f)
        assert abs(got - 1.0 / 12.0) <= 0.005

    def test_rejects_non_concave(self):
        region = sp.build_interval_region(11, 0.0, 1.0)
        f = sp.CustomerMeasure.uniform(11)
        with pytest.raises(NotCConcaveError):
            profit_from_values(2.0 * region.coords_1d(), METRIC, region, f)


class TestSolveMetric:
    def test_lipschitz_bound_is_its_own_optimum(self):
        rng = np.random.default_rng(2)
        region = region_from_points(np.sort(rng.uniform(0, 1, 9)))
        x = region.coords_1d()
        p0 = sp.PricePattern(1.0 + 0.5 * x)  # 1-Lipschitz, finite
        rep = sp.solve_metric(p0, METRIC, region, sp.CustomerMeasure.uniform(9))
        assert np.allclose(rep.optimal_price.values, p0.values)

    def test_single_finite_bound(self):
        region = sp.build_interval_region(11, 0.0, 1.0)
        rep = sp.solve_metric(
            sp.PricePattern(np.r_[1.0, np.full(10, np.inf)]), METRIC, region, sp.CustomerMeasure.uniform(11)
        )
        assert np.allclose(rep.optimal_price.values, 1.0 + region.coords_1d())

    def test_never_beaten_by_quantized_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n = int(rng.integers(3, 5))
            region = region_from_points(random_points(rng, n))
            f = sp.CustomerMeasure.uniform(n)
            p0 = sp.PricePattern(rng.uniform(0.0, 2.0, n))
            rep = sp.solve_metric(p0, METRIC, region, f)
            levels = [np.linspace(0, p0.values[i], 6) for i in range(n)]
            best, _ = brute_force_price_profit(levels, METRIC, region, f)
            assert best <= rep.profit + 1e-9

    def test_pattern_is_distribution_free(self):
        rng = np.random.default_rng(4)
        region = region_from_points(random_points(rng, 7))
        p0 = sp.PricePattern(rng.uniform(0.0, 2.0, 7))
        patterns = []
        for _ in range(5):
            f = sp.CustomerMeasure(rng.uniform(0.01, 1.0, 7))
            patterns.append(sp.solve_metric(p0, METRIC, region, f).optimal_price.values)
        for pat in patterns[1:]:
            assert (pat == patterns[0]).all()

    def test_requires_metric_kernel(self):
        region = region_from_points([0.0, 1.0])
        with pytest.raises(ValueError):
            sp.solve_metric(sp.PricePattern(np.full(2, 1.0)), sp.CostKernel.quadratic(), region, sp.CustomerMeasure.uniform(2))


@pytest.mark.parametrize("solve", [sp.solve_metric, sp.solve_general])
def test_bound_of_only_inf_is_refused(solve):
    region = sp.build_interval_region(5, 0.0, 1.0)
    with pytest.raises(ValueError, match="improper prices"):
        solve(sp.PricePattern(np.full(5, np.inf)), METRIC, region, sp.CustomerMeasure.uniform(5))


class TestSolveGeneral:
    def test_matches_metric_closed_form(self):
        rng = np.random.default_rng(5)
        for seed in range(3):
            n = 5
            region = region_from_points(random_points(rng, n))
            f = sp.CustomerMeasure.uniform(n)
            p0 = sp.PricePattern(rng.uniform(0.0, 2.0, n))
            closed = sp.solve_metric(p0, METRIC, region, f)
            found = sp.solve_general(p0, METRIC, region, f, SearchConfig(levels=8, multistarts=8, seed=seed))
            cap = p0.values.max()
            assert found.profit >= closed.profit - 2.0 * cap / 8
            assert found.profit <= closed.profit + 1e-9  # closed form is exactly optimal

    def test_quadratic_bound_small_grid(self):
        region = sp.build_interval_region(21, 0.0, 1.0)
        x = region.coords_1d()
        p0 = sp.PricePattern(x - x**2 / 2)
        f = sp.CustomerMeasure.uniform(21)
        rep = sp.solve_general(p0, sp.CostKernel.quadratic(), region, f, SearchConfig(levels=8, multistarts=8, seed=0))
        _, p_ref, _ = sp.quadratic_1d_reference(x)
        assert np.abs(rep.optimal_price.values - p_ref).max() <= 0.02
        assert rep.profit >= profit_from_prices(sp.PricePattern(p_ref), sp.CostKernel.quadratic(), region, f) - 1e-9

    def test_zero_bound_gives_zero(self):
        rng = np.random.default_rng(6)
        region = region_from_points(random_points(rng, 5))
        kern = random_kernel(rng, 5)
        f = sp.CustomerMeasure.uniform(5)
        rep = sp.solve_general(sp.PricePattern(np.full(5, 0.0)), kern, region, f, SearchConfig(levels=4, multistarts=4))
        assert np.isclose(rep.profit, 0.0, atol=1e-12)
        assert np.allclose(rep.optimal_price.values, 0.0, atol=1e-12)

    def test_exhaustive_budget_guard(self):
        region = sp.build_interval_region(12, 0.0, 1.0)
        f = sp.CustomerMeasure.uniform(12)
        cfg = SearchConfig(mode=SearchMode.EXHAUSTIVE, levels=8, max_candidates=10**6)
        with pytest.raises(BudgetExceededError):
            sp.solve_general(sp.PricePattern(np.full(12, 1.0)), METRIC, region, f, cfg)

    def test_report_invariants(self):
        rng = np.random.default_rng(7)
        region = region_from_points(random_points(rng, 6))
        kern = sp.CostKernel.quadratic()
        cost = sp.eval_cost(kern, region)
        f = sp.CustomerMeasure(rng.uniform(0.1, 1.0, 6))
        p0 = sp.PricePattern(rng.uniform(0.0, 1.5, 6))
        rep = sp.solve_general(p0, kern, region, f, SearchConfig(levels=6, multistarts=6))
        tol = scale_tol(cost)
        assert (rep.optimal_price.values <= p0.values + tol).all()
        v0 = np.min(cost + p0.values[None, :], axis=1)
        assert (rep.optimal_value >= -tol).all()
        assert (rep.optimal_value <= v0 + tol).all()
        # canonical price: minus the transform of the optimal value
        assert np.allclose(rep.optimal_price.values, -c_transform_table(rep.optimal_value, cost), atol=1e-9)
        value_form = profit_from_values(rep.optimal_value, kern, region, f)
        assert np.isclose(rep.profit, value_form, atol=10 * tol * (1 + f.total_mass))


class TestReductionIdentities:
    def test_price_profit_bounded_by_value_profit(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            region = region_from_points(random_points(rng, n))
            kern = random_kernel(rng, n)
            cost = sp.eval_cost(kern, region)
            f = sp.CustomerMeasure(rng.uniform(0, 1, n))
            p = sp.PricePattern(rng.uniform(0, 2, n))
            v = value_table(p.values, cost)
            F = profit_from_prices(p, kern, region, f)
            I = profit_from_values(v, kern, region, f)
            assert F <= I + 10 * scale_tol(cost) * (1 + f.total_mass)

    def test_transform_price_reproduces_value_profit(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            region = region_from_points(random_points(rng, n))
            kern = random_kernel(rng, n)
            cost = sp.eval_cost(kern, region)
            f = sp.CustomerMeasure(rng.uniform(0, 1, n))
            u = rng.uniform(0, 2, n)
            v = np.min(cost + u[None, :], axis=1)  # concave by construction
            p = sp.PricePattern(-c_transform_table(v, cost))
            F = profit_from_prices(p, kern, region, f)
            I = profit_from_values(v, kern, region, f)
            assert abs(F - I) <= 10 * scale_tol(cost) * (1 + f.total_mass)

    def test_raising_the_bound_never_hurts(self):
        rng = np.random.default_rng(10)
        for _ in range(8):
            n = 4
            region = region_from_points(random_points(rng, n))
            kern = random_kernel(rng, n)
            f = sp.CustomerMeasure(rng.uniform(0.1, 1.0, n))
            lo = rng.uniform(0.0, 1.0, n)
            hi = lo + rng.uniform(0.0, 1.0, n)
            cfg = SearchConfig(mode=SearchMode.EXHAUSTIVE, levels=5, price_cap=2.2, max_candidates=10**4)
            r_lo = sp.solve_general(sp.PricePattern(lo), kern, region, f, cfg)
            r_hi = sp.solve_general(sp.PricePattern(hi), kern, region, f, cfg)
            assert r_hi.profit >= r_lo.profit - 1e-9


class TestQuadraticReference:
    def test_endpoint_values(self):
        assert sp.quadratic_1d_reference(0.0) == (0.0, 0.0, 0.0)
        v, p, q = sp.quadratic_1d_reference(0.5)
        assert np.isclose(v, 1 / 8) and np.isclose(p, 3 / 16) and q == 0.0
        v, p, q = sp.quadratic_1d_reference(1.0)
        assert np.isclose(v, 1 / 4) and np.isclose(p, 1 / 4) and q == 1.0

    def test_branches_agree_at_the_break(self):
        left = sp.quadratic_1d_reference(0.5 - 1e-12)[0]
        right = sp.quadratic_1d_reference(0.5 + 1e-12)[0]
        assert abs(left - right) < 1e-9

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            sp.quadratic_1d_reference(1.5)
        with pytest.raises(ValueError):
            sp.quadratic_1d_reference(np.array([0.2, -0.1]))
