import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spatial_pricing as sp
from spatial_pricing.ctransform import (
    NotCConcaveError,
    assignment_table,
    c_transform_table,
    double_transform_table,
    is_c_concave_table,
    scale_tol,
    superdifferential_mask,
    value_table,
)

from helpers import random_kernel, random_points, region_from_points

METRIC = sp.CostKernel.metric(1.0)


def small_instance(draw_or_rng, n):
    pts = random_points(draw_or_rng, n)
    region = region_from_points(pts)
    kern = random_kernel(draw_or_rng, n)
    return region, kern, sp.eval_cost(kern, region)


values_arrays = st.integers(2, 7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.floats(-2, 2, allow_nan=False), min_size=n, max_size=n),
        st.integers(0, 10**9),
    )
)


class TestValueFunction:
    def test_two_point_enumeration(self):
        region = region_from_points([0.0, 1.0])
        v = value_table(np.array([0.2, 0.9]), sp.eval_cost(METRIC, region))
        # direct enumeration: min(0+0.2, 1+0.9) and min(1+0.2, 0+0.9)
        assert np.allclose(v, [0.2, 0.9])

    def test_zero_prices_give_zero_values(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 6):
            region, kern, cost = small_instance(rng, n)
            v = value_table(np.zeros(n), cost)
            assert np.allclose(v, 0.0)

    def test_single_finite_candidate(self):
        region = region_from_points([0.0, 0.5, 1.0])
        p0 = sp.PricePattern.unbounded(3, {0: 1.0})
        v = value_table(p0.values, sp.eval_cost(METRIC, region))
        assert np.allclose(v, [1.0, 1.5, 2.0])

    def test_restriction_and_improper_error(self):
        region = region_from_points([0.0, 0.5, 1.0])
        p0 = sp.PricePattern.unbounded(3, {0: 1.0})
        cost = sp.eval_cost(METRIC, region)
        v = value_table(p0.values, cost, np.array([0, 1]))
        assert np.allclose(v, [1.0, 1.5, 2.0])
        with pytest.raises(ValueError):
            value_table(p0.values, cost, np.array([1, 2]))


class TestCTransform:
    def test_zero_function_fixed_point(self):
        rng = np.random.default_rng(1)
        region, kern, cost = small_instance(rng, 5)
        vc = c_transform_table(np.zeros(5), cost)
        assert np.allclose(vc, 0.0)

    def test_lipschitz_function_transforms_to_negation(self):
        region = region_from_points([0.0, 0.5, 1.0])
        v = np.array([0.0, 0.3, 0.1])  # 1-Lipschitz on this grid
        vc = c_transform_table(v, sp.eval_cost(METRIC, region))
        assert np.allclose(vc, -v)

    def test_double_transform_dominates(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            region, kern, cost = small_instance(rng, 6)
            v = rng.uniform(-1, 1, 6)
            vv = double_transform_table(v, cost)
            assert (vv >= v - scale_tol(cost)).all()

    def test_transform_requires_finite(self):
        region = region_from_points([0.0, 1.0])
        with pytest.raises(ValueError):
            c_transform_table(np.array([np.inf, 0.0]), sp.eval_cost(METRIC, region))


class TestSuperdifferential:
    def test_metric_value_functions_contain_self(self):
        rng = np.random.default_rng(3)
        region = region_from_points(np.sort(rng.uniform(0, 1, 7)))
        cost = sp.eval_cost(METRIC, region)
        v = value_table(rng.uniform(0, 1, 7), cost)
        member = superdifferential_mask(v, cost)
        for x in range(7):
            sd = np.nonzero(member[x])[0]
            assert x in sd

    def test_zero_function_superdifferential_is_zero_cost_set(self):
        rng = np.random.default_rng(4)
        region, kern, cost = small_instance(rng, 5)
        member = superdifferential_mask(np.zeros(5), cost)
        for x in range(5):
            sd = np.nonzero(member[x])[0]
            assert x in sd
            assert (cost[x, sd] <= scale_tol(cost)).all()

    def test_quadratic_reference_customer_travels_left(self):
        # on a grid containing 0.25 the closed-form optimum sends that
        # customer to the endpoint 0 (purchase location max(2x-1, 0))
        region = sp.build_interval_region(41, 0.0, 1.0)
        x = region.coords_1d()
        v_opt, _, _ = sp.quadratic_1d_reference(x)
        i = int(np.argmin(np.abs(x - 0.25)))
        sd = np.nonzero(superdifferential_mask(v_opt, sp.eval_cost(sp.CostKernel.quadratic(), region))[i])[0]
        assert list(sd) == [0]

    def test_non_concave_input_raises(self):
        region = region_from_points([0.0, 0.5, 1.0])
        v = np.array([0.0, 2.0, 0.0])  # not 1-Lipschitz: 4x slope
        with pytest.raises(NotCConcaveError):
            superdifferential_mask(v, sp.eval_cost(METRIC, region))


class TestTieBreak:
    def _assign(self, prices, cost_rows):
        region = region_from_points(np.arange(len(prices), dtype=float))
        kern = sp.CostKernel.custom(np.asarray(cost_rows, dtype=float))
        return assignment_table(np.asarray(prices, float), sp.eval_cost(kern, region)), region

    def test_price_max_selection(self):
        # both shops cost-equivalent for customer 0: picks the pricier one
        cost = [[0.0, 0.5, 0.2], [0.5, 0.0, 0.3], [0.2, 0.3, 0.0]]
        assign, _ = self._assign([0.7, 0.2, 0.5], cost)
        # customer 0: totals 0.7, 0.7, 0.7 -> all tie -> price-max is shop 0
        assert assign.choice[0] == 0

    def test_equal_price_tie_takes_smallest_index(self):
        cost = [[0.0, 0.0], [0.0, 0.0]]
        assign, _ = self._assign([0.4, 0.4], cost)
        assert assign.choice[0] == 0 and assign.choice[1] == 0

    def test_metric_lipschitz_prices_keep_customers_home(self):
        rng = np.random.default_rng(5)
        region = region_from_points(np.sort(rng.uniform(0, 1, 9)))
        x = region.coords_1d()
        p = sp.PricePattern(0.5 + 0.3 * x)  # slope 0.3 < 1
        assign = assignment_table(p.values, sp.eval_cost(METRIC, region))
        assert (assign.choice == np.arange(9)).all()
        assert np.allclose(assign.expenditure, p.values)

    def test_excluded_customers_marked(self):
        region = region_from_points([0.0, 1.0])
        p = sp.PricePattern(np.array([0.0, 5.0]))
        assign = assignment_table(p.values, sp.eval_cost(METRIC, region))
        chosen = sp.tie_break(assign, p.values, within=np.array([1]))
        assert chosen[0] == -1  # customer 0 never shops at the expensive far shop


class TestAssignmentTable:
    @settings(max_examples=120, deadline=None)
    @given(values_arrays)
    def test_matches_assignment(self, data):
        n, vals, seed = data
        rng = np.random.default_rng(seed)
        region, kern, cost = small_instance(rng, n)
        prices = np.round(np.asarray(vals), 1)  # a coarse grid makes ties common
        prices[rng.uniform(size=n) < 0.3] = np.inf
        cand = None if rng.uniform() < 0.5 else rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        admissible = np.arange(n) if cand is None else cand
        if not np.isfinite(prices[admissible]).any():
            prices[admissible[0]] = 0.0
        got = assignment_table(prices, cost, cand)
        # the rule enumerated customer by customer: the argmin set within the
        # table's tolerance, then the highest price, then the smallest index
        tol = scale_tol(cost)
        assert np.array_equal(got.candidates, np.sort(admissible))
        for x in range(n):
            totals = [cost[x, y] + prices[y] for y in got.candidates]
            best = min(totals)
            argmin = [y for y, t in zip(got.candidates, totals) if t <= best + tol]
            assert got.expenditure[x] == best
            assert list(got.candidates[got.member[x]]) == argmin
            assert got.choice[x] == max(argmin, key=lambda y: (prices[y], -y))


class TestIsCConcave:
    def test_transform_outputs_are_concave(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            region, kern, cost = small_instance(rng, 6)
            u = rng.uniform(-1, 1, 6)
            v = np.min(cost - u[None, :], axis=1)
            assert is_c_concave_table(v, cost)

    def test_steep_function_fails_metric_test(self):
        region = sp.build_interval_region(11, 0.0, 1.0)
        x = region.coords_1d()
        assert not is_c_concave_table(2.0 * x, sp.eval_cost(METRIC, region))

    def test_constants_are_concave(self):
        rng = np.random.default_rng(7)
        region, kern, cost = small_instance(rng, 5)
        assert is_c_concave_table(np.full(5, 0.7), cost)


class TestAlgebraProperties:
    @settings(max_examples=120, deadline=None)
    @given(values_arrays)
    def test_order_reversal_and_idempotence(self, data):
        n, vals, seed = data
        rng = np.random.default_rng(seed)
        region, kern, cost = small_instance(rng, n)
        v1 = np.asarray(vals)
        v2 = v1 + rng.uniform(0, 1, n)  # v1 <= v2
        t1 = c_transform_table(v1, cost)
        t2 = c_transform_table(v2, cost)
        tol = scale_tol(cost)
        assert (t1 >= t2 - tol).all()
        # triple transform equals single transform
        t111 = c_transform_table(double_transform_table(v1, cost), cost)
        assert np.max(np.abs(t111 - t1)) <= tol

    @settings(max_examples=120, deadline=None)
    @given(values_arrays)
    def test_stability_under_perturbation(self, data):
        n, vals, seed = data
        rng = np.random.default_rng(seed)
        region, kern, cost = small_instance(rng, n)
        v = np.asarray(vals)
        eps = rng.uniform(0, 0.5)
        v2 = v + rng.uniform(-eps, eps, n)
        d = np.max(np.abs(c_transform_table(v, cost) - c_transform_table(v2, cost)))
        assert d <= np.max(np.abs(v - v2)) + scale_tol(cost)

    @settings(max_examples=120, deadline=None)
    @given(values_arrays)
    def test_equicontinuity_bound(self, data):
        n, vals, seed = data
        rng = np.random.default_rng(seed)
        region, kern, cost = small_instance(rng, n)
        v = np.min(cost - np.asarray(vals)[None, :], axis=1)  # concave by construction
        tol = scale_tol(cost)
        gap = np.abs(v[:, None] - v[None, :])
        bound = np.max(np.abs(cost[:, None, :] - cost[None, :, :]), axis=2)
        assert (gap <= bound + tol).all()

    @settings(max_examples=120, deadline=None)
    @given(values_arrays)
    def test_metric_concavity_is_lipschitz(self, data):
        n, vals, seed = data
        rng = np.random.default_rng(seed)
        region = region_from_points(random_points(rng, n))
        cost = sp.eval_cost(METRIC, region)
        v = np.asarray(vals)
        tol = scale_tol(cost)
        lip = bool((np.abs(v[:, None] - v[None, :]) <= cost + tol).all())
        assert is_c_concave_table(v, cost) == lip

    def test_subregion_equicontinuity(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            region, kern, cost = small_instance(rng, n)
            gen = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
            w = np.min(cost[:, gen] - rng.uniform(-1, 1, gen.size)[None, :], axis=1)
            gap = np.abs(w[:, None] - w[None, :])
            bound = np.max(np.abs(cost[:, None, gen] - cost[None, :, gen]), axis=2)
            assert (gap <= bound + scale_tol(cost)).all()
