"""The ascent's model-one prices against the exact prices of its own
assignment (`chain_prices`), on seeded 1D quadratic instances."""

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import ctransform as ct
from spatial_pricing import model_one

from chain_prices import chain_prices

QUADRATIC = sp.CostKernel.quadratic()


def _instance(n, seed):
    """Weights U(0.5, 1.5); the bound x - x^2/2 on even seeds and U(0.2, 0.5)
    pointwise on odd ones."""
    rng = np.random.default_rng(seed)
    region = sp.build_interval_region(n, 0.0, 1.0)
    x = region.coords_1d()
    f = sp.CustomerMeasure(rng.uniform(0.5, 1.5, n))
    p0 = x - x**2 / 2 if seed % 2 == 0 else rng.uniform(0.2, 0.5, n)
    return region, f, p0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [9, 17, 33])
def test_chain_prices_reach_the_ascents_profit_at_its_assignment(n, seed):
    region, f, p0 = _instance(n, seed)
    report = model_one.solve_general(sp.PricePattern(p0), QUADRATIC, region, f, sp.SearchConfig(levels=8, multistarts=8))
    assert np.all(np.diff(report.choice) >= 0)
    cost = sp.eval_cost(QUADRATIC, region)
    prices = chain_prices(report.choice, cost, p0)
    repriced = model_one.profit_from_prices(sp.PricePattern(prices), QUADRATIC, region, f)
    assert repriced >= report.profit - ct._check_slack(ct.scale_tol(cost), f.total_mass)


def test_chain_prices_of_a_small_assignment():
    # three points 0, 1/2, 1 under the quadratic cost and the bound 1 at
    # each: customers 0 and 1 buy at point 1, customer 2 at point 2.  U is
    # min(1, 1 - 1/8) = 7/8 for point 1 and 1 for point 2; customer 1 (the
    # last of the first block) holds p_1 - p_2 <= c(1/2, 1) - c(1/2, 1/2) =
    # 1/8, and customer 2 holds p_2 - p_1 <= c(1, 1/2) = 1/8, so p_2 = 1
    # and p_1 = 7/8; point 0 is unused and keeps its bound
    cost = sp.eval_cost(QUADRATIC, sp.build_interval_region(3, 0.0, 1.0))
    assert chain_prices(np.array([1, 1, 2]), cost, np.ones(3)).tolist() == [1.0, 0.875, 1.0]
    with pytest.raises(ValueError):
        chain_prices(np.array([1, 0, 2]), cost, np.ones(3))
