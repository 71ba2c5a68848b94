import math
from dataclasses import replace

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import GameContext, NashSearchConfig, geometry
from spatial_pricing import ctransform as ct
from spatial_pricing._search import SearchConfig, coordinate_ascent, seeded_starts
from spatial_pricing.nash import (
    BestResponseResult,
    _income,
    _player_payoff_batch,
    _player_trial_scores,
    _strategy_values,
    _value_and_paid,
    best_response,
    best_response_dynamics,
    payoffs,
    verify_equilibrium,
)

from helpers import peak_budgets

METRIC = sp.CostKernel.metric(1.0)


def split_game(n=21, weights=None, price_cap=None):
    region = sp.build_interval_region(n, 0.0, 1.0)
    f = sp.CustomerMeasure.uniform(n) if weights is None else sp.CustomerMeasure(weights)
    ctx = GameContext.from_split(region, METRIC, 0.5, f, price_cap=price_cap)
    return region, ctx


def closed_form_pair(ctx):
    x = ctx.region.coords_1d()
    n = ctx.region.size
    pa = np.zeros(n)
    pa[ctx.indices("A")] = 0.5 - x[ctx.indices("A")]
    qb = np.zeros(n)
    qb[ctx.indices("B")] = x[ctx.indices("B")] - 0.5
    return pa, qb


class TestContext:
    def test_masks_must_cover(self):
        region = sp.build_interval_region(5, 0.0, 1.0)
        f = sp.CustomerMeasure.uniform(5)
        with pytest.raises(ValueError):
            GameContext.build(region, METRIC, np.array([1, 1, 0, 0, 0], bool), np.array([0, 0, 0, 1, 1], bool), f)

    def test_shared_points_lose_their_customers(self):
        _, ctx = split_game(21)
        mid = 10  # x = 0.5 belongs to both players
        assert ctx.a_mask[mid] and ctx.b_mask[mid]
        assert ctx.f.weights[mid] == 0.0


class TestPayoffs:
    def test_priced_out_opponent_gets_nothing(self):
        region, ctx = split_game(21)
        a_idx = ctx.indices("A")
        p = np.zeros(21)
        p[a_idx] = 0.3
        q = np.full(21, 50.0)
        pi_a, pi_b = payoffs(p, q, ctx)
        assert pi_b == 0.0
        # all customers buy from A at the flat price
        assert np.isclose(pi_a, 0.3 * ctx.f.total_mass)

    def test_closed_form_pair_value(self):
        region, ctx = split_game(21)
        pa, qb = closed_form_pair(ctx)
        pi_a, pi_b = payoffs(pa, qb, ctx)
        # oracle: every customer shops at home, paying the cone price |x - 0.5|
        x = region.coords_1d()
        expected = (ctx.f.weights * np.abs(x - 0.5)).sum()
        assert np.isclose(pi_a + pi_b, expected)
        assert np.isclose(pi_a, pi_b)
        assert abs(pi_a - 0.125) <= 0.01  # continuum value of the quadrature

    def test_zero_prices_zero_payoffs(self):
        _, ctx = split_game(11)
        assert payoffs(np.zeros(11), np.zeros(11), ctx) == (0.0, 0.0)

    def test_accounting_identity(self):
        rng = np.random.default_rng(0)
        region, ctx = split_game(15, weights=rng.uniform(0, 1, 15))
        for _ in range(10):
            p = np.zeros(15)
            q = np.zeros(15)
            p[ctx.indices("A")] = rng.uniform(0, 1, ctx.indices("A").size)
            q[ctx.indices("B")] = rng.uniform(0, 1, ctx.indices("B").size)
            pi_a, pi_b = payoffs(p, q, ctx)
            # oracle: replay every customer's decision directly
            total = 0.0
            x = region.coords_1d()
            tol = ctx.tol
            for i in range(15):
                offers_a = ctx.cost[i, ctx.indices("A")] + p[ctx.indices("A")]
                offers_b = ctx.cost[i, ctx.indices("B")] + q[ctx.indices("B")]
                va, vb = offers_a.min(), offers_b.min()
                if va < vb - tol or (abs(va - vb) <= tol and ctx.a_mask[i]):
                    side, offers, prices = "A", offers_a, p[ctx.indices("A")]
                    v = va
                else:
                    side, offers, prices = "B", offers_b, q[ctx.indices("B")]
                    v = vb
                paid = prices[offers <= v + tol].max()
                total += ctx.f.weights[i] * paid
            assert np.isclose(pi_a + pi_b, total)

    def test_home_bias_on_exact_ties(self):
        _, ctx = split_game(21)
        # flat symmetric prices tie everywhere off the border: home region wins
        p = np.full(21, 0.4)
        q = np.full(21, 0.4)
        pi_a, pi_b = payoffs(p, q, ctx)
        a_mass = ctx.f.weights[ctx.a_mask].sum()
        b_mass = ctx.f.weights[ctx.b_mask & ~ctx.a_mask].sum()
        assert np.isclose(pi_a, 0.4 * a_mass)
        assert np.isclose(pi_b, 0.4 * b_mass)


class TestBestResponse:
    def test_undercuts_a_marked_up_opponent(self):
        region, ctx = split_game(21)
        x = region.coords_1d()
        b_idx = ctx.indices("B")
        markup = 0.3
        q = np.zeros(21)
        q[b_idx] = markup + (x[b_idx] - 0.5)
        r = best_response("A", q, ctx, NashSearchConfig(grid_n=50))
        border = r.prices[-1]  # A's point at 0.5
        assert border < markup - 1e-12
        assert border >= markup - 2.0 * r.diagnostics["price_step"] - 1e-12
        # the response follows the margin-plus-distance shape
        cone = border + (0.5 - x[ctx.indices("A")])
        assert np.abs(r.prices - cone).max() <= 2.0 * r.diagnostics["price_step"] + 1e-12

    def test_monopoly_against_priced_out_opponent(self):
        region, ctx = split_game(21, price_cap=0.8)
        q = np.full(21, 100.0)
        r = best_response("A", q, ctx, NashSearchConfig(grid_n=40))
        # opponent never competes: reservation pricing saturates the cap,
        # matching the whole-region closed form under a flat bound
        sub = sp.build_interval_region(11, 0.0, 0.5)
        rep = sp.solve_metric(sp.PricePattern(np.full(11, 0.8)), METRIC, sub, sp.CustomerMeasure.uniform(11))
        assert np.allclose(r.prices, rep.optimal_price.values)


class TestDynamics:
    def test_round_budget_validated(self):
        _, ctx = split_game(11)
        with pytest.raises(ValueError):
            best_response_dynamics(np.ones(11), np.ones(11), ctx, rounds=0, eps=1e-9)

    def test_equilibrium_is_a_fixpoint(self):
        _, ctx = split_game(21)
        pa, qb = closed_form_pair(ctx)
        tr = best_response_dynamics(pa, qb, ctx, rounds=3, eps=1e-9, search=NashSearchConfig(grid_n=30))
        assert tr.converged and len(tr.rounds) == 1
        assert tr.rounds[0].delta_p <= 1e-12 and tr.rounds[0].delta_q <= 1e-12

    def test_converges_to_the_competitive_pair(self):
        region, ctx = split_game(21)
        x = region.coords_1d()
        cfg = NashSearchConfig(grid_n=30)
        tr = best_response_dynamics(np.ones(21), np.ones(21), ctx, rounds=20, eps=1e-9, search=cfg)
        assert tr.converged and len(tr.rounds) <= 20
        p_fin, q_fin = tr.final
        h = x[1] - x[0]
        assert np.abs(p_fin - (0.5 - x[ctx.indices("A")])).max() <= 2 * h
        assert np.abs(q_fin - (x[ctx.indices("B")] - 0.5)).max() <= 2 * h

    def test_limit_does_not_depend_on_the_distribution(self):
        region, _ = split_game(21)
        x = region.coords_1d()
        cfg = NashSearchConfig(grid_n=30)
        rng = np.random.default_rng(1)
        finals = []
        for w in (np.full(21, 1 / 21), np.minimum(x, 1 - x) + 1e-3, rng.uniform(0.1, 1.0, 21)):
            ctx = GameContext.from_split(region, METRIC, 0.5, sp.CustomerMeasure(w / w.sum()))
            tr = best_response_dynamics(np.ones(21), np.ones(21), ctx, rounds=25, eps=1e-9, search=cfg)
            assert tr.converged
            finals.append(tr.final)
        for p_fin, q_fin in finals[1:]:
            assert (p_fin == finals[0][0]).all()
            assert (q_fin == finals[0][1]).all()

    def test_initial_prices_are_read_on_the_owners_points_only(self):
        _, ctx = split_game(21)
        cfg = NashSearchConfig(grid_n=30)
        p, q = np.ones(21), np.ones(21)
        p_off, q_off = p.copy(), q.copy()
        p_off[~ctx.a_mask] = 7.0
        q_off[~ctx.b_mask] = np.inf
        base = best_response_dynamics(p, q, ctx, rounds=6, eps=1e-9, search=cfg)
        off = best_response_dynamics(p_off, q_off, ctx, rounds=6, eps=1e-9, search=cfg)
        assert len(off.rounds) == len(base.rounds)
        for r, s in zip(off.rounds, base.rounds):
            assert np.array_equal(r.p, s.p) and np.array_equal(r.q, s.q)
            assert (r.payoff_a, r.payoff_b) == (s.payoff_a, s.payoff_b)

    def test_round_payoffs_score_the_round_prices(self):
        _, ctx = split_game(21)
        tr = best_response_dynamics(np.ones(21), np.ones(21), ctx, rounds=4, eps=1e-9, search=NashSearchConfig(grid_n=30))
        assert not tr.converged  # every round moves, so a stale vector would show
        for r in tr.rounds:
            pv, qv = np.zeros(21), np.zeros(21)
            pv[ctx.indices("A")], qv[ctx.indices("B")] = r.p, r.q
            assert (r.payoff_a, r.payoff_b) == payoffs(pv, qv, ctx)

    def test_trace_records_rounds(self):
        _, ctx = split_game(11)
        tr = best_response_dynamics(np.ones(11), np.ones(11), ctx, rounds=5, eps=1e-9, search=NashSearchConfig(grid_n=10))
        assert [r.round for r in tr.rounds] == list(range(1, len(tr.rounds) + 1))
        assert all(np.isfinite([r.payoff_a, r.payoff_b]).all() for r in tr.rounds)

    def test_oscillation_detected(self, monkeypatch):
        # force a period-2 cycle in the responses and check the trace flags it
        _, ctx = split_game(11)
        import spatial_pricing.nash as nash_mod

        states = {"A": [np.full(6, 0.2), np.full(6, 0.7)], "B": [np.full(6, 0.7), np.full(6, 0.2)]}
        counter = {"A": 0, "B": 0}

        def cycling_response(player, opponent_price, ctx_, search=None):
            prices = states[player][counter[player] % 2]
            counter[player] += 1
            return nash_mod.BestResponseResult(
                player=player, prices=prices, payoff=0.0, diagnostics={"price_step": 0.1},
            )

        monkeypatch.setattr(nash_mod, "best_response", cycling_response)
        tr = nash_mod.best_response_dynamics(np.ones(11), np.ones(11), ctx, rounds=10, eps=1e-9)
        assert not tr.converged
        assert tr.oscillation_period == 2
        assert len(tr.rounds) < 10


class TestVerifyEquilibrium:
    def test_closed_form_pair_verifies(self):
        _, ctx = split_game(21)
        pa, qb = closed_form_pair(ctx)
        ver = verify_equilibrium(pa, qb, ctx, NashSearchConfig(grid_n=30))
        assert ver.is_equilibrium
        assert ver.best_deviation_gain_a <= ver.tol
        assert ver.best_deviation_gain_b <= ver.tol

    def test_marked_up_pair_fails(self):
        _, ctx = split_game(21)
        pa, qb = closed_form_pair(ctx)
        pa_up = pa.copy()
        pa_up[ctx.indices("A")] += 0.2
        ver = verify_equilibrium(pa_up, qb, ctx, NashSearchConfig(grid_n=30))
        assert not ver.is_equilibrium
        assert ver.best_deviation_gain_b > ver.tol  # B undercuts the markup

    def test_zero_measure_is_trivially_an_equilibrium(self):
        region = sp.build_interval_region(11, 0.0, 1.0)
        ctx = GameContext.from_split(region, METRIC, 0.5, sp.CustomerMeasure(np.zeros(11)))
        pa, qb = closed_form_pair(ctx)
        ver = verify_equilibrium(pa, qb, ctx, NashSearchConfig(grid_n=10))
        assert ver.is_equilibrium
        assert payoffs(pa, qb, ctx) == (0.0, 0.0)

    def test_verified_pair_is_a_dynamics_fixpoint(self):
        _, ctx = split_game(21)
        pa, qb = closed_form_pair(ctx)
        cfg = NashSearchConfig(grid_n=30)
        ver = verify_equilibrium(pa, qb, ctx, cfg)
        assert ver.is_equilibrium
        tr = best_response_dynamics(pa, qb, ctx, rounds=1, eps=1e-9, search=cfg)
        step = max(r.diagnostics["price_step"] for r in [best_response("A", qb, ctx, cfg)])
        assert tr.rounds[0].delta_p <= step + 1e-12
        assert tr.rounds[0].delta_q <= step + 1e-12


def _best_response_oracle(player, opponent_price, ctx, search):
    """`best_response` with its own coordinate polish, kept verbatim as the reference."""
    tol = ctx.tol
    my_idx = ctx.indices(player)
    opp_idx = ctx.indices("B" if player == "A" else "A")
    opp_vals = _strategy_values(opponent_price, opp_idx, ctx.region.size)
    opp_offer = ct.value_table(opp_vals, ctx.cost, opp_idx)
    if ctx.kernel.is_metric:
        caps = opp_offer[my_idx].copy()
    else:
        caps = np.full(my_idx.size, float(opp_offer.max()))
    if ctx.price_cap is not None:
        caps = np.minimum(caps, ctx.price_cap)
    caps = np.maximum(caps, 0.0)
    frontier = ctx.cost[np.ix_(my_idx, opp_idx)].min(axis=1)
    pay = _player_payoff_batch(ctx, my_idx, opp_offer, ctx.tie_home(player), tol)

    cap_global = float(caps.max()) if caps.size else 0.0
    scale = search.price_scale if search.price_scale is not None else cap_global
    step = scale / search.grid_n if scale > 0 else 0.0
    if step > 0:
        margins = np.arange(0.0, cap_global + 0.5 * step, step)
    else:
        margins = np.zeros(1)
    cones = np.minimum(caps[None, :], margins[:, None] + frontier[None, :])
    vals = pay(cones)
    tie_eps = 1e-11 * (1.0 + scale) * (1.0 + ctx.f.total_mass)
    j = int(np.argmax(vals >= vals.max() - tie_eps))
    best = cones[j].copy()
    best_val = float(vals[j])
    n_eval = len(margins)

    if step > 0:
        accept = 1e-13 * (1.0 + cap_global)
        for _ in range(search.polish_sweeps):
            improved = False
            for i in range(my_idx.size):
                base = best[i]
                on_grid_cap = np.floor(caps[i] / step + 1e-12) * step
                trials = np.unique(
                    np.array([base - 2 * step, base - step, base + step, base + 2 * step, 0.0, on_grid_cap, caps[i]])
                )
                trials = trials[(trials >= 0.0) & (trials <= caps[i]) & (np.abs(trials - base) > 1e-15)]
                if trials.size == 0:
                    continue
                batch = np.repeat(best[None, :], trials.size, axis=0)
                batch[:, i] = trials
                v = pay(batch)
                n_eval += len(batch)
                k = int(np.argmax(v))
                if v[k] > best_val + accept:
                    best_val = float(v[k])
                    best[i] = trials[k]
                    improved = True
            if not improved:
                break

    return BestResponseResult(player=player, prices=best, payoff=best_val, diagnostics={"evaluations": n_eval, "price_step": step})


@pytest.mark.parametrize("grid_n", [7, 200])
@pytest.mark.parametrize("price_cap", [None, 0.3, 1e-10])
@pytest.mark.parametrize("kernel", [METRIC, sp.CostKernel.quadratic()], ids=["distance", "quadratic"])
def test_best_response_matches_reference_polish(kernel, price_cap, grid_n):
    # on regions 1e-8 and 1e-9 wide the polish moves distance-cost prices
    # too, and under the 1e-10 cap it moves quadratic-cost prices in steps
    # below 1e-12
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 14))
        span = [1.0, 1e-8, 1e-9][seed % 3]
        region = sp.build_interval_region(n, 0.0, span)
        f = sp.CustomerMeasure(rng.uniform(0.5, 1.5, n))
        ctx = GameContext.from_split(region, kernel, float(rng.uniform(0.3, 0.7)) * span, f, price_cap=price_cap)
        opponent = rng.uniform(0.0, 1.0, n) * [1.0, span][seed % 2]
        search = NashSearchConfig(grid_n=grid_n)
        for player in "AB":
            expected = _best_response_oracle(player, opponent, ctx, search)
            got = best_response(player, opponent, ctx, search)
            case = (seed, player)
            assert np.array_equal(got.prices, expected.prices), case
            assert repr(got.payoff) == repr(expected.payoff), case
            assert got.diagnostics["price_step"] == expected.diagnostics["price_step"], case
            # the shared ascent scores its start once more
            assert got.diagnostics["evaluations"] == expected.diagnostics["evaluations"] + 1, case


def _assert_matches_the_oracle(player, opponent, ctx, search, polished):
    expected = _best_response_oracle(player, opponent, ctx, search)
    got = best_response(player, opponent, ctx, search)
    assert np.array_equal(got.prices, expected.prices)
    assert repr(got.payoff) == repr(expected.payoff)
    assert got.diagnostics["price_step"] == expected.diagnostics["price_step"]
    assert got.diagnostics["evaluations"] == expected.diagnostics["evaluations"] + polished


def test_cone_scan_without_an_all_capped_cone_matches_the_reference():
    # split on the grid point 0.5, which both players own: its frontier is
    # 0, and under the price cap it holds the largest cap, which margins on
    # the grid of a wider price scale stop short of, so the scan runs to
    # its last margin
    n = 9
    ctx = GameContext.from_split(sp.build_interval_region(n, 0.0, 1.0), METRIC, 0.5, sp.CustomerMeasure.uniform(n), price_cap=0.3)
    opponent = np.ones(n)
    search = NashSearchConfig(grid_n=7, price_scale=0.4)
    for player in "AB":
        my_idx, opp_idx = ctx.indices(player), ctx.indices("B" if player == "A" else "A")
        caps = np.minimum(ct.value_table(opponent, ctx.cost, opp_idx)[my_idx], 0.3)
        frontier = ctx.cost[np.ix_(my_idx, opp_idx)].min(axis=1)
        step = 0.4 / 7
        margins = np.arange(0.0, caps.max() + 0.5 * step, step)
        shared = np.flatnonzero(frontier == 0.0)
        assert shared.size == 1 and caps[shared[0]] == caps.max()
        assert not (np.minimum(caps, margins[:, None] + frontier) == caps).all(axis=1).any()
        _assert_matches_the_oracle(player, opponent, ctx, search, polished=True)


def test_cone_scan_with_zero_caps_matches_the_reference():
    # a price cap of 0: every cap is 0, so the step is 0, one margin is
    # scanned and the polish does not run
    n = 9
    ctx = GameContext.from_split(sp.build_interval_region(n, 0.0, 1.0), METRIC, 0.4, sp.CustomerMeasure.uniform(n), price_cap=0.0)
    for player in "AB":
        got = best_response(player, np.ones(n), ctx)
        assert got.diagnostics == {"evaluations": 1, "price_step": 0.0}
        _assert_matches_the_oracle(player, np.ones(n), ctx, NashSearchConfig(), polished=False)


def _trial_game(seed, kernel, price_cap=None):
    """A seeded split game: some customers weigh 0, and odd seeds split on a
    grid point, whose overlap point carries no customers; seed 2 gives A one
    point."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 16))
    region = sp.build_interval_region(n, 0.0, 1.0)
    x = region.coords_1d()
    w = rng.uniform(0.5, 1.5, n)
    w[rng.uniform(size=n) < 0.25] = 0.0
    if seed == 2:
        split = 0.5 * (x[0] + x[1])
    elif seed % 2:
        split = float(x[int(rng.integers(1, n - 1))])
    else:
        split = float(rng.uniform(0.2, 0.8))
    ctx = GameContext.from_split(region, kernel, split, sp.CustomerMeasure(w), price_cap=price_cap)
    return rng, ctx


def _at_point(trials):
    """The polish's `TrialBatch` as a hook (u, idx, ts): the trials of one point u."""
    return lambda u, idx, ts: trials(u[None], np.zeros(len(ts), dtype=np.intp), idx, ts, None)


def _trial_payoffs(ctx, player, opponent):
    my_idx = ctx.indices(player)
    opp_idx = ctx.indices("B" if player == "A" else "A")
    args = (ctx, my_idx, ct.value_table(opponent, ctx.cost, opp_idx), ctx.tie_home(player), ctx.tol)
    return my_idx, _player_payoff_batch(*args), _at_point(_player_trial_scores(*args))


def _assert_trials_match(dense, hook, u, idx, ts):
    """The hook's scores of u with u[idx[k]] = ts[k] are the dense payoff's, bytes included."""
    idx, ts = np.asarray(idx, dtype=np.intp), np.asarray(ts, dtype=float)
    rows = np.repeat(u[None, :], len(ts), axis=0)
    rows[np.arange(len(ts)), idx] = ts
    got, expected = hook(u, idx, ts), dense(rows)
    assert np.array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()  # the sign of a zero too


@pytest.mark.parametrize("kernel", [METRIC, sp.CostKernel.quadratic()], ids=["distance", "quadratic"])
def test_trial_scores_match_the_dense_payoff(kernel):
    branches = {"unique": 0, "knife": 0, "tie": 0, "lower": 0}
    for seed in range(12):
        rng, ctx = _trial_game(seed, kernel)
        step = 1.0 / [7, 10, 20][seed % 3]
        for player in "AB":
            opponent = np.round(rng.uniform(0.0, 1.0, ctx.region.size) / step) * step
            my_idx, dense, hook = _trial_payoffs(ctx, player, opponent)
            C = ctx.cost[:, my_idx]
            for rep in range(8):
                # prices on a step grid force ties; off the grid most rows have one best offer
                u = rng.uniform(0.0, 1.0, my_idx.size)
                if rep % 2:
                    u = np.round(u / step) * step
                if rep == 7:
                    u[0] = -0.0
                pairs = []
                for i in rng.permutation(my_idx.size)[:4]:
                    T = C + u
                    V = T.min(axis=1)
                    x = int(rng.integers(0, C.shape[0]))
                    edge = V[x] - C[x, i]  # trial offers at customer x's best offer
                    ts = np.unique(
                        np.concatenate(
                            [
                                np.round(rng.uniform(0.0, 1.0, 4) / step) * step,
                                rng.uniform(0.0, 1.0, 2),
                                edge + np.array([-2.0, -0.5, 0.0, 0.5, 2.0]) * ctx.tol,
                                [(V[x] + ctx.tol) - C[x, i], (V[x] - ctx.tol) - C[x, i]],
                            ]
                        )
                    )
                    ts = ts[ts > 0.0].tolist()
                    _assert_trials_match(dense, hook, u, [i] * len(ts), ts)
                    pairs += [(i, t) for t in ts]
                    ci = C[:, i][None, :] + np.array(ts)[:, None]
                    branches["unique"] += int(((T[:, i] == V) & ((T == V[:, None]).sum(axis=1) == 1)).sum())
                    branches["knife"] += int(((ci < V) & (ci + ctx.tol >= V)).sum())
                    branches["tie"] += int(((ci >= V) & (ci <= V + ctx.tol)).sum())
                    branches["lower"] += int((ci + ctx.tol < V).sum())
                # the same pairs in one call, several coordinates mixed, as the polish asks
                order = rng.permutation(len(pairs))
                _assert_trials_match(dense, hook, u, [pairs[k][0] for k in order], [pairs[k][1] for k in order])
    assert min(branches.values()) > 0, branches


def test_trial_scores_in_budget_slices_match_the_dense_payoff(monkeypatch):
    # a cell budget of a few customers' rows makes the hook score its pairs,
    # and densely re-score its cells, in many slices
    rng, ctx = _trial_game(3, sp.CostKernel.quadratic())
    opponent = rng.uniform(0.0, 1.0, ctx.region.size)
    my_idx, dense, hook = _trial_payoffs(ctx, "A", opponent)
    u = np.round(rng.uniform(0.0, 1.0, my_idx.size) * 10) / 10
    idx = np.repeat(np.arange(my_idx.size), 7)
    ts = np.round(rng.uniform(0.0, 1.0, idx.size) * 10) / 10
    expected = hook(u, idx, ts)
    monkeypatch.setattr(geometry, "BLOCK_CELLS", 3 * ctx.region.size)
    assert hook(u, idx, ts).tobytes() == expected.tobytes()
    _assert_trials_match(dense, hook, u, idx, ts)


def test_trial_scores_take_one_point():
    # the polish climbs one start: a call with the trials of two points is refused
    rng, ctx = _trial_game(3, METRIC)
    my_idx = ctx.indices("A")
    opp_offer = ct.value_table(rng.uniform(0.0, 1.0, ctx.region.size), ctx.cost, ctx.indices("B"))
    trials = _player_trial_scores(ctx, my_idx, opp_offer, ctx.tie_home("A"), ctx.tol)
    points = rng.uniform(0.0, 1.0, (2, my_idx.size))
    with pytest.raises(ValueError):
        trials(points, np.array([0, 1]), np.array([0, 0]), np.array([0.5, 0.5]), None)


def test_cone_scan_memory_stays_within_the_budget():
    # n = 201, A owns 101 points: 201 cones span 201 x 201 x 101 cells, about
    # 31 budgets, so the payoff scores them in slices
    n = 201
    ctx = GameContext.from_split(sp.build_interval_region(n, 0.0, 1.0), METRIC, 0.5, sp.CustomerMeasure.uniform(n))
    my_idx, opp_idx = ctx.indices("A"), ctx.indices("B")
    opp_offer = ct.value_table(np.full(n, 1.0), ctx.cost, opp_idx)
    caps = opp_offer[my_idx]
    frontier = ctx.cost[np.ix_(my_idx, opp_idx)].min(axis=1)
    margins = np.arange(0.0, caps.max() + 0.0025, 0.005)
    cones = np.minimum(caps[None, :], margins[:, None] + frontier[None, :])
    assert len(cones) * n * my_idx.size > 30 * geometry.BLOCK_CELLS
    pay = _player_payoff_batch(ctx, my_idx, opp_offer, ctx.tie_home("A"), ctx.tol)
    peak, _ = peak_budgets(lambda: pay(cones))
    assert peak < 2, peak


def _budget_game():
    """The n = 201 split game of the cone scan test, against the opponent's constant 1.0."""
    n = 201
    ctx = GameContext.from_split(sp.build_interval_region(n, 0.0, 1.0), METRIC, 0.5, sp.CustomerMeasure.uniform(n))
    return ctx, np.full(n, 1.0)


def test_one_step_polish_trials_stay_within_two_budgets(monkeypatch):
    # every one-step trial of the polish's start in one hook call: ~700
    # pairs of 201 customers each, scored in slices of the budget
    import spatial_pricing.nash as nash_mod

    ctx, opponent = _budget_game()
    seen = {}

    def polish(eval_batch, caps, starts, search, **kwargs):
        seen.update(dense=eval_batch, caps=caps, u=starts[0], step=kwargs["step"], trials=kwargs["trials"])
        return starts[0], float(eval_batch(starts[0][None])[0]), {"evaluations": 1}

    monkeypatch.setattr(nash_mod, "coordinate_ascent", polish)
    best_response("A", opponent, ctx)
    u, caps, step = seen["u"], seen["caps"], seen["step"]
    idx, ts = [], []
    for i, (base, cap) in enumerate(zip(u.tolist(), caps.tolist())):
        # the moves of `coordinate_ascent`'s trials at one step level, with the on-grid cap
        moves = [base + d * step for d in (-2, -1, 1, 2)] + [0.0, cap, math.floor(cap / step + 1e-12) * step]
        fresh = sorted({min(max(t, 0.0), cap) for t in moves} - {base})
        idx += [i] * len(fresh)
        ts += fresh
    assert len(ts) > 600
    hook = _at_point(seen["trials"])
    idx, ts = np.array(idx, dtype=np.intp), np.array(ts)
    peak, _ = peak_budgets(lambda: hook(u, idx, ts))
    assert peak < 2, peak
    _assert_trials_match(seen["dense"], hook, u, idx, ts)


def test_best_response_stays_within_two_budgets():
    ctx, opponent = _budget_game()
    peak, r = peak_budgets(lambda: best_response("A", opponent, ctx))
    assert r.diagnostics["evaluations"] > 800  # 201 margins, then the polish's trials
    assert peak < 2, peak


@pytest.mark.parametrize("price_cap", [None, 0.3, 1e-10])
@pytest.mark.parametrize("kernel", [METRIC, sp.CostKernel.quadratic()], ids=["distance", "quadratic"])
def test_polish_trials_match_the_dense_payoff(monkeypatch, kernel, price_cap):
    # every trial the polish scores, checked against the dense payoff; the
    # polish asks for several coordinates' trials in one call
    import spatial_pricing.nash as nash_mod

    coordinates = []

    def checked(ctx, my_idx, opp_offer, tie_home, tol):
        dense = _player_payoff_batch(ctx, my_idx, opp_offer, tie_home, tol)
        trials = _player_trial_scores(ctx, my_idx, opp_offer, tie_home, tol)

        def checked_trials(points, owner, idx, ts, floors):
            coordinates.append(len(set(idx.tolist())))
            _assert_trials_match(dense, _at_point(trials), points[0], idx, ts)
            return trials(points, owner, idx, ts, floors)

        return checked_trials

    monkeypatch.setattr(nash_mod, "_player_trial_scores", checked)
    for seed in range(4):
        rng, ctx = _trial_game(seed, kernel, price_cap)
        opponent = rng.uniform(0.0, 1.0, ctx.region.size)
        for grid_n in (7, 40):
            for player in "AB":
                best_response(player, opponent, ctx, NashSearchConfig(grid_n=grid_n))
    assert coordinates and max(coordinates) > 1


def test_still_polish_scores_dense_rows_only_where_the_argmin_moves(monkeypatch):
    # the distance-cost polish moves no price here; the dense payoff scores
    # the start row, the best cone, once more (n customers), and otherwise
    # only what the hook passes it: rows whose unique best offer is the
    # moved column and knife edges.  The sweep moves nothing, so the hook's
    # window doubles from one coordinate and the sweep takes about log2(m)
    # calls.
    import spatial_pricing.nash as nash_mod

    region = sp.build_interval_region(41, 0.0, 1.0)
    f = sp.CustomerMeasure(np.random.default_rng(3).uniform(0.5, 1.5, 41))
    ctx = GameContext.from_split(region, METRIC, 0.5, f)
    opponent = np.ones(41)
    rows = {"dense": 0}
    record = {}
    real_value_and_paid = nash_mod._value_and_paid

    def counted(totals, P, tol):
        rows["dense"] += int(np.prod(totals.shape[:-1]))
        return real_value_and_paid(totals, P, tol)

    def ascent(eval_batch, caps, starts, search, feasible=None, **kwargs):
        trials = kwargs.pop("trials")
        record.update(start=starts[0].copy(), calls=[])

        def recorded(points, owner, idx, ts, floors):
            record["calls"].append((points[0].copy(), idx.copy(), ts.copy()))
            return trials(points, owner, idx, ts, floors)

        with monkeypatch.context() as patch:
            patch.setattr(nash_mod, "_value_and_paid", counted)
            out = coordinate_ascent(eval_batch, caps, starts, search, feasible, trials=recorded, **kwargs)
        record["u"], record["evaluations"] = out[0], out[2]["evaluations"]
        return out

    monkeypatch.setattr(nash_mod, "coordinate_ascent", ascent)
    r = best_response("A", opponent, ctx, NashSearchConfig(grid_n=40))
    assert np.array_equal(record["u"], record["start"]) and np.array_equal(r.prices, record["start"])
    C = ctx.cost[:, ctx.indices("A")]
    expected = trials = 0
    for u, idx, ts in record["calls"]:
        T = C + u
        V = T.min(axis=1)
        for i, t in zip(idx.tolist(), ts.tolist()):
            unique = (T[:, i] == V) & ((T == V[:, None]).sum(axis=1) == 1)
            ci = C[:, i] + t
            expected += int((unique | ((ci < V) & (ci + ctx.tol >= V))).sum())
            trials += 1
    n, m = C.shape
    assert rows["dense"] == expected + n
    assert expected < trials * n / 10
    assert len(record["calls"]) == math.ceil(math.log2(m + 1))
    assert {i for _, idx, _ in record["calls"] for i in idx.tolist()} == set(range(m))
    # the still sweep compares every pair it scores, once
    assert trials == record["evaluations"] - 1


def _counted_hook(hook, record):
    """The one-point hook as a `TrialBatch`: each start's trials scored at
    its own point, counted in record["pairs"]."""

    def trials(points, owner, idx, ts, floors):
        record["pairs"] += len(ts)
        out = np.empty(len(ts))
        for k, u in enumerate(points):
            mine = owner == k
            out[mine] = hook(u, idx[mine], ts[mine])
        return out

    return trials


@pytest.mark.parametrize("kernel", [METRIC, sp.CostKernel.quadratic()], ids=["distance", "quadratic"])
def test_ascent_with_the_hook_matches_the_dense_ascent(kernel):
    # from starts on the price grid but off the best cone the polish moves
    # prices under both costs; with the hook it must reach the same point
    # and value and count the same evaluations as through the dense payoff
    moved = 0
    for seed in range(8):
        rng, ctx = _trial_game(seed, kernel)
        opponent = rng.uniform(0.0, 1.0, ctx.region.size)
        step = 1.0 / [7, 20][seed % 2]
        for player in "AB":
            my_idx, dense, hook = _trial_payoffs(ctx, player, opponent)
            m = my_idx.size
            caps = rng.uniform(0.5, 1.5, m)
            start = np.round(rng.uniform(0.0, caps) / step) * step
            deep = SearchConfig(levels=5, multistarts=3, seed=seed, max_sweeps=3, refine_halvings=2)
            runs = [
                # the polish, and a multi-start ascent over several step levels
                (SearchConfig(max_sweeps=4, refine_halvings=0), [start], {"step": step, "on_grid_cap": True}),
                (deep, seeded_starts(caps, deep, start), {}),
            ]
            for cfg, starts, kwargs in runs:
                expected = coordinate_ascent(dense, caps, starts, cfg, **kwargs)
                record = {"pairs": 0}
                got = coordinate_ascent(dense, caps, starts, cfg, trials=_counted_hook(hook, record), **kwargs)
                case = (seed, player, len(starts))
                assert got[0].tobytes() == expected[0].tobytes(), case
                assert repr(got[1]) == repr(expected[1]), case
                assert got[2] == expected[2], case
                # scores a move makes stale stay within those compared, plus a sweep
                assert record["pairs"] <= 2 * (got[2]["evaluations"] - len(starts)) + m, case
                if kwargs:  # the polish
                    moved += int((got[0] != start).sum())
    assert moved > 0


def test_masked_max_matches_the_where_max_form():
    # the price paid, a masked reduce over the tied offers, equals the max of
    # np.where(member, P, -inf); with -0.0 prices the two may pick zeros of
    # different sign, which the income sum drops
    rng = np.random.default_rng(7)
    signed = 0
    for trial in range(300):
        B, n, m = (int(k) for k in rng.integers(1, 12, 3))
        C = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n, m))
        prices = [0.0, 0.25, 0.5] + ([-0.0] if trial % 2 else [])
        P = rng.choice(prices, size=(B, 1, m))
        tol = [0.0, 1e-9][trial % 3 == 0]
        totals = C[None] + P
        V, paid = _value_and_paid(totals, P, tol)
        where_max = np.where(totals <= totals.min(axis=-1)[..., None] + tol, P, -np.inf).max(axis=-1)
        assert V.tobytes() == totals.min(axis=-1).tobytes()
        assert np.array_equal(paid, where_max)
        if trial % 2 == 0:
            assert paid.tobytes() == where_max.tobytes()
        else:
            signed += paid.tobytes() != where_max.tobytes()
        opp = rng.choice([0.25, 0.5, 1.0, 2.0], size=n)
        tie_home = rng.uniform(size=n) < 0.5
        w = rng.uniform(0.0, 1.0, n)
        for p in (paid, where_max):
            assert np.isfinite(p).all()
        got = _income(V, paid, opp, tie_home, w, tol).sum(axis=-1)
        expected = _income(V, where_max, opp, tie_home, w, tol).sum(axis=-1)
        assert got.tobytes() == expected.tobytes()
    assert signed > 0  # the sign of a zero does differ, so the sums are what agree


def _scan_cones(player, opponent, ctx, search):
    """The frontier cones a distance-cost best response scans, built as
    `best_response` builds them."""
    my_idx = ctx.indices(player)
    opp_idx = ctx.indices("B" if player == "A" else "A")
    caps = ct.value_table(opponent, ctx.cost, opp_idx)[my_idx]
    if ctx.price_cap is not None:
        caps = np.minimum(caps, ctx.price_cap)
    caps = np.maximum(caps, 0.0)
    frontier = ctx.cost[np.ix_(my_idx, opp_idx)].min(axis=1)
    cap_global = float(caps.max())
    step = cap_global / search.grid_n
    margins = np.arange(0.0, cap_global + 0.5 * step, step)
    return np.minimum(caps[None, :], margins[:, None] + frontier[None, :])


@pytest.mark.parametrize(
    "span, price_cap, opponent_price, distinct_share",
    [(1.0, None, 0.1, 0.2), (1.0, 0.3, 0.15, 0.55), (1e-9, None, 0.5e-9, 0.55)],
    ids=["saturates_early", "price_cap", "narrow"],
)
def test_cone_scan_scores_each_distinct_cone_once(monkeypatch, span, price_cap, opponent_price, distinct_share):
    # the opponent's flat price q makes every cap q plus the frontier (or the
    # price cap), so every cone is the caps from margin q on: a sixth of the
    # way to cap_global in saturates_early, half of it in the other two
    import spatial_pricing.nash as nash_mod

    region = sp.build_interval_region(31, 0.0, span)
    f = sp.CustomerMeasure(np.random.default_rng(5).uniform(0.5, 1.5, 31))
    ctx = GameContext.from_split(region, METRIC, 0.5 * span, f, price_cap=price_cap)
    opponent = np.full(31, opponent_price)
    search = NashSearchConfig(grid_n=60)
    real_value_and_paid, real_ascent = nash_mod._value_and_paid, nash_mod.coordinate_ascent
    for player in "AB":
        scanned, scanning = [], [True]

        def counted(totals, P, tol):
            if scanning[0]:
                scanned.extend(row.tobytes() for row in P[:, 0, :])
            return real_value_and_paid(totals, P, tol)

        def ascent(*args, **kwargs):
            scanning[0] = False  # the scan is over
            return real_ascent(*args, **kwargs)

        monkeypatch.setattr(nash_mod, "_value_and_paid", counted)
        monkeypatch.setattr(nash_mod, "coordinate_ascent", ascent)
        best_response(player, opponent, ctx, search)
        assert not scanning[0]
        cones = _scan_cones(player, opponent, ctx, search)
        distinct = {row.tobytes() for row in cones}
        assert len(distinct) < distinct_share * len(cones), player
        assert sorted(scanned) == sorted(distinct), player


def test_polish_moves_a_capped_split_game():
    """A metric game where the polish moves a frontier cone, with a step of
    about 2e7 tolerances: skipping the polish for metric costs whenever the
    step is large would lose this gain."""
    n = 12
    region = sp.build_interval_region(n, 0.0, 1.0)
    ctx = GameContext.from_split(region, METRIC, 0.1, sp.CustomerMeasure(np.full(n, 1 / 12)), price_cap=0.3)
    assert ctx.indices("A").tolist() == [0, 1]
    assert ctx.tol == pytest.approx(2e-9)
    q = np.full(n, 0.4)
    cone = best_response("A", q, ctx, NashSearchConfig(grid_n=7, polish_sweeps=0))
    assert cone.prices.tolist() == [0.3, 0.3]
    assert cone.payoff == pytest.approx(0.075, abs=1e-12)
    polished = best_response("A", q, ctx, NashSearchConfig(grid_n=7, polish_sweeps=4))
    step = polished.diagnostics["price_step"]
    assert step == pytest.approx(0.3 / 7) and step > 1e7 * ctx.tol
    # A's point 1/11 drops two steps, to 0.3 - 2 * 0.3 / 7
    assert polished.prices[0] == 0.3
    assert polished.prices[1] == pytest.approx(0.2142857142857143, abs=1e-12)
    assert polished.payoff == pytest.approx(0.0785714285714286, abs=1e-12)
    assert polished.payoff > cone.payoff + 1e-3


def _trace_bytes(trace):
    rounds = [(r.p.tobytes(), r.q.tobytes(), repr((r.payoff_a, r.payoff_b, r.delta_p, r.delta_q))) for r in trace.rounds]
    return rounds, trace.converged, trace.oscillation_period


@pytest.mark.parametrize("price_cap", [None, 0.3])
def test_line_table_game_matches_the_dense_table_game(monkeypatch, price_cap):
    # a 1D distance game holds a LineDistances; at 64 cells a block the
    # value tables and the payoff run in several row blocks on both tables
    monkeypatch.setattr(geometry, "BLOCK_CELLS", 64)
    rng = np.random.default_rng(11)
    n = 21
    region = sp.build_interval_region(n, 0.0, 1.0)
    f = sp.CustomerMeasure(rng.uniform(0.5, 1.5, n))
    search = NashSearchConfig(grid_n=20)
    for split in (0.5, 0.37):  # 0.5 is a grid point, which both players own
        ctx = GameContext.from_split(region, METRIC, split, f, price_cap=price_cap)
        dense = replace(ctx, cost=np.asarray(ctx.cost))
        assert isinstance(ctx.cost, geometry.LineDistances) and type(dense.cost) is np.ndarray
        p0, q0 = rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n)
        traces = [best_response_dynamics(p0, q0, game, 6, 1e-9, search) for game in (ctx, dense)]
        assert _trace_bytes(traces[0]) == _trace_bytes(traces[1])
        p, q = np.zeros(n), np.zeros(n)
        p[ctx.indices("A")], q[ctx.indices("B")] = traces[0].final
        reports = [verify_equilibrium(p, q, game, search) for game in (ctx, dense)]
        assert repr(reports[0]) == repr(reports[1])
