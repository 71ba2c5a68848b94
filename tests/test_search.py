"""The search solvers share one start set-up and one diagnostics shape."""

import math
import tracemalloc

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import _search, geometry, model_one, model_two
from spatial_pricing import ctransform as ct
from spatial_pricing._search import SearchConfig, SearchMode, coordinate_ascent, seeded_starts

from helpers import plain_objective

SEARCH_KEYS = {
    SearchMode.ASCENT: {"mode", "evaluations", "starts"},
    SearchMode.EXHAUSTIVE: {"mode", "evaluations", "levels", "search_space"},
}
ALL_SEARCH_KEYS = set().union(*SEARCH_KEYS.values())


def _window(n=11):
    region = sp.build_interval_region(n, 0.0, 1.0, fixed_window=(0.3, 0.7))
    ctx = model_two.PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(n, 0.5)))
    return ctx, sp.CustomerMeasure(np.linspace(0.5, 1.5, n))


def _solve(solver, mode):
    if solver == "solve_general":
        region = sp.build_interval_region(5, 0.0, 1.0)
        f = sp.CustomerMeasure.uniform(5)
        cfg = SearchConfig(mode=mode, levels=3, multistarts=6)
        return model_one.solve_general(sp.PricePattern(np.full(5, 0.8)), sp.CostKernel.quadratic(), region, f, cfg)
    ctx, f = _window()
    if solver == "solve_w_search":
        return model_two.solve_w_search(ctx, f, SearchConfig(mode=mode, levels=3, multistarts=6))
    # boundary control scans exhaustively whenever the grid fits the budget
    budget = 10**4 if mode is SearchMode.EXHAUSTIVE else 10
    cfg = SearchConfig(grid_n=11, levels=11, multistarts=6, max_candidates=budget)
    return model_two.solve_boundary_control(ctx, f, cfg)


@pytest.mark.parametrize("mode", list(SearchMode))
@pytest.mark.parametrize("solver", ["solve_general", "solve_w_search", "solve_boundary_control"])
def test_diagnostics_shape(solver, mode):
    diag = _solve(solver, mode).diagnostics
    assert set(diag) & ALL_SEARCH_KEYS == SEARCH_KEYS[mode]
    assert diag["mode"] == mode.value
    if mode is SearchMode.ASCENT:
        assert diag["starts"] == 6
    else:
        assert 0 < diag["evaluations"] <= diag["search_space"]


def test_seeded_starts_are_deterministic():
    caps = np.array([0.5, 1.0, 2.0])
    cfg = SearchConfig(multistarts=7, seed=3)
    extra = np.array([0.1, 0.2, 0.3])
    a, b = seeded_starts(caps, cfg, extra), seeded_starts(caps, cfg, extra)
    assert len(a) == 7
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert np.array_equal(a[1], caps) and np.array_equal(a[3], extra)
    assert all(((u >= 0) & (u <= caps)).all() for u in a)


def test_ascent_with_zero_caps_returns_zero():
    caps = np.zeros(3)
    cfg = SearchConfig(multistarts=4)
    u, val, diag = coordinate_ascent(lambda U: -U.sum(axis=1), caps, seeded_starts(caps, cfg), cfg)
    assert np.array_equal(u, caps) and val == 0.0
    assert diag == {"mode": "ascent", "evaluations": 4, "starts": 4}


def _ascent_oracle(eval_batch, caps, starts, search, feasible=None, trials=None):
    """The coordinate ascent before score reuse, kept verbatim as the reference
    (a `trials` is taken and ignored: it cannot change the answer)."""
    caps = np.asarray(caps, dtype=float)
    m = caps.size
    cap_max = float(np.max(caps, initial=0.0))
    step0 = cap_max / max(search.levels - 1, 1)
    min_step = max(step0 / 2**search.refine_halvings, 1e-12)
    accept_eps = 1e-13 * (1.0 + cap_max)
    best_u, best_val = None, -np.inf
    n_eval = 0
    for u0 in starts:
        u = np.clip(np.asarray(u0, dtype=float), 0.0, caps)
        if feasible is not None and not feasible(u[None])[0]:
            continue
        cur = float(eval_batch(u[None])[0])
        n_eval += 1
        step = step0
        while step >= min_step:
            for _ in range(search.max_sweeps):
                improved = False
                for i in range(m):
                    base = u[i]
                    trials = np.unique(
                        np.clip(
                            np.array([base - 2 * step, base - step, base + step, base + 2 * step, 0.0, caps[i]]),
                            0.0,
                            caps[i],
                        )
                    )
                    trials = trials[np.abs(trials - base) > 1e-15]
                    if trials.size == 0:
                        continue
                    batch = np.repeat(u[None, :], trials.size, axis=0)
                    batch[:, i] = trials
                    if feasible is not None:
                        keep = feasible(batch)
                        batch, trials = batch[keep], trials[keep]
                        if trials.size == 0:
                            continue
                    vals = eval_batch(batch)
                    n_eval += len(batch)
                    j = int(np.argmax(vals))
                    if vals[j] > cur + accept_eps:
                        cur = float(vals[j])
                        u[i] = trials[j]
                        improved = True
                if not improved:
                    break
            step *= 0.5
        if cur > best_val:
            best_val = cur
            best_u = u.copy()
    if best_u is None:
        raise ValueError("no feasible start for the coordinate ascent")
    return best_u, best_val, {"mode": "ascent", "evaluations": n_eval, "starts": len(starts)}


def _objective(rng, m, quantized):
    """A seeded objective whose row scores do not depend on the batch: a
    concave quadratic with a coupling term, or that rounded to a coarse grid
    (many ties and plateaus)."""
    centre = rng.uniform(0.0, 1.5, m)
    weight = rng.uniform(0.5, 2.0, m)
    coupling = rng.uniform(-0.3, 0.3, m)
    levels = float(rng.integers(3, 12))

    def eval_batch(U):
        val = -((U - centre) ** 2 * weight).sum(axis=1) + (U * np.roll(U, 1, axis=1) * coupling).sum(axis=1)
        return np.floor(val * levels) / levels if quantized else val

    return eval_batch


def _budget(caps):
    """Feasible set: total price at most half the caps' sum."""
    limit = 0.5 * float(caps.sum())
    return lambda U: U.sum(axis=1) <= limit


def _ascent_case(seed, quantized, filtered):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    caps = rng.uniform(0.2, 2.0, m)
    if seed % 5 == 0:
        caps[0] = 0.0
    cfg = SearchConfig(
        levels=int(rng.integers(2, 9)),
        multistarts=int(rng.integers(3, 12)),
        seed=seed,
        max_sweeps=int(rng.integers(1, 6)),
        refine_halvings=int(rng.integers(0, 7)),
    )
    starts = seeded_starts(caps, cfg, np.round(rng.uniform(0.0, caps) * 4) / 4)
    # repeated starts share their whole trajectory
    starts += [starts[int(k)] for k in rng.integers(0, len(starts), 2)]
    feasible = _budget(caps) if filtered else None
    return _objective(rng, m, quantized), caps, starts, cfg, feasible


class _RowCounter:
    def __init__(self, fn):
        self.fn, self.rows = fn, 0

    def __call__(self, U):
        self.rows += len(U)
        return self.fn(U)

    def trials(self, trials):
        """`trials`, a `TrialBatch`, with its trial rows added to the count."""

        def counted(points, owner, idx, ts, floors):
            self.rows += len(ts)
            return trials(points, owner, idx, ts, floors)

        return None if trials is None else counted


def _feasible_windows(feasible, record):
    """`feasible`, counting in record["crossed"] the trial windows that span
    several coordinates and lose some of their trials to it."""

    def recorded(U):
        keep = feasible(U)
        if record["calls"]:  # the first call filters the starts
            spans = sum(len(np.unique(U[:, j])) > 1 for j in range(U.shape[1]))
            record["crossed"] += int(spans > 1 and not keep.all())
        record["calls"] += 1
        return keep

    return recorded


@pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "feasible"])
@pytest.mark.parametrize("quantized", [False, True], ids=["smooth", "quantized"])
def test_ascent_matches_reference(quantized, filtered):
    rows = evaluations = 0
    record = {"calls": 0, "crossed": 0}
    for seed in range(40):
        eval_batch, caps, starts, cfg, feasible = _ascent_case(seed, quantized, filtered)
        counter = _RowCounter(eval_batch)
        expected = _ascent_oracle(eval_batch, caps, starts, cfg, feasible)
        record["calls"] = 0
        u, val, diag = coordinate_ascent(counter, caps, starts, cfg, None if feasible is None else _feasible_windows(feasible, record))
        assert np.array_equal(u, expected[0]), seed
        assert val == expected[1], seed
        assert diag == expected[2], seed
        rows += counter.rows
        evaluations += diag["evaluations"]
    assert rows < evaluations
    # windows of several coordinates lost some of their trials to `feasible`
    assert (record["crossed"] > 0) == filtered


def _capture_ascent(monkeypatch, module):
    """Route `module`'s ascent through a row counter; returns the call record."""
    record = {}

    def ascent(eval_batch, caps, starts, search, feasible=None, trials=None):
        counter = _RowCounter(eval_batch)
        record.update(eval_batch=eval_batch, caps=caps, starts=starts, search=search, counter=counter)
        return coordinate_ascent(counter, caps, starts, search, feasible, trials=counter.trials(trials))

    monkeypatch.setattr(module, "coordinate_ascent", ascent)
    return record


def _ascent_solve(solver):
    if solver == "solve_general":
        # under a constant bound the start at v0 clips to the start at the caps
        region = sp.build_interval_region(9, 0.0, 1.0)
        f = sp.CustomerMeasure(np.linspace(0.5, 1.5, 9))
        cfg = SearchConfig(levels=5, multistarts=10, seed=1)
        return model_one, lambda: model_one.solve_general(
            sp.PricePattern(np.full(9, 0.8)), sp.CostKernel.quadratic(), region, f, cfg
        )
    ctx, f = _window()
    return model_two, lambda: model_two.solve_w_search(ctx, f, SearchConfig(levels=5, multistarts=10, seed=1))


@pytest.mark.parametrize("solver", ["solve_general", "solve_w_search"])
def test_solver_ascent_reuses_scores(monkeypatch, solver):
    module, solve = _ascent_solve(solver)
    with monkeypatch.context() as patch:
        patch.setattr(module, "coordinate_ascent", _ascent_oracle)
        expected = solve()
    record = _capture_ascent(monkeypatch, module)
    report = solve()
    assert report.profit == expected.profit
    assert np.array_equal(report.optimal_price.values, expected.optimal_price.values)
    assert report.diagnostics == expected.diagnostics
    # the kernel scored fewer rows than the ascent compared
    rows = record["counter"].rows
    assert rows < report.diagnostics["evaluations"]
    # a start run alone cannot adopt another start's outcome, so fewer rows
    # for all starts together than for the starts one by one means one did
    alone = 0
    for u0 in record["starts"]:
        counter = _RowCounter(record["eval_batch"])
        coordinate_ascent(counter, record["caps"], [u0], record["search"])
        alone += counter.rows
    assert rows < alone


@pytest.mark.parametrize("solver", ["solve_general", "solve_w_search"])
def test_solver_scores_each_value_function_once(monkeypatch, solver):
    module, solve = _ascent_solve(solver)
    with monkeypatch.context() as patch:
        patch.setattr(module, "Objective", plain_objective)
        expected = solve()
    scored = {"rows": 0}

    # with a bound of +inf the objective scores every trial the counter
    # counts, so only the memo can score fewer rows
    def counted(score, n, m, value, bound):
        def counted_score(V):
            scored["rows"] += len(V)
            return score(V)

        return _search.Objective(counted_score, n, m, value, lambda V: np.full(len(V), np.inf))

    monkeypatch.setattr(module, "Objective", counted)
    record = _capture_ascent(monkeypatch, module)
    report = solve()
    assert report.profit == expected.profit
    assert np.array_equal(report.optimal_price.values, expected.optimal_price.values)
    assert report.diagnostics == expected.diagnostics
    # the callback was asked for rows whose value function it had scored
    assert 0 < scored["rows"] < record["counter"].rows


def _tied_objective(rng, m):
    """A seeded objective on a coarse grid of values: many candidates tie,
    also at the max."""
    centre = rng.uniform(0.0, 1.5, m)
    levels = float(rng.integers(1, 4))

    def eval_batch(U):
        return np.floor(-((U - centre) ** 2).sum(axis=1) * levels) / levels

    return eval_batch


def _bounds(eval_batch, kind):
    """An upper bound on `eval_batch` of each kind, a function of the row alone."""
    if kind == "exact":
        return eval_batch
    slack = lambda U: np.abs(np.sin(7.0 * U.sum(axis=1)))  # noqa: E731
    if kind == "loose":
        return lambda U: eval_batch(U) + slack(U)
    # "nan": the loose bound, NaN on about a third of the rows
    return lambda U: np.where(slack(U) < 0.5, np.nan, eval_batch(U) + slack(U))


@pytest.mark.parametrize("chunk", [1, 3, 7, _search.CHUNK], ids=["chunk_1", "chunk_3", "chunk_7", "chunk_default"])
@pytest.mark.parametrize("kind", ["exact", "loose", "nan"])
@pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "feasible"])
def test_bounded_scan_matches_the_full_scan(monkeypatch, chunk, kind, filtered):
    """The full scan at the default CHUNK is the reference.  With a small
    CHUNK the ties, the NaN bounds and the floor row fall in different
    chunks, and the bounded scan revisits only some of them."""
    rows = evaluations = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 5))
        caps = rng.uniform(0.2, 2.0, m)
        levels = int(rng.integers(2, 9))
        eval_batch = _tied_objective(rng, m)
        feasible = _budget(caps) if filtered else None
        expected = _search.exhaustive_product(eval_batch, caps, levels, 10**6, feasible)
        counter = _RowCounter(eval_batch)
        with monkeypatch.context() as patch:
            patch.setattr(_search, "CHUNK", chunk)
            u, val, diag = _search.exhaustive_product(counter, caps, levels, 10**6, feasible, bound=_bounds(eval_batch, kind))
        assert u.tobytes() == expected[0].tobytes(), seed
        assert repr(val) == repr(expected[1]), seed
        assert diag == expected[2], seed
        rows += counter.rows
        evaluations += diag["evaluations"]
    assert rows < evaluations


def test_bounded_scan_refuses_a_score_above_its_bound():
    eval_batch = _tied_objective(np.random.default_rng(0), 2)
    with pytest.raises(RuntimeError, match="^search score"):
        _search.exhaustive_product(eval_batch, np.ones(2), 5, 100, bound=lambda U: eval_batch(U) - 1e-9)
    with pytest.raises(ValueError, match="no feasible candidate"):
        _search.exhaustive_product(eval_batch, np.ones(2), 5, 100, lambda U: np.zeros(len(U), bool), bound=eval_batch)


@pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "feasible"])
def test_bounded_scan_bounds_each_row_once(monkeypatch, filtered):
    """With the exact bound of a unique optimum, only the floor row's chunk
    reaches the floor: the second pass takes that chunk's bounds from the
    first, so no row is bounded twice, and the answer is the full scan's."""
    caps = np.array([1.0, 2.0])
    centre = np.array([0.3, 1.1])  # no tie at the grid optimum (0.25, 1.0)

    def eval_batch(U):
        return -((U - centre) ** 2).sum(axis=1)

    bounded = []

    def bound(U):
        bounded.extend(row.tobytes() for row in U)
        return eval_batch(U)

    feasible = _budget(caps) if filtered else None
    expected = _search.exhaustive_product(eval_batch, caps, 9, 100, feasible)
    monkeypatch.setattr(_search, "CHUNK", 7)
    u, val, diag = _search.exhaustive_product(eval_batch, caps, 9, 100, feasible, bound=bound)
    assert (u.tobytes(), repr(val), diag) == (expected[0].tobytes(), repr(expected[1]), expected[2])
    assert len(bounded) == len(set(bounded)) == diag["evaluations"]


@pytest.mark.parametrize("traced", [False, True], ids=["direct", "wrapped"])
def test_boundary_control_scan_scores_few_rows(monkeypatch, traced):
    """On a window shaped like the benchmark's (n = 81, grid_n = 201), the
    rows whose bound reaches the floor are at most 1% of the scan, and the
    answer is the full scan's.  Wrapped: the scan gets the objective behind
    a plain function, as a layer tracer passes it, and still has its bound."""
    n = 81
    region = sp.build_interval_region(n, 0.0, 1.0, fixed_window=(0.3, 0.7))
    ctx = model_two.PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(n, 0.4)))
    f = sp.CustomerMeasure(np.random.default_rng(0).uniform(0.5, 1.5, n))
    cfg = SearchConfig(grid_n=201)
    with monkeypatch.context() as patch:
        patch.setattr(model_two, "exhaustive_product", lambda *args, bound, **kwargs: _search.exhaustive_product(*args, **kwargs))
        expected = model_two.solve_boundary_control(ctx, f, cfg)
    scored = {"rows": 0}
    generator_score = ct._generator_score

    def counted(cols, v0, weights, tol):
        score = generator_score(cols, v0, weights, tol)

        def counted_score(W):
            scored["rows"] += len(W)
            return score(W)

        return counted_score

    monkeypatch.setattr(ct, "_generator_score", counted)
    if traced:
        monkeypatch.setattr(model_two, "exhaustive_product", lambda eval_batch, *args, **kwargs: _search.exhaustive_product(lambda c: eval_batch(c), *args, **kwargs))
    report = model_two.solve_boundary_control(ctx, f, cfg)
    assert repr(report.profit) == repr(expected.profit)
    assert report.optimal_price.values.tobytes() == expected.optimal_price.values.tobytes()
    assert report.diagnostics == expected.diagnostics
    assert report.diagnostics["mode"] == "exhaustive" and report.diagnostics["evaluations"] > 30_000
    assert 0 < scored["rows"] <= 0.01 * report.diagnostics["evaluations"]


def test_bounded_scan_memory_does_not_grow_with_candidates():
    # 708^2 candidates: an id and a bound kept for each would take 7.6 MiB;
    # one bound per chunk and the chunk's temporaries stay within the budget
    n, grid_n = 21, 708
    region = sp.build_interval_region(n, 0.0, 1.0, fixed_window=(0.3, 0.7))
    ctx = model_two.PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(n, 0.4)))
    f = sp.CustomerMeasure(np.random.default_rng(0).uniform(0.5, 1.5, n))
    tracemalloc.start()
    try:
        report = model_two.solve_boundary_control(ctx, f, SearchConfig(grid_n=grid_n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.diagnostics["search_space"] == grid_n**2 >= 500_000
    assert peak < 2 * geometry.BLOCK_CELLS * 8, peak / (geometry.BLOCK_CELLS * 8)


@pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
def test_ascent_refuses_a_step_that_is_not_positive_and_finite(step):
    # 0, -1 and +inf never returned: the step never fell below its floor; NaN returned the start unsearched
    with pytest.raises(ValueError, match="positive finite"):
        coordinate_ascent(lambda U: -np.abs(U - 0.5).sum(axis=1), np.ones(2), [np.zeros(2)], SearchConfig(), step=step)


def _nan_corner(U):
    """NaN on the row u_0 = 0, else -|u - 0.5|_1."""
    return np.where(U[:, 0] == 0.0, np.nan, -np.abs(U - 0.5).sum(axis=1))


@pytest.mark.parametrize("bounded", [False, True], ids=["full", "bounded"])
def test_exhaustive_scan_refuses_a_nan_score(bounded):
    # 5 of the 5x5 grid's 25 candidates score NaN; the scan once hid the
    # rest behind them and refused with "no feasible candidate"
    bound = _nan_corner if bounded else None
    with pytest.raises(RuntimeError, match=r"^search score is NaN at \[0\.0, 0\.0\]"):
        _search.exhaustive_product(_nan_corner, np.ones(2), 5, 100, bound=bound)


def _row_trials(eval_batch, record):
    """A `TrialBatch` that scores each trial as a full row of `eval_batch`,
    recording the coordinates of each call and the trials it scores."""

    def trials(points, owner, idx, ts, floors):
        record["calls"].append(sorted(set(idx.tolist())))
        record["pairs"] += len(ts)
        return eval_batch(_search._trial_rows(points, owner, idx, ts))

    return trials


def _bounded_trials(eval_batch, bound):
    """A `TrialBatch` that scores the trial rows by `eval_batch`, except
    where `bound` answers them below their floor, as an `Objective` does;
    None without a bound."""
    if bound is None:
        return None

    def trials(points, owner, idx, ts, floors):
        rows = _search._trial_rows(points, owner, idx, ts)
        return _search._floored(rows, floors, eval_batch, bound, rows.__getitem__)

    return trials


@pytest.mark.parametrize("quantized", [False, True], ids=["smooth", "quantized"])
def test_ascent_with_trial_scores_matches_the_ascent_without(quantized):
    pairs = evaluations = 0
    for seed in range(40):
        eval_batch, caps, starts, cfg, _ = _ascent_case(seed, quantized, False)
        expected = coordinate_ascent(eval_batch, caps, starts, cfg)
        record = {"calls": [], "pairs": 0}
        u, val, diag = coordinate_ascent(eval_batch, caps, starts, cfg, trials=_row_trials(eval_batch, record))
        assert u.tobytes() == expected[0].tobytes(), seed
        assert repr(val) == repr(expected[1]), seed
        assert diag == expected[2], seed
        assert record["pairs"] <= 2 * diag["evaluations"] + caps.size, seed
        pairs += record["pairs"]
        evaluations += diag["evaluations"]
    assert 0 < pairs < evaluations


@pytest.mark.parametrize("m", [1, 2, 3, 7, 8, 20, 100])
def test_still_sweep_asks_the_hook_log2_times(m):
    # the start is the optimum, so the one sweep moves nothing: windows of
    # 1, 2, 4, ... coordinates cover the m coordinates in ceil(log2(m + 1)) calls
    centre = np.linspace(0.25, 0.75, m)
    eval_batch = lambda U: -((U - centre) ** 2).sum(axis=1)  # noqa: E731
    record = {"calls": [], "pairs": 0}
    cfg = SearchConfig(max_sweeps=4, refine_halvings=0)
    u, _, diag = coordinate_ascent(eval_batch, np.ones(m), [centre], cfg, step=0.125, trials=_row_trials(eval_batch, record))
    assert u.tobytes() == centre.tobytes()
    assert len(record["calls"]) <= math.ceil(math.log2(m + 1))
    assert [len(c) for c in record["calls"][:-1]] == [2**k for k in range(len(record["calls"]) - 1)]
    assert sorted(i for c in record["calls"] for i in c) == list(range(m))
    assert record["pairs"] == diag["evaluations"] - 1
    # two starts without a trial batch: after the starts' call, the same
    # windows take ceil(log2(m + 1)) rounds; an exact bound answers every
    # trial, so its calls count the rounds, and the objective scores only the starts
    for bounded in (False, True):
        counter = _CallCounter(eval_batch)
        bound = _CallCounter(eval_batch) if bounded else None
        u, _, _ = coordinate_ascent(counter, np.ones(m), [centre, centre.copy()], cfg, step=0.125, trials=_bounded_trials(counter, bound))
        assert u.tobytes() == centre.tobytes()
        if bounded:
            assert (bound.calls, counter.calls) == (math.ceil(math.log2(m + 1)), 1)
        else:
            assert counter.calls == 1 + math.ceil(math.log2(m + 1))


def test_window_restarts_after_a_move():
    # every coordinate gains by one step up: each call holds one coordinate
    # whose move makes the others' scores stale, so the window never grows
    m = 6
    eval_batch = lambda U: U.sum(axis=1) - 2.0 * np.maximum(U - 0.25, 0.0).sum(axis=1)  # noqa: E731
    record = {"calls": [], "pairs": 0}
    cfg = SearchConfig(max_sweeps=1, refine_halvings=0)
    u, _, _ = coordinate_ascent(eval_batch, np.ones(m), [np.zeros(m)], cfg, step=0.25, trials=_row_trials(eval_batch, record))
    assert np.array_equal(u, np.full(m, 0.25))
    assert record["calls"] == [[i] for i in range(m)]


class _CallCounter(_RowCounter):
    def __init__(self, fn):
        super().__init__(fn)
        self.calls = 0

    def __call__(self, U):
        self.calls += 1
        return super().__call__(U)


@pytest.mark.parametrize("kind", ["exact", "loose", "nan"])
@pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "feasible"])
@pytest.mark.parametrize("quantized", [False, True], ids=["smooth", "quantized"])
def test_bounded_ascent_matches_reference(quantized, filtered, kind):
    rows = unbounded_rows = 0
    record = {"calls": 0, "crossed": 0}
    for seed in range(40):
        eval_batch, caps, starts, cfg, feasible = _ascent_case(seed, quantized, filtered)
        expected = _ascent_oracle(eval_batch, caps, starts, cfg, feasible)
        counter = _RowCounter(eval_batch)
        record["calls"] = 0
        windows = None if feasible is None else _feasible_windows(feasible, record)
        u, val, diag = coordinate_ascent(counter, caps, starts, cfg, windows, trials=_bounded_trials(counter, _bounds(eval_batch, kind)))
        assert u.tobytes() == expected[0].tobytes(), seed
        assert repr(val) == repr(expected[1]), seed
        assert diag == expected[2], seed
        unbounded = _RowCounter(eval_batch)
        coordinate_ascent(unbounded, caps, starts, cfg, feasible)
        rows += counter.rows
        unbounded_rows += unbounded.rows
    # an exact bound answers every row below the floor; a loose one some
    assert 0 < rows < unbounded_rows
    assert (record["crossed"] > 0) == filtered


def test_starts_that_meet_in_one_round_both_climb():
    # from 0 and from 1 both starts reach 0.5 in their first round, with
    # nothing known at 0.5 and five levels to go: neither has ended, so both
    # climb on, in lockstep, and each scores the rows it scores alone
    eval_batch = lambda U: -np.abs(U - 0.3).sum(axis=1)  # noqa: E731
    caps, starts = np.ones(1), [np.zeros(1), np.ones(1)]
    cfg = SearchConfig(levels=3, refine_halvings=6)
    expected = _ascent_oracle(eval_batch, caps, starts, cfg)
    unbounded = lambda U: np.full(len(U), np.inf)  # noqa: E731
    for bound in (unbounded, eval_batch):
        counter = _RowCounter(eval_batch)
        met = []

        def trials(points, owner, idx, ts, floors):
            met.append(len(points) == 2 and points[0].tobytes() == points[1].tobytes())
            return _bounded_trials(counter, bound)(points, owner, idx, ts, floors)

        u, val, diag = coordinate_ascent(counter, caps, starts, cfg, trials=trials)
        assert u.tobytes() == expected[0].tobytes()
        assert repr(val) == repr(expected[1])
        assert diag == expected[2]
        assert not met[0] and all(met[1:])
        alone = []
        for u0 in starts:
            single = _RowCounter(eval_batch)
            coordinate_ascent(single, caps, [u0], cfg, trials=_bounded_trials(single, bound))
            alone.append(single.rows)
        assert counter.rows == sum(alone)


@pytest.mark.parametrize("filtered", [False, True], ids=["unfiltered", "feasible"])
def test_ascent_calls_no_more_often_than_its_longest_start(filtered):
    calls = alone_calls = 0
    for seed in range(40):
        eval_batch, caps, starts, cfg, feasible = _ascent_case(seed, True, filtered)
        counter = _CallCounter(eval_batch)
        coordinate_ascent(counter, caps, starts, cfg, feasible)
        longest = total = 0
        for u0 in starts:
            single = _CallCounter(eval_batch)
            try:
                coordinate_ascent(single, caps, [u0], cfg, feasible)
            except ValueError:  # an infeasible start alone
                pass
            longest, total = max(longest, single.calls), total + single.calls
        assert counter.calls <= longest, seed
        calls += counter.calls
        alone_calls += total
    assert calls < alone_calls / 2


def test_bounded_ascent_refuses_a_score_above_its_bound():
    eval_batch = _tied_objective(np.random.default_rng(0), 2)
    cfg = SearchConfig(multistarts=3)
    starts = seeded_starts(np.ones(2), cfg)
    with pytest.raises(RuntimeError, match=r"^search score -?[0-9.]+ exceeds its upper bound"):
        coordinate_ascent(eval_batch, np.ones(2), starts, cfg, trials=_bounded_trials(eval_batch, lambda U: eval_batch(U) - 1e-9))
    # a NaN score under a bound that is not NaN breaks the bound too: the
    # starts are scored unbounded, so the first is the trial that moves the
    # start at the caps to u_0 = 0
    with pytest.raises(RuntimeError, match=r"^search score nan exceeds its upper bound 10\.0 at \[0\.0, 1\.0\]"):
        coordinate_ascent(_nan_corner, np.ones(2), starts, cfg, trials=_bounded_trials(_nan_corner, lambda U: np.full(len(U), 10.0)))


def _w_search_rows_scored(monkeypatch, ctx, f, cfg):
    """Rows `solve_w_search` scores with its bound and with a bound of +inf;
    both runs must give the same report."""
    rows, reports = {}, {}
    for bounded in (False, True):
        rows[bounded] = 0

        def objective(score, n, m, value=None, bound=None):
            def counted_score(V):
                rows[bounded] += len(V)
                return score(V)

            # unbounded: a bound of +inf skips no row
            return _search.Objective(counted_score, n, m, value, bound if bounded else lambda V: np.full(len(V), np.inf))

        monkeypatch.setattr(model_two, "Objective", objective)
        reports[bounded] = model_two.solve_w_search(ctx, f, cfg)
    assert repr(reports[True].profit) == repr(reports[False].profit)
    assert reports[True].optimal_price.values.tobytes() == reports[False].optimal_price.values.tobytes()
    assert reports[True].diagnostics == reports[False].diagnostics
    return rows[True], rows[False]


def test_w_search_ascent_scores_fewer_rows_with_its_bound(monkeypatch):
    region = sp.build_grid_region(7, 7, fixed_box=((0.3, 0.7), (0.3, 0.7)))
    ctx = model_two.PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(49, 0.4)))
    f = sp.CustomerMeasure(np.random.default_rng(3).uniform(0.5, 1.5, 49))
    bounded, unbounded = _w_search_rows_scored(monkeypatch, ctx, f, SearchConfig(levels=6, multistarts=4, seed=3))
    assert 0 < bounded < 0.6 * unbounded


def test_w_search_exhaustive_scores_fewer_rows_with_its_bound(monkeypatch):
    ctx, f = _window(9)
    cfg = SearchConfig(mode=SearchMode.EXHAUSTIVE, levels=5)
    bounded, unbounded = _w_search_rows_scored(monkeypatch, ctx, f, cfg)
    assert 0 < bounded < 0.6 * unbounded


def test_first_max_keeps_numpy_argmax_rules():
    # the first NaN wins, and the first of equal largest values
    cases = [
        [1.0, math.nan, 2.0, math.nan],
        [math.nan],
        [3.0, 1.0, 3.0],
        [-math.inf, -math.inf],
        [0.0, -0.0],
        [-0.0, 0.0],
        [2.0, math.inf, 5.0, math.inf, math.nan],
    ]
    rng = np.random.default_rng(0)
    for _ in range(300):
        vals = rng.integers(0, 4, int(rng.integers(1, 8))).astype(float)
        vals[rng.uniform(size=vals.size) < 0.15] = math.nan
        cases.append(vals.tolist())
    for vals in cases:
        assert _search._first_max(vals) == int(np.argmax(vals)), vals
    assert _search._first_max([1.0, math.nan, 2.0, math.nan]) == 1
    assert _search._first_max([3.0, 1.0, 3.0]) == 0


# Trial value maps: one-coordinate moves valued from their start's point


def _trial_requests(rng, m, quantum, count):
    """(points, owner, idx, ts) of `count` trials at a few points on a price
    grid of step `quantum`, as the ascent asks for them."""
    points = quantum * rng.integers(0, 9, (int(rng.integers(1, 5)), m)).astype(float)
    owner = np.sort(rng.integers(0, len(points), count))
    idx = rng.integers(0, m, count)
    ts = quantum * rng.integers(0, 9, count).astype(float)
    return points, owner, idx, ts


def _assert_trial_values(value, points, owner, idx, ts):
    dense = value(_search._trial_rows(points, owner, idx, ts))
    got = value.trials(points, owner, idx, ts)
    assert got.tobytes() == dense.tobytes()


@pytest.mark.parametrize("seed", range(30))
def test_trial_value_maps_are_the_dense_maps_bytes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    d = 1 + seed % 2  # a 1D table, or a 2D grid's
    region = sp.build_grid_region(n, 3) if d == 2 else sp.build_interval_region(n, 0.0, 1.0)
    kernel = (sp.CostKernel.metric(1.0), sp.CostKernel.quadratic())[seed // 2 % 2]
    cost = sp.eval_cost(kernel, region)
    cols = cost[:, np.sort(rng.choice(cost.shape[1], int(rng.integers(1, cost.shape[1] + 1)), replace=False))]
    m = cols.shape[1]
    # model one's clamp, binding on some columns, +inf (no clamp) on others
    clamp = np.where(rng.uniform(size=m) < 0.3, np.inf, 0.125 * rng.integers(0, 6, m))
    for value in (sp._search.ValueMap(cols), sp._search.ValueMap(cols, clamp=clamp)):
        # prices on a coarse grid tie offers exactly; off the grid they rarely tie
        for quantum in (0.125, float(rng.uniform(0.01, 0.2))):
            _assert_trial_values(value, *_trial_requests(rng, m, quantum, int(rng.integers(1, 60))))


def test_trial_value_maps_with_exact_ties_and_one_column():
    # a moved column that is some rows' cheapest while another column ties it
    # (j1 == i and m2 == m1), and a table of one column, where m2 is +inf
    cols = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.5], [1.0, 0.0, 0.0]])
    value = _search.ValueMap(cols)
    u = np.zeros(3)
    j1, m1, m2 = value._state(u)
    assert ((m2 == m1) & (j1 == 0)).any()
    idx = np.repeat(np.arange(3), 4)
    ts = np.tile([0.0, 0.25, 0.5, 2.0], 3)
    _assert_trial_values(value, u[None], np.zeros(12, dtype=np.intp), idx, ts)
    one = _search.ValueMap(cols[:, :1], clamp=np.array([0.3]))
    _assert_trial_values(one, np.array([[0.1], [0.7]]), np.array([0, 0, 1, 1]), np.zeros(4, dtype=np.intp), np.array([0.0, 0.2, 0.4, 1.0]))
    assert np.isinf(one._state(np.array([0.1]))[2]).all()


def test_trial_value_maps_keep_the_states_of_the_last_call(monkeypatch):
    # 100 points, some repeated: one dense pass per distinct point new to the
    # value map; the states kept are those of the last call's points
    rng = np.random.default_rng(5)
    cols = rng.uniform(0.0, 1.0, (7, 5))
    value = _search.ValueMap(cols, clamp=rng.uniform(0.2, 0.8, 5))
    passes = []
    dense_state = _search.ValueMap._state
    monkeypatch.setattr(_search.ValueMap, "_state", lambda self, u: passes.append(u.tobytes()) or dense_state(self, u))
    points = 0.1 * rng.integers(0, 9, (100, 5))
    points[90:] = points[:10]
    keys = {p.tobytes() for p in points}

    def call(points):
        passes.clear()
        owner = np.repeat(np.arange(len(points)), 3)
        idx = rng.integers(0, 5, len(owner))
        ts = 0.1 * rng.integers(0, 9, len(owner))
        _assert_trial_values(value, points, owner, idx, ts)
        assert set(value._states) == {p.tobytes() for p in points}
        return list(passes)

    assert sorted(call(points)) == sorted(keys)
    assert call(points) == []
    # other points: two of the last call's, whose states are kept, and three new ones
    other = np.concatenate([points[[3, 95]], 0.1 * rng.integers(0, 9, (3, 5)) + 0.05])
    assert call(other) == [p.tobytes() for p in other[2:]]
    assert sorted(call(points)) == sorted(keys - {p.tobytes() for p in other[:2]})


def test_objective_trials_answer_rows_below_the_floor_with_their_bound():
    ctx, f = _window(21)
    scored = {"rows": 0}
    score = ct._generator_score(ctx.cost[:, ctx.free], ctx.v0, f.weights, ctx.tol)

    def counted(V):
        scored["rows"] += len(V)
        return score(V)

    objective = model_two._batch_subregion_profit(ctx, f.weights, ctx.tol)
    dense = plain_objective(score, *ctx.cost[:, ctx.free].shape, _search.ValueMap(ctx.cost[:, ctx.free]))
    rng = np.random.default_rng(2)
    points, owner, idx, ts = _trial_requests(rng, ctx.free.size, 0.05, 200)
    expected = dense.trials(points, owner, idx, ts, None)
    # with no floor every trial is scored, bit for bit
    got = objective.trials(points, owner, idx, ts, np.full(len(ts), -np.inf))
    assert got.tobytes() == expected.tobytes()
    # a floor at the median: a trial above it is scored, one below may be answered by its bound
    bounded = _search.Objective(counted, *ctx.cost[:, ctx.free].shape, _search.ValueMap(ctx.cost[:, ctx.free]), ct._generator_bound(ctx.cost[:, ctx.free], ctx.v0, f.weights, ctx.tol))
    floors = np.full(len(ts), float(np.median(expected)))
    got = bounded.trials(points, owner, idx, ts, floors)
    above = expected > floors
    assert np.array_equal(got[above], expected[above])
    assert (got[~above] <= floors[~above]).all() and (got >= expected).all()
    assert 0 < scored["rows"] < len(ts)


def test_objective_trials_stay_within_their_cell_budget(monkeypatch):
    # a round of 2000 trials, as the last windows of a still sweep ask: under
    # a budget of 8 score rows each slice values and bounds at most
    # BLOCK_CELLS // n trials and scores at most BLOCK_CELLS // (n m), with
    # the answers of one unsliced call
    ctx, f = _window(21)
    cols = ctx.cost[:, ctx.free]
    n, m = cols.shape
    args = (cols, ctx.v0, f.weights, ctx.tol)
    points, owner, idx, ts = _trial_requests(np.random.default_rng(4), m, 0.05, 2000)
    sizes = {"value": [], "bound": [], "score": []}

    def counted(kind, fn):
        return lambda V: sizes[kind].append(len(V)) or fn(V)

    def objective():
        return _search.Objective(counted("score", ct._generator_score(*args)), n, m, _search.ValueMap(cols), counted("bound", ct._generator_bound(*args)))

    expected = objective().trials(points, owner, idx, ts, np.full(len(ts), -np.inf))
    floors = np.full(len(ts), float(np.median(expected)))
    sizes["bound"].clear()
    unsliced = objective().trials(points, owner, idx, ts, floors)
    assert sizes["bound"] == [len(ts)]
    value_trials = _search.ValueMap.trials

    def recorded(self, points, owner, idx, ts):
        sizes["value"].append(len(ts))
        return value_trials(self, points, owner, idx, ts)

    monkeypatch.setattr(_search.ValueMap, "trials", recorded)
    monkeypatch.setattr(geometry, "BLOCK_CELLS", 8 * n * m)
    for kind in sizes:
        sizes[kind].clear()
    got = objective().trials(points, owner, idx, ts, floors)
    assert got.tobytes() == unsliced.tobytes()
    assert max(sizes["value"]) == max(sizes["bound"]) == 8 * m and sum(sizes["value"]) == len(ts)
    assert max(sizes["score"]) <= 8 and 0 < sum(sizes["score"]) < len(ts)


def test_boundary_control_ascent_matches_the_oracle(monkeypatch):
    # the fallback ascent: interface prices that must stay 1-Lipschitz
    region = sp.build_grid_region(7, 7, fixed_box=((0.2, 0.8), (0.2, 0.8)))
    ctx = model_two.PartitionContext.build(region, sp.CostKernel.metric(1.0), sp.PricePattern(np.full(49, 0.6)))
    f = sp.CustomerMeasure(np.random.default_rng(4).uniform(0.5, 1.5, 49))
    cfg = SearchConfig(levels=4, multistarts=4)
    with monkeypatch.context() as patch:
        patch.setattr(model_two, "coordinate_ascent", _ascent_oracle)
        expected = model_two.solve_boundary_control(ctx, f, cfg)
    record = _capture_ascent(monkeypatch, model_two)
    report = model_two.solve_boundary_control(ctx, f, cfg)
    assert report.diagnostics["mode"] == "ascent"
    assert repr(report.profit) == repr(expected.profit)
    assert report.optimal_price.values.tobytes() == expected.optimal_price.values.tobytes()
    assert report.diagnostics == expected.diagnostics
    assert 0 < record["counter"].rows < report.diagnostics["evaluations"]
