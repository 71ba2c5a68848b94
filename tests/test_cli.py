import csv
import dataclasses
import json
import re

import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import model_one
from spatial_pricing._search import BudgetExceededError
from spatial_pricing.cli import EXIT_BUDGET, EXIT_OK, EXIT_SELF_CHECK, EXIT_VALIDATION, compare, main, run
from spatial_pricing.ctransform import NotCConcaveError
from spatial_pricing.model_one import profit_from_prices
from spatial_pricing.scenario import METHODS, ScenarioError, load_scenario


def write_scenario(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def quadratic_reference_scenario(n=41):
    x = np.linspace(0, 1, n)
    return {
        "model": "one",
        "region": {"dimension": 1, "n": n, "bounds": [0, 1]},
        "cost": {"kind": "quadratic"},
        "measure": {"kind": "uniform"},
        "prices": {"p0": {"kind": "per_point", "values": list(x - x**2 / 2)}},
        "solver": {"method": "quadratic_reference"},
    }


def window_scenario(p0=0.4, n=101):
    return {
        "model": "two",
        "region": {"dimension": 1, "n": n, "bounds": [0, 1], "fixed_window": [0.0, 1.0]},
        "cost": {"kind": "metric_power", "alpha": 1.0},
        "measure": {"kind": "uniform"},
        "fixed_price": {"kind": "constant", "value": p0},
        "solver": {"method": "one_d"},
    }


def read_series(out_dir):
    with open(out_dir / "series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestRun:
    def test_quadratic_reference_series(self, tmp_path):
        path = write_scenario(tmp_path, "quad.json", quadratic_reference_scenario())
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_OK
        header, rows = read_series(out)
        xcol, pcol = header.index("x"), header.index("price")
        x = np.array([float(r[xcol]) for r in rows])
        p = np.array([float(r[pcol]) for r in rows])
        assert np.allclose(p, x / 2 - x**2 / 4, atol=1e-12)
        result = json.loads((out / "result.json").read_text())
        assert result["model"] == "one"
        assert result["summary"]["method"] == "quadratic_1d_reference"

    def test_interval_window_summary(self, tmp_path):
        path = write_scenario(tmp_path, "win.json", window_scenario(0.4))
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        assert np.isclose(result["summary"]["p1"], 0.2)
        assert np.isclose(result["summary"]["p2"], 0.2)
        assert abs(result["summary"]["profit"] - 0.08) <= 0.01

    def test_one_d_objective_scales_with_the_uniform_mass(self, tmp_path):
        summaries = []
        for mass in (1.0, 2.0):
            scen = window_scenario(0.4)
            scen["region"]["fixed_window"] = [0.3, 0.7]
            scen["measure"]["mass"] = mass
            out = tmp_path / f"out{mass}"
            assert run(write_scenario(tmp_path, f"mass{mass}.json", scen), str(out)) == EXIT_OK
            summaries.append(json.loads((out / "result.json").read_text())["summary"])
        one, two = summaries
        assert (two["p1"], two["p2"]) == (one["p1"], one["p2"])
        assert two["objective_two_term"] == 2 * one["objective_two_term"]
        assert two["profit"] == pytest.approx(2 * one["profit"])

    @pytest.mark.parametrize("method", ["general_search", "one_d", "w_search", "boundary_control"])
    @pytest.mark.parametrize(
        "measure", [{"kind": "uniform", "mass": 0.0}, {"kind": "weights", "values": [0.0] * 21}], ids=["uniform", "weights"]
    )
    def test_zero_mass_measure_exits_2(self, tmp_path, capsys, method, measure):
        if method == "general_search":
            scen = {"model": "one", "region": {"dimension": 1, "n": 21}, "cost": {"kind": "metric_power", "alpha": 1.0},
                    "prices": {"p0": {"kind": "constant", "value": 1.0}}}
            search = {"levels": 2, "multistarts": 1}
        else:
            scen = window_scenario(0.4, n=21)
            scen["region"]["fixed_window"] = [0.3, 0.7]
            search = {"mode": "exhaustive", "levels": 2, "grid_n": 5}
        scen["measure"] = measure
        scen["solver"] = {"method": method, "search": search}
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, "massless.json", scen), str(out)) == EXIT_VALIDATION
        assert "the customer measure must have positive mass" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_scenario_writes_nothing(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"model": "five"}')
        out = tmp_path / "out"
        assert run(str(path), str(out)) == EXIT_VALIDATION
        assert not out.exists()

    def test_budget_refusal_exit_code(self, tmp_path):
        scen = {
            "model": "one",
            "region": {"dimension": 1, "n": 15, "bounds": [0, 1]},
            "cost": {"kind": "metric_power", "alpha": 1.0},
            "measure": {"kind": "uniform"},
            "prices": {"p0": {"kind": "constant", "value": 1.0}},
            "solver": {"method": "general_search", "search": {"mode": "exhaustive", "levels": 8, "max_candidates": 1000}},
        }
        path = write_scenario(tmp_path, "big.json", scen)
        assert run(path, str(tmp_path / "o")) == EXIT_BUDGET

    def test_nash_trace_and_summary(self, tmp_path):
        scen = {
            "model": "nash",
            "region": {"dimension": 1, "n": 21, "bounds": [0, 1]},
            "cost": {"kind": "metric_power", "alpha": 1.0},
            "measure": {"kind": "uniform"},
            "game": {"split": 0.5, "rounds": 20, "eps": 1e-9, "grid_n": 30, "verify": True},
        }
        path = write_scenario(tmp_path, "game.json", scen)
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        assert result["summary"]["converged"] is True
        assert result["summary"]["is_equilibrium"] is True
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "player", "sup_delta", "payoff"]
        assert len(rows) == 2 * result["summary"]["rounds_used"] + 1

    def test_determinism_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, "win.json", window_scenario(0.4))
        run(path, str(tmp_path / "a"))
        run(path, str(tmp_path / "b"))
        for name in ("result.json", "series.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_round_trip_revalidation(self, tmp_path):
        # reloading the emitted series reproduces the reported profit and
        # respects feasibility against the scenario inputs
        scen = {
            "model": "one",
            "region": {"dimension": 1, "n": 21, "bounds": [0, 1]},
            "cost": {"kind": "metric_power", "alpha": 1.0},
            "measure": {"kind": "uniform"},
            "prices": {"p0": {"kind": "constant", "value": 1.5}},
            "solver": {"method": "metric_closed_form"},
        }
        path = write_scenario(tmp_path, "m.json", scen)
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_OK
        header, rows = read_series(out)
        p = np.array([float(r[header.index("price")]) for r in rows])
        region = sp.build_interval_region(21, 0.0, 1.0)
        assert (p <= 1.5 + 1e-12).all()
        recomputed = profit_from_prices(
            sp.PricePattern(p), sp.CostKernel.metric(1.0), region, sp.CustomerMeasure.uniform(21)
        )
        reported = json.loads((out / "result.json").read_text())["summary"]["profit"]
        assert np.isclose(recomputed, reported)

    def test_format_flag(self, tmp_path):
        path = write_scenario(tmp_path, "win.json", window_scenario(0.4))
        out = tmp_path / "s"
        assert run(path, str(out), fmt="structured") == EXIT_OK
        assert (out / "result.json").exists() and not (out / "series.csv").exists()
        out2 = tmp_path / "c"
        assert run(path, str(out2), fmt="csv") == EXIT_OK
        assert (out2 / "series.csv").exists() and not (out2 / "result.json").exists()


class TestCompare:
    def test_interval_methods_agree(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "win.json", window_scenario(0.4, n=41))
        assert compare(path, ["one_d", "w_search", "boundary_control"]) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 4  # header + three methods
        profits = [float(l.split()[1]) for l in lines[1:]]
        assert max(profits) - min(profits) <= 0.02

    def test_metric_methods_agree(self, tmp_path, capsys):
        scen = {
            "model": "one",
            "region": {"dimension": 1, "n": 9, "bounds": [0, 1]},
            "cost": {"kind": "metric_power", "alpha": 1.0},
            "measure": {"kind": "uniform"},
            "prices": {"p0": {"kind": "constant", "value": 1.0}},
            "solver": {"search": {"levels": 8, "multistarts": 8}},
        }
        path = write_scenario(tmp_path, "m.json", scen)
        assert compare(path, ["metric_closed_form", "general_search"]) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        profits = [float(l.split()[1]) for l in lines[1:]]
        assert abs(profits[0] - profits[1]) <= 2.0 * 1.0 / 8

    def test_single_method_table(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "win.json", window_scenario(0.4))
        assert compare(path, ["one_d"]) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2

    def test_inapplicable_method_rejected(self, tmp_path):
        path = write_scenario(tmp_path, "win.json", window_scenario(0.4))
        assert compare(path, ["metric_closed_form"]) == EXIT_VALIDATION

    def test_solver_error_uses_run_exit_code(self, tmp_path):
        scen = window_scenario(0.4, n=21)
        scen["measure"] = {"kind": "weights", "values": [0.0] * 21}
        path = write_scenario(tmp_path, "massless.json", scen)
        assert run(path, str(tmp_path / "out")) == EXIT_VALIDATION
        assert compare(path, ["w_search"]) == EXIT_VALIDATION


class TestScenarioValidation:
    def test_model_method_compatibility(self, tmp_path):
        payload = window_scenario(0.4)
        payload["solver"]["method"] = "general_search"
        path = write_scenario(tmp_path, "bad.json", payload)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_infinite_bound_tokens(self, tmp_path):
        scen = {
            "model": "one",
            "region": {"dimension": 1, "n": 3, "bounds": [0, 1]},
            "cost": {"kind": "metric_power", "alpha": 1.0},
            "measure": {"kind": "uniform"},
            "prices": {"p0": {"kind": "per_point", "values": [1.0, "+inf", "+inf"]}},
        }
        path = write_scenario(tmp_path, "inf.json", scen)
        sc = load_scenario(path)
        assert np.isinf(sc.p0.values[1])

    def test_quadratic_reference_requires_matching_bound(self, tmp_path):
        payload = quadratic_reference_scenario()
        payload["prices"]["p0"] = {"kind": "constant", "value": 1.0}
        path = write_scenario(tmp_path, "q.json", payload)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_weights_length_checked(self, tmp_path):
        payload = window_scenario(0.4)
        payload["measure"] = {"kind": "weights", "values": [1.0, 2.0]}
        path = write_scenario(tmp_path, "w.json", payload)
        with pytest.raises(ScenarioError):
            load_scenario(path)

    def test_nash_explicit_masks(self, tmp_path):
        n = 11
        a = [True] * 6 + [False] * 5
        b = [False] * 5 + [True] * 6
        scen = {
            "model": "nash",
            "region": {"dimension": 1, "n": n, "bounds": [0, 1]},
            "cost": {"kind": "metric_power", "alpha": 1.0},
            "measure": {"kind": "uniform"},
            "game": {"masks": {"a": a, "b": b}, "rounds": 15, "eps": 1e-9, "grid_n": 20},
        }
        path = write_scenario(tmp_path, "masks.json", scen)
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_OK
        header, rows = read_series(out)
        regions = [r[header.index("region")] for r in rows]
        assert regions[0] == "A" and regions[-1] == "B" and "AB" in regions

    def test_2d_region_scenario_loads(self, tmp_path):
        scen = {
            "model": "two",
            "region": {"dimension": 2, "nx": 5, "ny": 5, "bounds": [[0, 1], [0, 1]], "fixed_box": [[0.2, 0.8], [0.2, 0.8]]},
            "cost": {"kind": "metric_power", "alpha": 1.0},
            "measure": {"kind": "uniform"},
            "fixed_price": {"kind": "constant", "value": 0.5},
            "solver": {"method": "w_search", "search": {"levels": 4, "multistarts": 4}},
        }
        path = write_scenario(tmp_path, "grid.json", scen)
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_OK
        header, rows = read_series(out)
        assert "y" in header
        assert len(rows) == 25


def general_search_scenario():
    return {
        "model": "one",
        "region": {"dimension": 1, "n": 5, "bounds": [0, 1]},
        "cost": {"kind": "metric_power", "alpha": 1.0},
        "measure": {"kind": "uniform"},
        "prices": {"p0": {"kind": "constant", "value": 1.0}},
        "solver": {"method": "general_search", "search": {"mode": "exhaustive", "levels": 3}},
    }


class TestWronglyTypedValues:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s["prices"]["p0"].update(value=None),
            lambda s: s["solver"]["search"].update(levels=None),
            lambda s: s["region"].update(n=[3]),
            lambda s: s.update(model=["one"]),
            lambda s: s.update(solver=[1]),
            # json reads 1e400 as an infinity, which no count can hold
            lambda s: s["region"].update(n=1e400),
            lambda s: s.update(seed=1e400),
            lambda s: s.update(model="nash", solver={}, game={"split": 0.5, "rounds": 1e400}),
            # bool("false") and bool(0.5) are both True
            lambda s: s.update(model="nash", solver={}, game={"split": 0.5, "verify": "false"}),
            lambda s: s.update(model="nash", solver={}, game={"split": 0.5, "verify": 0.5}),
            lambda s: s.update(model="nash", solver={}, game={"split": "abc"}),
            lambda s: s.update(model="nash", solver={}, game={"split": float("nan")}),
            lambda s: s.update(model="nash", solver={}, game={"split": float("inf")}),
            lambda s: s.update(model="nash", solver={}, game={"split": float("-inf")}),
        ],
        ids=[
            "null_value",
            "null_levels",
            "list_n",
            "list_model",
            "list_solver",
            "inf_n",
            "inf_seed",
            "inf_rounds",
            "string_verify",
            "number_verify",
            "string_split",
            "nan_split",
            "inf_split",
            "minus_inf_split",
        ],
    )
    def test_exit_2_and_nothing_written(self, tmp_path, edit):
        scen = general_search_scenario()
        edit(scen)
        path = write_scenario(tmp_path, "typed.json", scen)
        with pytest.raises(ScenarioError):
            load_scenario(path)
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_VALIDATION
        assert not out.exists()

    def test_type_error_inside_a_solver_is_not_a_scenario_error(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("defect inside the solver")

        monkeypatch.setattr(model_one, "solve_general", broken)
        path = write_scenario(tmp_path, "ok.json", general_search_scenario())
        with pytest.raises(TypeError, match="defect inside the solver"):
            run(path, str(tmp_path / "out"))


def boundary_control_scenario():
    return {
        "model": "two",
        "region": {"dimension": 1, "n": 11, "bounds": [0, 1], "fixed_window": [0.3, 0.7]},
        "cost": {"kind": "metric_power", "alpha": 1.0},
        "measure": {"kind": "uniform"},
        "fixed_price": {"kind": "constant", "value": 0.5},
        "solver": {"method": "boundary_control", "search": {"grid_n": 11}},
    }


def grid_scenario():
    return {
        "model": "one",
        "region": {"dimension": 2, "nx": 5, "ny": 5},
        "cost": {"kind": "metric_power", "alpha": 1.0},
        "measure": {"kind": "uniform"},
        "prices": {"p0": {"kind": "constant", "value": 1.0}},
        "solver": {"method": "metric_closed_form"},
    }


def grid_box_scenario():
    return {
        "model": "two",
        "region": {"dimension": 2, "nx": 5, "ny": 5, "fixed_box": [[0.2, 0.8], [0.2, 0.8]]},
        "cost": {"kind": "metric_power", "alpha": 1.0},
        "measure": {"kind": "uniform"},
        "fixed_price": {"kind": "constant", "value": 0.5},
        "solver": {"method": "w_search", "search": {"mode": "exhaustive", "levels": 2}},
    }


def nash_scenario():
    return {
        "model": "nash",
        "region": {"dimension": 1, "n": 11, "bounds": [0, 1]},
        "cost": {"kind": "metric_power", "alpha": 1.0},
        "measure": {"kind": "uniform"},
        "game": {"split": 0.5, "rounds": 2, "grid_n": 20},
    }


class TestOutOfRangeCounts:
    @pytest.mark.parametrize(
        "scenario, edit",
        [
            (nash_scenario, lambda s: s["game"].update(grid_n=0)),
            (nash_scenario, lambda s: s["game"].update(grid_n=-5)),
            (boundary_control_scenario, lambda s: s["solver"]["search"].update(grid_n=-2)),
            (general_search_scenario, lambda s: s["solver"]["search"].update(levels=-3)),
            (general_search_scenario, lambda s: s["solver"]["search"].update(max_candidates=0)),
            (general_search_scenario, lambda s: s["solver"]["search"].update(levels=2.5)),
            (nash_scenario, lambda s: s["game"].update(rounds=2.7)),
            (general_search_scenario, lambda s: s["solver"]["search"].update(multistarts=2.7)),
            (general_search_scenario, lambda s: s["solver"]["search"].update(multistarts=0)),
            (general_search_scenario, lambda s: s["solver"]["search"].update(multistarts=-3)),
            (boundary_control_scenario, lambda s: s["region"].update(n=11.7)),
            (grid_scenario, lambda s: s["region"].update(nx=5.5)),
        ],
        ids=[
            "zero_game_grid_n",
            "negative_game_grid_n",
            "negative_grid_n",
            "negative_levels",
            "zero_max_candidates",
            "fractional_levels",
            "fractional_rounds",
            "fractional_multistarts",
            "zero_multistarts",
            "negative_multistarts",
            "fractional_n",
            "fractional_nx",
        ],
    )
    def test_exit_2_and_nothing_written(self, tmp_path, scenario, edit):
        scen = scenario()
        path = write_scenario(tmp_path, "counts.json", scen)
        assert run(path, str(tmp_path / "unedited")) == EXIT_OK
        edit(scen)
        path = write_scenario(tmp_path, "counts.json", scen)
        with pytest.raises(ScenarioError, match="must be an integer >= 1"):
            load_scenario(path)
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize("seed", [1.5, -1], ids=["fractional_seed", "negative_seed"])
    def test_seed_must_be_an_integer_at_least_0(self, tmp_path, seed):
        scen = general_search_scenario()
        scen["seed"] = seed
        path = write_scenario(tmp_path, "seed.json", scen)
        with pytest.raises(ScenarioError, match=re.escape(f"scenario.seed: must be an integer >= 0, got {seed!r}")):
            load_scenario(path)
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_VALIDATION
        assert not out.exists()

    def test_seed_override_is_checked_like_the_seed(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "seed.json", general_search_scenario())
        with pytest.raises(ScenarioError, match=re.escape("--seed: must be an integer >= 0, got -1")):
            load_scenario(path, seed_override=-1)
        out = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out), "--seed", "-1"]) == EXIT_VALIDATION
        assert "--seed: must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


NAN, NEG_INF = float("nan"), float("-inf")  # json writes them as NaN and -Infinity


class TestNonRealPricesAndCaps:
    @pytest.mark.parametrize(
        "scenario, edit, message",
        [
            (general_search_scenario, lambda s: s["prices"]["p0"].update(value=NAN), "prices.p0: prices must be real numbers or +inf"),
            (general_search_scenario, lambda s: s["prices"]["p0"].update(value=NEG_INF), "prices.p0: prices must be real numbers or +inf"),
            (
                general_search_scenario,
                lambda s: s["prices"].update(p0={"kind": "per_point", "values": [1.0, NAN, "+inf", 1.0, 1.0]}),
                "prices.p0: prices must be real numbers or +inf",
            ),
            (boundary_control_scenario, lambda s: s["fixed_price"].update(value=NAN), "fixed_price: prices must be real numbers or +inf"),
            (boundary_control_scenario, lambda s: s["fixed_price"].update(value=NEG_INF), "fixed_price: prices must be real numbers or +inf"),
            (nash_scenario, lambda s: s["game"].update(init_p={"kind": "constant", "value": NAN}), "game.init_p: prices must be real numbers or +inf"),
            (nash_scenario, lambda s: s["game"].update(init_q={"kind": "constant", "value": NEG_INF}), "game.init_q: prices must be real numbers or +inf"),
            (general_search_scenario, lambda s: s["solver"]["search"].update(price_cap=-1.0), "solver.search.price_cap: must be a finite number >= 0"),
            (general_search_scenario, lambda s: s["solver"]["search"].update(price_cap=NAN), "solver.search.price_cap: must be a finite number >= 0"),
            (nash_scenario, lambda s: s["game"].update(price_cap=-0.5), "game.price_cap: must be a finite number >= 0"),
            (nash_scenario, lambda s: s["game"].update(eps=NAN), "game.eps: must be a finite number >= 0"),
            (nash_scenario, lambda s: s["game"].update(eps=-1), "game.eps: must be a finite number >= 0"),
            (nash_scenario, lambda s: s["game"].update(split="abc"), "game.split: must be a finite number, got 'abc'"),
            (nash_scenario, lambda s: s["game"].update(split=NAN), "game.split: must be a finite number, got nan"),
            (general_search_scenario, lambda s: s["prices"]["p0"].update(value="abc"), "prices.p0: unknown price token 'abc'"),
            (boundary_control_scenario, lambda s: s["fixed_price"].update(value="0.7"), "fixed_price: unknown price token '0.7'"),
            (
                general_search_scenario,
                lambda s: s["prices"].update(p0={"kind": "per_point", "values": [1.0, True, "+inf", 1.0, 1.0]}),
                "prices.p0: unknown price token True",
            ),
            (
                boundary_control_scenario,
                lambda s: s["region"].update(fixed_window=["abc", 0.7]),
                "region.fixed_window.alpha: must be a finite number, got 'abc'",
            ),
            (
                boundary_control_scenario,
                lambda s: s["region"].update(fixed_window=[0.3, NAN]),
                "region.fixed_window.beta: must be a finite number, got nan",
            ),
            (general_search_scenario, lambda s: s["measure"].update(mass=-1), "measure.mass: must be a finite number >= 0, got -1"),
            (general_search_scenario, lambda s: s["measure"].update(mass="x"), "measure.mass: must be a finite number >= 0, got 'x'"),
            # float("0.5") would run, and float("abc") raised without naming the key
            (general_search_scenario, lambda s: s["cost"].update(alpha="0.5"), "cost.alpha: must be a finite number, got '0.5'"),
            (general_search_scenario, lambda s: s["cost"].update(alpha="abc"), "cost.alpha: must be a finite number, got 'abc'"),
            (general_search_scenario, lambda s: s["region"].update(bounds=["abc", 1]), "region.bounds[0]: must be a finite number, got 'abc'"),
            # a NaN end used to be refused as "a < b"
            (general_search_scenario, lambda s: s["region"].update(bounds=[NAN, 1]), "region.bounds[0]: must be a finite number, got nan"),
            (grid_scenario, lambda s: s["region"].update(bounds=[[0, 1], [0, "1"]]), "region.bounds[1][1]: must be a finite number, got '1'"),
            (grid_scenario, lambda s: s["region"].update(bounds=[[NAN, 1], [0, 1]]), "region.bounds[0][0]: must be a finite number, got nan"),
            (grid_box_scenario, lambda s: s["region"].update(fixed_box=[[0.2, "abc"], [0.2, 0.8]]), "region.fixed_box[0][1]: must be a finite number, got 'abc'"),
            (grid_box_scenario, lambda s: s["region"].update(fixed_box=[[0.2, 0.8], [NAN, 0.8]]), "region.fixed_box[1][0]: must be a finite number, got nan"),
            (grid_scenario, lambda s: s["region"].update(bounds=[0, 1]), "region.bounds[0]: must be a list of two numbers, got 0"),
            # mask entries were read by truthiness: "no" put point 2 in both regions
            (
                nash_scenario,
                lambda s: (s["region"].update(n=5), s["game"].update(masks={"a": ["yes", "yes", "yes", 0, 0], "b": [0, 0, "no", 1, 2.5]})),
                "game.masks.a: entries must be true or false, got 'yes'",
            ),
            (
                nash_scenario,
                lambda s: (s["region"].update(n=5), s["game"].update(masks={"a": [True, True, True, False, False], "b": [False, False, "no", True, True]})),
                "game.masks.b: entries must be true or false, got 'no'",
            ),
            (
                nash_scenario,
                lambda s: s["game"].update(masks={"a": [1] * 6 + [0] * 5, "b": [False] * 5 + [True] * 6}),
                "game.masks.a: entries must be true or false, got 1",
            ),
            # np.asarray(..., dtype=float) read numeric strings as numbers
            (general_search_scenario, lambda s: s.update(measure={"kind": "weights", "values": ["0.2"] * 5}), "measure.values: entries must be numbers, got '0.2'"),
            (general_search_scenario, lambda s: s.update(measure={"kind": "weights", "values": [0.2, True, 0.2, 0.2, 0.2]}), "measure.values: entries must be numbers, got True"),
            (
                general_search_scenario,
                lambda s: s.update(cost={"kind": "custom_table", "values": [[str(abs(i - j)) for j in range(5)] for i in range(5)]}),
                "cost.values[0]: entries must be numbers, got '0'",
            ),
            (
                general_search_scenario,
                lambda s: s.update(cost={"kind": "custom_table", "values": [[False if (i, j) == (1, 2) else abs(i - j) for j in range(5)] for i in range(5)]}),
                "cost.values[1]: entries must be numbers, got False",
            ),
            (general_search_scenario, lambda s: s.update(cost={"kind": "custom_table", "values": [0, 1]}), "cost.values: custom_table needs a square list of rows"),
            (
                general_search_scenario,
                lambda s: s.update(cost={"kind": "custom_table", "values": [[abs(i - j) for j in range(5 if i != 1 else 3)] for i in range(5)]}),
                "cost.values: custom_table needs a square list of rows",
            ),
            # True == 1, so a bool dimension ran as a 1D region
            (window_scenario, lambda s: s["region"].update(dimension=True), "region: unsupported dimension True"),
            (window_scenario, lambda s: s["region"].update(dimension="1"), "region: unsupported dimension '1'"),
            (window_scenario, lambda s: s["region"].update(dimension=3), "region: unsupported dimension 3"),
        ],
        ids=[
            "nan_bound",
            "minus_inf_bound",
            "nan_per_point_bound",
            "nan_fixed_price",
            "minus_inf_fixed_price",
            "nan_init_p",
            "minus_inf_init_q",
            "negative_search_cap",
            "nan_search_cap",
            "negative_game_cap",
            "nan_eps",
            "negative_eps",
            "word_split",
            "nan_split",
            "word_price",
            "string_number_price",
            "bool_per_point_price",
            "word_window_end",
            "nan_window_end",
            "negative_mass",
            "word_mass",
            "string_number_alpha",
            "word_alpha",
            "word_bound_1d",
            "nan_bound_1d",
            "string_number_bound_2d",
            "nan_bound_2d",
            "word_fixed_box",
            "nan_fixed_box",
            "flat_bounds_2d",
            "word_masks_a",
            "word_masks_b",
            "integer_masks",
            "string_number_weights",
            "bool_weight",
            "string_number_cost_table",
            "bool_cost_entry",
            "flat_cost_table",
            "ragged_cost_table",
            "bool_dimension",
            "string_number_dimension",
            "three_dimension",
        ],
    )
    def test_exit_2_names_the_key_and_nothing_written(self, tmp_path, scenario, edit, message):
        scen = scenario()
        edit(scen)
        path = write_scenario(tmp_path, "numbers.json", scen)
        with pytest.raises(ScenarioError, match="^" + re.escape(message)):
            load_scenario(path)
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_VALIDATION
        assert not out.exists()


def _set(section, **values):
    """An edit that updates `scen[section]` with `values`."""
    return lambda s: s[section].update(values)


def _method(name, edit=lambda s: None):
    """An edit that selects solver method `name`, then applies `edit`."""
    return lambda s: (s.setdefault("solver", {}).update(method=name), edit(s))


def _price_cap(scen):
    scen.setdefault("solver", {}).setdefault("search", {})["price_cap"] = 0.01


class TestMethodRequirements:
    """Each method's refusal of a scenario it cannot solve, with its exact message."""

    @pytest.mark.parametrize(
        "scenario, edit, message",
        [
            (grid_scenario, _set("cost", kind="quadratic"), "metric_closed_form needs a metric cost kernel"),
            (
                quadratic_reference_scenario,
                _set("cost", kind="metric_power", alpha=1.0),
                "quadratic_reference needs the quadratic cost",
            ),
            (
                grid_scenario,
                _method("quadratic_reference", _set("cost", kind="quadratic")),
                "quadratic_reference needs a 1D region",
            ),
            (
                quadratic_reference_scenario,
                _set("region", bounds=[0, 2]),
                "quadratic_reference needs the region [0, 1]",
            ),
            (
                quadratic_reference_scenario,
                _set("prices", p0={"kind": "constant", "value": 1.0}),
                "quadratic_reference needs the bound x - x^2/2",
            ),
            (grid_box_scenario, _method("one_d"), "one_d needs a 1D region"),
            (
                window_scenario,
                _set("fixed_price", kind="per_point", values=[0.4] * 101),
                "one_d needs a constant fixed_price",
            ),
            (window_scenario, _set("cost", alpha=0.5), "one_d needs the distance cost"),
            (window_scenario, _set("region", bounds=[0, 2], fixed_window=[0.5, 1.5]), "one_d needs the region [0, 1]"),
            (boundary_control_scenario, _set("cost", alpha=0.5), "boundary_control needs the distance cost"),
            (
                window_scenario,
                _method("general_search"),
                "solver: method 'general_search' does not apply to model 'two'",
            ),
            (nash_scenario, _method("w_search"), "solver: method 'w_search' does not apply to model 'nash'"),
            *(
                (scenario, _price_cap, f"solver.search.price_cap: method {name!r} does not read a price cap; set it to null or drop it")
                for scenario, name in [
                    (grid_scenario, "metric_closed_form"),
                    (quadratic_reference_scenario, "quadratic_reference"),
                    (grid_box_scenario, "w_search"),
                    (window_scenario, "one_d"),
                    (boundary_control_scenario, "boundary_control"),
                    (nash_scenario, "dynamics"),
                ]
            ),
        ],
        ids=[
            "metric_closed_form_quadratic_cost",
            "quadratic_reference_metric_cost",
            "quadratic_reference_2d",
            "quadratic_reference_bounds",
            "quadratic_reference_bound",
            "one_d_2d",
            "one_d_per_point_price",
            "one_d_alpha",
            "one_d_bounds",
            "boundary_control_alpha",
            "model_one_method_on_model_two",
            "model_two_method_on_nash",
            "price_cap_metric_closed_form",
            "price_cap_quadratic_reference",
            "price_cap_w_search",
            "price_cap_one_d",
            "price_cap_boundary_control",
            "price_cap_dynamics",
        ],
    )
    def test_exit_2_with_the_exact_message_and_nothing_written(self, tmp_path, scenario, edit, message):
        scen = scenario()
        edit(scen)
        path = write_scenario(tmp_path, "method.json", scen)
        with pytest.raises(ScenarioError, match="^" + re.escape(message) + "$"):
            load_scenario(path)
        out = tmp_path / "out"
        assert run(path, str(out)) == EXIT_VALIDATION
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, default",
        [(grid_scenario, "metric_closed_form"), (grid_box_scenario, "w_search"), (nash_scenario, "dynamics")],
    )
    def test_default_method_per_model(self, tmp_path, scenario, default):
        scen = scenario()
        scen.pop("solver", None)
        assert load_scenario(write_scenario(tmp_path, "default.json", scen)).method == default

    def test_null_price_cap_and_other_search_keys_load(self, tmp_path):
        scen = window_scenario(0.4)
        scen["solver"]["search"] = {"price_cap": None, "max_sweeps": 8, "refine_halvings": 6}
        sc = load_scenario(write_scenario(tmp_path, "null_cap.json", scen))
        assert sc.method == "one_d" and sc.search.price_cap is None


class TestMain:
    def test_run_structured_writes_only_the_result(self, tmp_path):
        path = write_scenario(tmp_path, "game.json", nash_scenario())
        out = tmp_path / "out"
        assert main(["run", "--scenario", path, "--out", str(out), "--format", "structured"]) == EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["result.json"]

    def test_compare_skips_blank_method_names(self, tmp_path, capsys):
        path = write_scenario(tmp_path, "win.json", window_scenario(0.4, n=21))
        assert main(["compare", "--scenario", path, "--methods", "one_d, ,w_search"]) == EXIT_OK
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert [l.split()[0] for l in lines[1:]] == ["one_d", "w_search"]

    @pytest.mark.parametrize("methods", [",", " , ", ""])
    def test_compare_without_methods_exits_2(self, tmp_path, capsys, methods):
        path = write_scenario(tmp_path, "win.json", window_scenario(0.4, n=21))
        out = tmp_path / "out"
        assert main(["compare", "--scenario", path, "--methods", methods, "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "--methods names no method" in captured.err and captured.out == ""
        assert not out.exists()

    def test_refusals_return_their_exit_codes(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "five"}')
        assert main(["run", "--scenario", str(bad), "--out", str(tmp_path / "a")]) == EXIT_VALIDATION
        assert main(["compare", "--scenario", str(bad), "--methods", "one_d"]) == EXIT_VALIDATION
        scen = general_search_scenario()
        scen["solver"]["search"].update(levels=8, max_candidates=1000)
        big = write_scenario(tmp_path, "big.json", scen)
        assert main(["run", "--scenario", big, "--out", str(tmp_path / "b")]) == EXIT_BUDGET
        assert main(["compare", "--scenario", big, "--methods", "general_search"]) == EXIT_BUDGET
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "error, code, prefix",
    [
        (ValueError("bad input"), EXIT_VALIDATION, "scenario error"),
        (BudgetExceededError("too many candidates"), EXIT_BUDGET, "solver refused"),
        (RuntimeError("price-side profit 1.0 differs from value-side 2.0"), EXIT_SELF_CHECK, "solver self-check failed"),
        (NotCConcaveError("profit needs a value function that is cost concave"), EXIT_SELF_CHECK, "solver self-check failed"),
    ],
    ids=["validation", "budget", "self_check", "not_c_concave"],
)
def test_each_refusal_class_exits_with_its_code(tmp_path, capsys, monkeypatch, error, code, prefix):
    # a budget refusal is a RuntimeError too, and keeps its own code; a
    # report's NotCConcaveError is a ValueError, and a solver fault
    def refuse(sc):
        raise error

    monkeypatch.setitem(METHODS, "w_search", dataclasses.replace(METHODS["w_search"], solve=refuse))
    path = write_scenario(tmp_path, "win.json", window_scenario(0.4, n=21))
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out), "--method", "w_search"]) == code
    assert main(["compare", "--scenario", path, "--methods", "one_d,w_search", "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert err == [f"{prefix}: {error}", f"{prefix} for method 'w_search': {error}"]
    assert not out.exists()
