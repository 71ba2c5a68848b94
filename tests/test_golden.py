"""Golden outputs: `spatial-pricing run` writes the same bytes on a fixed scenario set.

The pinned sha256 cover `result.json`, `series.csv` and `trace.csv` of small
scenarios across both models' methods and the Nash dynamics.  Reported
profits go through BLAS dot products, whose last digit depends on the CPU
kernel, so every scenario runs in one child process pinned to OpenBLAS's
Haswell kernel.  A change that alters any output byte must say why and
record the new hashes.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import spatial_pricing as sp

GRID = [i / 20 for i in range(21)]


def _one(cost, n, p0, solver, measure=None):
    return {
        "model": "one",
        "region": {"dimension": 1, "n": n, "bounds": [0, 1]},
        "cost": cost,
        "measure": measure or {"kind": "uniform"},
        "prices": {"p0": p0},
        "solver": solver,
    }


def _two(solver, fixed_price=0.4, n=21, window=(0.3, 0.7)):
    return {
        "model": "two",
        "region": {"dimension": 1, "n": n, "bounds": [0, 1], "fixed_window": list(window)},
        "cost": {"kind": "metric_power", "alpha": 1.0},
        "measure": {"kind": "weights", "values": [1.0 + (i % 3) / 4 for i in range(n)]},
        "fixed_price": {"kind": "constant", "value": fixed_price},
        "solver": solver,
    }


def _nash(cost, n, game, span=1.0):
    return {
        "model": "nash",
        "region": {"dimension": 1, "n": n, "bounds": [0, span]},
        "cost": cost,
        "measure": {"kind": "uniform"},
        "game": {"split": 0.5 * span, "verify": True, **game},
    }


METRIC = {"kind": "metric_power", "alpha": 1.0}
QUADRATIC = {"kind": "quadratic"}
BOUND = {"kind": "per_point", "values": [0.3 + 0.5 * x * (1 - x) for x in GRID]}

SCENARIOS = {
    "one_metric_closed_form": _one(METRIC, 21, BOUND, {"method": "metric_closed_form"}),
    "one_general_ascent": _one(
        QUADRATIC,
        9,
        {"kind": "constant", "value": 0.8},
        {"method": "general_search", "search": {"levels": 5, "multistarts": 6}},
        {"kind": "weights", "values": [0.5 + i / 8 for i in range(9)]},
    ),
    "one_general_exhaustive": _one(
        METRIC, 5, {"kind": "constant", "value": 0.6}, {"method": "general_search", "search": {"mode": "exhaustive", "levels": 3}}
    ),
    "one_general_price_cap": _one(
        QUADRATIC,
        9,
        {"kind": "constant", "value": 0.8},
        {"method": "general_search", "search": {"levels": 5, "multistarts": 4, "price_cap": 0.3}},
    ),
    "one_quadratic_reference": _one(
        QUADRATIC, 21, {"kind": "per_point", "values": [x - x * x / 2 for x in GRID]}, {"method": "quadratic_reference"}
    ),
    "two_w_search_ascent": _two({"method": "w_search", "search": {"levels": 4, "multistarts": 4}}, n=11),
    "two_w_search_exhaustive": _two({"method": "w_search", "search": {"mode": "exhaustive", "levels": 3}}, n=9),
    "two_one_d": _two({"method": "one_d", "search": {"grid_n": 41}}, fixed_price=0.3, n=41, window=(0.25, 0.75)),
    "two_boundary_control": _two({"method": "boundary_control", "search": {"grid_n": 21}}),
    "nash_verify": _nash(METRIC, 21, {"rounds": 8, "grid_n": 20}),
    # on a region 1e-9 wide the dynamics and the equilibrium check polish
    # prices in steps of 5e-13, and the polish still moves them there
    "nash_verify_tiny_cap": _nash(QUADRATIC, 13, {"rounds": 4, "grid_n": 200, "price_cap": 1e-10}, span=1e-9),
    # under a quadratic cost the polish moves prices on the unit region,
    # so its batched trial calls are pinned here
    "nash_quadratic": _nash(QUADRATIC, 21, {"rounds": 6, "grid_n": 20}),
    # a uniform measure sends one_d through the continuum cumulative function
    "two_one_d_uniform": {
        **_two({"method": "one_d", "search": {"grid_n": 41}}, fixed_price=0.5, n=21, window=(0.2, 0.6)),
        "measure": {"kind": "uniform"},
    },
    # the grid's y = 0.6000000000000001 sits on the box edge only within the
    # edge tolerance, so it is free: 2 fixed points, not 4
    "two_w_search_2d_box": {
        **_two({"method": "w_search", "search": {"levels": 4, "multistarts": 4}}),
        "region": {"dimension": 2, "nx": 6, "ny": 6, "fixed_box": [[0.2, 0.8], [0.6, 1.0]]},
        "measure": {"kind": "uniform"},
    },
    "nash_masks": {
        **_nash(METRIC, 15, {"rounds": 6, "grid_n": 20}),
        "game": {
            "masks": {"a": [i <= 4 or i >= 10 for i in range(15)], "b": [4 <= i <= 10 for i in range(15)]},
            "rounds": 6,
            "grid_n": 20,
        },
    },
    # at n = 1025 every n x n table is built in several row blocks of
    # geometry.BLOCK_CELLS cells; the bound repeats values, so the cones tie
    "one_metric_closed_form_blocks": _one(
        METRIC,
        1025,
        {"kind": "per_point", "values": [0.2 + 0.1 * ((7 * i) % 9) for i in range(1025)]},
        {"method": "metric_closed_form"},
        {"kind": "weights", "values": [1.0 + (i % 5) / 4 for i in range(1025)]},
    ),
    "two_one_d_blocks": _two({"method": "one_d", "search": {"grid_n": 41}}, fixed_price=0.3, n=1025, window=(0.25, 0.75)),
    # 8 control points: 4^8 candidates exceed max_candidates, so boundary
    # control runs its ascent, the only search that passes `feasible`
    "two_boundary_control_2d": {
        **_two({"method": "boundary_control", "search": {"levels": 4, "multistarts": 3, "max_candidates": 100}}, 0.6, n=36),
        "region": {"dimension": 2, "nx": 6, "ny": 6, "fixed_box": [[0.2, 0.8], [0.2, 0.8]]},
    },
    # the same 8 controls at 3 levels: 3^8 candidates fit the budget, so the
    # product scan runs, each candidate through `feasible` and the bound
    "two_boundary_control_2d_scan": {
        **_two({"method": "boundary_control", "search": {"levels": 3}}, 0.6, n=36),
        "region": {"dimension": 2, "nx": 6, "ny": 6, "fixed_box": [[0.2, 0.8], [0.2, 0.8]]},
    },
    # the one 2D model-one closed form, and the one metric power other than
    # 1: eval_cost takes the power of a two-axis distance, on a grid with
    # nx != ny
    "one_metric_closed_form_2d_half": {
        **_one(
            {"kind": "metric_power", "alpha": 0.5},
            63,
            {"kind": "per_point", "values": [0.2 + 0.1 * ((5 * i) % 7) for i in range(63)]},
            {"method": "metric_closed_form"},
            {"kind": "weights", "values": [1.0 + (i % 4) / 4 for i in range(63)]},
        ),
        "region": {"dimension": 2, "nx": 9, "ny": 7},
    },
}

GOLDEN = {
    "one_metric_closed_form": {
        "result.json": "f550038a3d4101ac83574e8acb58574c63c4b84f95f63157d54c96a02efacb88",
        "series.csv": "e000b27fbc3ef48e30407e33fda1e8b2b6536696de25fc1c362a85e3fb8779de",
    },
    "one_general_ascent": {
        "result.json": "928ee2644b086bb1dc78c6c7551475069445ba073f0341ff5ec5bab3d894c4bd",
        "series.csv": "f5a952bc72e23e209fe151cdc14f38fee492db24cbca355b11236aa26ffe1079",
    },
    "one_general_exhaustive": {
        "result.json": "f37ca8095515bb7e538a426097c8cc988b8c6a3913cf6b73a58ea478909fd1f2",
        "series.csv": "b31b25195d7e3491cba260cb2b7dbb58978171879e4c35f55d5df381d4512410",
    },
    "one_general_price_cap": {
        "result.json": "dc7deb02a4dcfce5cb76cf23c0a41d12f3f8d57a2ef5b57b5d005207a7a956e5",
        "series.csv": "f415ea14ec4989bd6403b71b80e6b3a2544291dc2427d087d2b4b84c755b8f4e",
    },
    "one_quadratic_reference": {
        "result.json": "7e24d6feb4df4cb1beadd1931ac617a702dca34055f8fb9ef72ffa57ad7e9a40",
        "series.csv": "0a6651d546aa58b8201ca6c7155ad9b6167441572c47bc1d91c476b0e938403a",
    },
    "two_w_search_ascent": {
        "result.json": "05ecab78ef24a841f9ec6e8722f656994a9c8583d6c458848848748d8a38bc06",
        "series.csv": "26765b28004d1ad00d4d422a89102c2d00da2ac57fd27a1f2677071396e9fd3a",
    },
    "two_w_search_exhaustive": {
        "result.json": "f31fa389a5bff7c9185516e5feaa1eb9deed2a88e245212c3140edfe38227059",
        "series.csv": "20b1cac181cd99fc73a80393a1dedc51c6d9e4a0eeb8fdc704856d63538f2a9c",
    },
    "two_one_d": {
        "result.json": "6a9b8a94258b5236be586a75e5d223143e67f2378f16f19a7ab0fe07c92820f0",
        "series.csv": "eac0bfb3cc86b9b17114ee01ff3ff4fb11ddad6d2ec796410b291311ae3f5754",
    },
    "two_boundary_control": {
        "result.json": "470d385a586b6bc4abfe7c43deca9c2cf51510d40a2e6ae963441643402fdea9",
        "series.csv": "cb41ab729ad2f64bcb560d1f9e306fce003837f97f1c9c4f0bbefc4f24de4476",
    },
    "nash_verify": {
        "result.json": "2b79a3f05d4853d22156ae44ec2296bd31025272a01d46f7ef762079c323cf6f",
        "series.csv": "d89916b19355957276d622f506187dc48d002cd88a6f45db9cf0732639d651ee",
        "trace.csv": "c6784b9baac2be33861a37138523367d001bc8f9632b71000e1efc170b350d1a",
    },
    "nash_verify_tiny_cap": {
        "result.json": "3b19310ed14866c4cbc1dc53ec7d062272ec8b7074ae83b33f278dc6081aa417",
        "series.csv": "5678ab0282346618730c1b7c793e92dfe410540c7bdc3213fc2c158360e8f3ee",
        "trace.csv": "16dc153b48d7870a6b5bcafb64671bafa11711af773a7ff1b514b4da004339d6",
    },
    "nash_quadratic": {
        "result.json": "6f759f207cb99b012312d0f7a5fe608cd93f940efb764b9aa16e542be4a79843",
        "series.csv": "0f8443a2c1f89e695bf5f9f9b09ef243b7122d677996578c30fd2a1c12045c2d",
        "trace.csv": "37efa5988a78a1da00e0f02aaecf0d3d51975648f62801856267217e08deeac3",
    },
    "two_one_d_uniform": {
        "result.json": "fc5416fd766c2e1550e6bb9062d27b9b63ac7644a1475bef5046afa9f72d06bd",
        "series.csv": "786d7510bc28462ca909febe6757acdebfebd17b23646f343629a28826e654e5",
    },
    "two_w_search_2d_box": {
        "result.json": "080604313f26d4ca66289db17caabd573f2aac2089f28c94c3ee318e4c1cd795",
        "series.csv": "17e49ecadf97a9b04ead6e90873e610f19fac6aa17d6a0d475b7b578de13709f",
    },
    "nash_masks": {
        "result.json": "e62f5793b77752f654dd08102ca6a199bb9472212eed4f3e295b69d6552a293f",
        "series.csv": "7ca893a32a3b5a839bf4084698daa040551442854f80f2b63986fc9cc03ed7bf",
        "trace.csv": "5ed9844519d1164ca7e5790d6696df0fdb5f08f352fcb7b6ffd377b1324acce1",
    },
    "one_metric_closed_form_blocks": {
        "result.json": "f5455d20a251be5594b5769c01c7dc5c30dc169ff519c75b83a31caf5c125dfc",
        "series.csv": "7fef03967c151d27c1460714f15dc4020a83395ab9b584b1a91c3f7ab46ae3c3",
    },
    "two_one_d_blocks": {
        "result.json": "a4048b22aac4b0d7df2280dae16e8074a8ec90b851407a0d05cea35faa1f70dc",
        "series.csv": "f435cc5c7a205e784f7643f4afe87ecdf3d70b6370d31d89173c7200d9cd717d",
    },
    "two_boundary_control_2d": {
        "result.json": "a7d975bd5b932d5674d4194637674b44aaaf6caf998d413938a5d8e56619a27a",
        "series.csv": "03e4deaf19649d38a98d823ed795119da52e3d32e25068013a4baec77ed99135",
    },
    "two_boundary_control_2d_scan": {
        "result.json": "5d63add66d56049ae46d56b9e087ce0e03bb27abc718122463f6eee56dd74aae",
        "series.csv": "96b063c2fe6a9d400fc0324c9dced79ed7316f94e921c79fb0cc80f35a00dbd4",
    },
    "one_metric_closed_form_2d_half": {
        "result.json": "1c503e9213d36deaf94fffd3b864bee1e03db875c53c76cdabcb8bcc46d95826",
        "series.csv": "70d4b6b80bb377701876d669875e8f047a4eee35e461ba77b4a4daa4e9c86c1f",
    },
}

CHILD = """
import sys
from spatial_pricing import cli
work = sys.argv[1]
for name in sys.argv[2:]:
    assert cli.run(f"{work}/{name}.json", f"{work}/{name}") == cli.EXIT_OK, name
"""


def output_hashes(work: Path) -> dict:
    """sha256 of each output file of each scenario, all run in one child process."""
    for name, scen in SCENARIOS.items():
        (work / f"{name}.json").write_text(json.dumps(scen, sort_keys=True))
    src = str(Path(sp.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Haswell",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    child = subprocess.run([sys.executable, "-c", CHILD, str(work), *SCENARIOS], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return {
        name: {out.name: hashlib.sha256(out.read_bytes()).hexdigest() for out in sorted((work / name).iterdir())}
        for name in SCENARIOS
    }


def test_outputs_match_golden_hashes(tmp_path):
    assert output_hashes(tmp_path) == GOLDEN


if __name__ == "__main__":
    # print the GOLDEN dict of the current tree in this file's layout, to
    # paste above after a change that alters output bytes on purpose
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        hashes = output_hashes(Path(work))
    print("GOLDEN = {")
    for name, files in hashes.items():
        print(f'    "{name}": {{')
        for out, digest in files.items():
            print(f'        "{out}": "{digest}",')
        print("    },")
    print("}")
