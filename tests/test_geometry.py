import numpy as np
import pytest

import spatial_pricing as sp
from spatial_pricing import Mask, geometry

from helpers import region_from_points


class TestIntervalRegion:
    def test_window_masks_and_boundary(self):
        r = sp.build_interval_region(5, 0.0, 1.0, fixed_window=(0.25, 0.75))
        assert np.allclose(r.coords_1d(), [0, 0.25, 0.5, 0.75, 1.0])
        assert list(r.mask) == [Mask.FREE, Mask.FREE, Mask.FIXED, Mask.FREE, Mask.FREE]
        assert list(np.nonzero(r.boundary_of_fixed)[0]) == [1, 2, 3]

    def test_no_window_means_no_partition(self):
        r = sp.build_interval_region(2, 0.0, 1.0)
        assert np.allclose(r.coords_1d(), [0.0, 1.0])
        assert not r.has_partition
        assert (r.mask == Mask.NONE).all()
        assert r.fixed_indices.size == 0

    def test_full_window_leaves_endpoints_free(self):
        r = sp.build_interval_region(101, 0.0, 1.0, fixed_window=(0.0, 1.0))
        assert list(r.free_indices) == [0, 100]
        assert (r.mask[1:100] == Mask.FIXED).all()
        assert list(np.nonzero(r.boundary_of_fixed)[0]) == [0, 1, 99, 100]

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sp.build_interval_region(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            sp.build_interval_region(5, 0.0, 1.0, fixed_window=(-0.1, 0.5))
        with pytest.raises(ValueError):
            sp.build_interval_region(5, 1.0, 0.0)


def _rolled_interface(fixed):
    """The interface marking as first written: rolled masks with the wrapped row or column cleared."""
    neigh_fixed = np.zeros_like(fixed)
    neigh_free = np.zeros_like(fixed)
    for sh, ax_ in ((1, 0), (-1, 0), (1, 1), (-1, 1)):
        for src, neigh in ((fixed, neigh_fixed), (~fixed, neigh_free)):
            rolled = np.roll(src, sh, axis=ax_)
            if ax_ == 0:
                rolled[0 if sh == 1 else -1, :] = False
            else:
                rolled[:, 0 if sh == 1 else -1] = False
            neigh |= rolled
    return (~fixed & neigh_fixed) | (fixed & neigh_free)


class TestGridRegion:
    def test_boundary_marking_uses_4_neighbourhood(self):
        r = sp.build_grid_region(5, 5, fixed_box=((0.2, 0.8), (0.2, 0.8)))
        assert r.dimension == 2
        fixed = (r.mask == Mask.FIXED).reshape(5, 5)
        # interior 3x3 block is strictly inside the box
        assert fixed[1:4, 1:4].all() and fixed.sum() == 9
        boundary = r.boundary_of_fixed.reshape(5, 5)
        # fixed ring adjacent to free points plus free points adjacent to it
        assert boundary[1:4, 1:4].sum() == 8  # fixed ring, centre excluded
        assert boundary[0, 1:4].all() and boundary[4, 1:4].all()
        assert boundary[1:4, 0].all() and boundary[1:4, 4].all()

    @pytest.mark.parametrize("seed", range(40))
    def test_boundary_marking_matches_the_rolled_form(self, seed):
        rng = np.random.default_rng(seed)
        nx, ny = (int(k) for k in rng.integers(2, 12, 2))
        for _ in range(20):
            if rng.uniform() < 0.3:  # box edges on grid lines
                x0, x1 = np.sort(rng.choice(nx, 2, replace=False)) / (nx - 1)
                y0, y1 = np.sort(rng.choice(ny, 2, replace=False)) / (ny - 1)
            else:
                x0, x1 = np.sort(rng.uniform(0.0, 1.0, 2))
                y0, y1 = np.sort(rng.uniform(0.0, 1.0, 2))
            try:
                r = sp.build_grid_region(nx, ny, fixed_box=((x0, x1), (y0, y1)))
            except ValueError:
                continue
            fixed = (r.mask == Mask.FIXED).reshape(ny, nx)
            assert np.array_equal(r.boundary_of_fixed, _rolled_interface(fixed).ravel())

    def test_region_invariants(self):
        with pytest.raises(ValueError):
            region_from_points([[0.0], [np.inf]])
        with pytest.raises(ValueError):
            sp.Region(points=np.zeros((0, 1)), mask=np.zeros(0, np.int8), boundary_of_fixed=np.zeros(0, bool))
        # FIXED without FREE is rejected
        with pytest.raises(ValueError):
            region_from_points([0.0, 1.0], mask=[Mask.FIXED, Mask.FIXED])
        # mixing NONE with FREE is rejected
        with pytest.raises(ValueError):
            region_from_points([0.0, 1.0], mask=[Mask.NONE, Mask.FREE])


class TestCostKernel:
    def test_metric_table(self):
        r = region_from_points([0.0, 0.5, 1.0])
        c = sp.eval_cost(sp.CostKernel.metric(1.0), r)
        assert np.allclose(c, [[0, 0.5, 1], [0.5, 0, 0.5], [1, 0.5, 0]])

    def test_quadratic_table(self):
        r = region_from_points([0.0, 1.0])
        c = sp.eval_cost(sp.CostKernel.quadratic(), r)
        assert np.allclose(c, [[0, 0.5], [0.5, 0]])

    def test_metric_power_half(self):
        r = region_from_points([0.0, 0.25])
        c = sp.eval_cost(sp.CostKernel.metric(0.5), r)
        assert np.isclose(c[0, 1], 0.5)

    def test_custom_table_validation(self):
        bad_diag = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            sp.CostKernel.custom(bad_diag)
        negative = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            sp.CostKernel.custom(negative)
        with pytest.raises(ValueError):
            sp.eval_cost(sp.CostKernel.custom(np.zeros((3, 3))), region_from_points([0.0, 1.0]))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            sp.CostKernel.metric(0.0)
        with pytest.raises(ValueError):
            sp.CostKernel.metric(1.5)

    def test_generated_kernels_vanish_only_at_self(self):
        rng = np.random.default_rng(0)
        r = region_from_points(np.sort(rng.uniform(0, 1, 6)))
        for kern in (sp.CostKernel.metric(1.0), sp.CostKernel.metric(0.5), sp.CostKernel.quadratic()):
            c = sp.eval_cost(kern, r)
            assert (np.diag(c) == 0).all()
            assert (c.min(axis=1) == 0).all()
            assert np.allclose(c.argmin(axis=1), np.arange(6))

    def test_metric_power_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pts = rng.uniform(-2, 2, (6, rng.integers(1, 3)))
            r = region_from_points(pts)
            c = sp.eval_cost(sp.CostKernel.metric(float(rng.uniform(0.2, 1.0))), r)
            lhs = c[:, :, None]
            rhs = c[:, None, :] + c[None, :, :]
            assert (lhs <= rhs + 1e-12).all()


class TestOnDemandTables:
    """A key on an on-demand table is one `fill`; `fill` is its only producer of entries."""

    @pytest.fixture(params=["line", "grid"])
    def tables(self, request):
        """An on-demand table and eval_cost's table of the same points."""
        if request.param == "line":
            kernel, region = sp.CostKernel.metric(1.0), region_from_points([0.25, -1.5, 3.0, 0.75, 2.0, -0.5])
        else:
            kernel, region = sp.CostKernel.metric(0.5), sp.build_grid_region(3, 2, ((0.0, 1.5), (-1.0, 1.0)))
        table = geometry.cost_table(kernel, region)
        assert isinstance(table, (geometry.LineDistances, geometry.GridCosts))
        return table, sp.eval_cost(kernel, region)

    def test_an_ix_key_reads_its_block_with_one_fill(self, monkeypatch, tables):
        table, dense = tables
        calls = []
        fill = type(table).fill

        def counted(self, rows, cols, out):
            calls.append((rows, cols))
            fill(self, rows, cols, out)

        monkeypatch.setattr(type(table), "fill", counted)
        for key in [np.ix_([4, 0, 2, 2], [1, 5, 0]), np.ix_([3], [3]), np.ix_([True, False, True, True, False, False], [2, 1])]:
            calls.clear()
            got, want = table[key], dense[key]
            assert len(calls) == 1
            assert got.tobytes(order="A") == want.tobytes(order="A")
            assert (got.flags.c_contiguous, got.flags.f_contiguous) == (want.flags.c_contiguous, want.flags.f_contiguous)

    def test_index_arrays_paired_element_by_element_are_refused(self, tables):
        table, _ = tables
        rows, cols = np.array([4, 0, 2]), np.array([1, 5, 0])
        for key in [(rows, cols), (rows[:, None], cols[:, None]), (rows[:, None], slice(None)), (np.ix_(rows, cols)[0], 1)]:
            with pytest.raises(TypeError, match=f"{type(table).__name__} takes"):
                table[key]

    def test_a_mask_of_another_length_is_refused(self, tables):
        table, dense = tables
        mask = np.arange(6) % 2 == 0
        for key in [mask, (slice(None), mask), (2, mask)]:
            assert table[key].tobytes(order="A") == dense[key].tobytes(order="A")
        for key in [mask[:2], (slice(None), mask[:5]), (np.append(mask, True), 1)]:
            with pytest.raises(IndexError):
                dense[key]
            with pytest.raises(IndexError, match="one entry per row or column"):
                table[key]

    def test_asarray_without_a_copy_is_refused(self, tables):
        table, dense = tables
        with pytest.raises(ValueError, match="without a copy"):
            np.asarray(table, copy=False)
        assert np.asarray(table).tobytes() == np.array(table, copy=True).tobytes() == dense.tobytes()


class TestMeasureAndPrices:
    def test_step_cdf_right_continuous(self):
        r = sp.build_interval_region(3, 0.0, 1.0)  # points 0, 0.5, 1
        f = sp.CustomerMeasure(np.array([0.2, 0.3, 0.5]))
        cdf = sp.step_cdf(r, f)
        assert cdf(-0.1) == 0.0
        assert np.isclose(cdf(0.5), 0.5)  # includes the atom at 0.5
        assert np.isclose(cdf(0.499), 0.2)
        assert np.isclose(cdf(2.0), 1.0)

    def test_measure_rejects_negative(self):
        with pytest.raises(ValueError):
            sp.CustomerMeasure(np.array([0.1, -0.2]))

    def test_prices_allow_plus_inf_only(self):
        p = sp.PricePattern(np.array([1.0, np.inf, np.inf]))
        assert np.array_equal(p.values, [1.0, np.inf, np.inf])
        with pytest.raises(ValueError):
            sp.PricePattern(np.array([0.0, -np.inf]))
        with pytest.raises(ValueError):
            sp.PricePattern(np.array([0.0, np.nan]))
