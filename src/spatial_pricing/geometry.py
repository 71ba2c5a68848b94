"""Discrete economic regions, transport cost kernels, prices and customer measures.

A region is a finite list of points in 1 or 2 dimensions, optionally split
into a FIXED part (prices imposed from outside) and a FREE part (prices chosen
by the agent).  Cost kernels produce the full pairwise transportation-cost
table (`eval_cost`), or a table with eval_cost's entries computed block by
block as it is read (`cost_table`): `LineDistances` for the distance on a
line, `GridCosts` for any non-custom kernel on a full 2D grid.  Customer
measures are nonnegative weights over the points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

__all__ = [
    "Mask",
    "KernelKind",
    "Region",
    "CostKernel",
    "CustomerMeasure",
    "PricePattern",
    "build_interval_region",
    "build_grid_region",
    "cost_table",
    "eval_cost",
    "GridCosts",
    "LineDistances",
    "row_blocks",
    "step_cdf",
    "uniform_cdf",
]


class Mask(enum.IntEnum):
    """Per-point subregion flag.

    NONE  : region carries no partition at all.
    FREE  : point where the agent chooses the price.
    FIXED : point where the price is imposed (the fixed-price subregion).
    """

    NONE = 0
    FREE = 1
    FIXED = 2


class KernelKind(enum.Enum):
    METRIC_POWER = "metric_power"
    QUADRATIC = "quadratic"
    CUSTOM_TABLE = "custom_table"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Region:
    """Finite point set with an optional FIXED/FREE partition.

    points            : (n, d) coordinates, d in {1, 2}, all finite.
    mask              : (n,) Mask values; either all NONE or none NONE.
    boundary_of_fixed : (n,) bool, marks the discrete interface of the fixed
                        part (see build_interval_region / build_grid_region
                        for the marking conventions).

    Instances are immutable after construction and safe to share across
    workers.
    """

    points: np.ndarray
    mask: np.ndarray
    boundary_of_fixed: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] not in (1, 2):
            raise ValueError("points must be an (n, d) array with d in {1, 2}")
        if pts.shape[0] == 0:
            raise ValueError("region needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        mask = np.asarray(self.mask, dtype=np.int8)
        if mask.shape != (pts.shape[0],):
            raise ValueError("mask must have one entry per point")
        none = mask == Mask.NONE
        if none.any() and not none.all():
            raise ValueError("mask mixes NONE with FREE/FIXED")
        if (mask == Mask.FIXED).any() and not (mask == Mask.FREE).any():
            raise ValueError("a region with fixed points needs at least one free point")
        boundary = np.asarray(self.boundary_of_fixed, dtype=bool)
        if boundary.shape != (pts.shape[0],):
            raise ValueError("boundary_of_fixed must have one entry per point")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "mask", _readonly(mask))
        object.__setattr__(self, "boundary_of_fixed", _readonly(boundary))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def fixed_indices(self) -> np.ndarray:
        return np.nonzero(self.mask == Mask.FIXED)[0]

    @property
    def free_indices(self) -> np.ndarray:
        return np.nonzero(self.mask == Mask.FREE)[0]

    @property
    def has_partition(self) -> bool:
        return bool((self.mask != Mask.NONE).any())

    def coords_1d(self) -> np.ndarray:
        if self.dimension != 1:
            raise ValueError("1D coordinates requested from a 2D region")
        return self.points[:, 0]


@dataclass(frozen=True)
class CostKernel:
    """Transportation cost c(x, y).

    METRIC_POWER : |x - y|**alpha with alpha in (0, 1]; a metric.
    QUADRATIC    : |x - y|**2 / 2.
    CUSTOM_TABLE : explicit table, validated for c >= 0 and zero diagonal.
    """

    kind: KernelKind
    alpha: float = 1.0
    table: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind is KernelKind.METRIC_POWER:
            if not (0.0 < self.alpha <= 1.0):
                raise ValueError("metric power exponent must lie in (0, 1]")
        if self.kind is KernelKind.CUSTOM_TABLE:
            if self.table is None:
                raise ValueError("custom kernel needs an explicit table")
            t = np.asarray(self.table, dtype=float)
            if t.ndim != 2 or t.shape[0] != t.shape[1]:
                raise ValueError("custom cost table must be square")
            _validate_cost_table(t)
            object.__setattr__(self, "table", _readonly(t))

    @property
    def is_metric(self) -> bool:
        return self.kind is KernelKind.METRIC_POWER

    @staticmethod
    def metric(alpha: float = 1.0) -> "CostKernel":
        return CostKernel(KernelKind.METRIC_POWER, alpha=alpha)

    @staticmethod
    def quadratic() -> "CostKernel":
        return CostKernel(KernelKind.QUADRATIC)

    @staticmethod
    def custom(table: np.ndarray) -> "CostKernel":
        return CostKernel(KernelKind.CUSTOM_TABLE, table=table)


def _validate_cost_table(t: np.ndarray) -> None:
    if not np.all(np.isfinite(t)):
        raise ValueError("cost table must be finite")
    if (t < 0).any():
        raise ValueError("cost table must be nonnegative")
    if np.abs(np.diagonal(t)).max() != 0.0:
        raise ValueError("cost table must vanish on the diagonal")


# The one memory budget, in cells (1 MiB of float64): tables are built and
# scanned in row blocks of it, and batched search calls run in row slices
# whose temporaries held at once count against it together
# (`_search._sliced`); 2^18 and 2^16 measured slower (README).
BLOCK_CELLS = 2**17


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices covering range(rows), each of at most BLOCK_CELLS cells
    of `width` entries per row (at least one row).

    Callers block the axis they do not reduce, so every output entry sees the
    same float operations in the same order as in one dense call.
    """
    step = max(1, BLOCK_CELLS // max(1, width))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _cost_of_distance(kernel: CostKernel, d: np.ndarray) -> None:
    """The kernel's cost of the distances `d`, in place."""
    if kernel.kind is KernelKind.QUADRATIC:
        d *= 0.5 * d  # (0.5*d)*d, not 0.5*(d*d): they differ where d*d is subnormal
    elif kernel.alpha != 1.0:
        np.power(d, kernel.alpha, out=d)


def eval_cost(kernel: CostKernel, region: Region) -> np.ndarray:
    """Full |Q| x |Q| cost table for the kernel on the region's points."""
    if kernel.kind is KernelKind.CUSTOM_TABLE:
        if kernel.table.shape[0] != region.size:
            raise ValueError("custom cost table does not match the region size")
        return kernel.table
    pts = region.points
    n, d = pts.shape
    c = np.empty((n, n))
    for rows in row_blocks(n, n):
        # built in the table itself, one pass per axis: each entry sees
        # sqrt(dx*dx + dy*dy), or |dx| in 1D, and its power in the dense
        # order, and a block holds at most one temporary of its own size
        block = c[rows]
        for k in range(d):
            sq = block if k == 0 else np.empty_like(block)
            # x - y as a copy of x less y: faster than one subtract that broadcasts both
            np.copyto(sq, pts[rows, k, None])
            sq -= pts[:, k]
            if d > 1:
                sq *= sq
            if k:
                block += sq
        del sq
        # in 1D sqrt(dx*dx) would underflow or overflow outside about [2**-511, 2**511)
        (np.abs if d == 1 else np.sqrt)(block, out=block)
        _cost_of_distance(kernel, block)
    np.fill_diagonal(c, 0.0)
    return _readonly(c)


class _BlockTable:
    """A cost table computed a block at a time as it is read: no n x n
    array is kept.  Its entries are eval_cost's.  It is not an array.

    It supports indexing by rows or (rows, columns).  Each axis is a
    slice, an integer, a 1D index array, a boolean mask of the axis's
    length (IndexError otherwise), or one side of an np.ix_ pair; two index
    arrays paired element by element, and other keys, raise TypeError.  A key reads its block with one `fill` and
    returns a new array laid out as numpy lays out that index of a
    C-ordered table (with idx a 1D index array, `t[:, idx]` and
    `t[rows, idx]` are F-contiguous), its integer axes dropped.
    `fill(rows, cols, out)` writes the block of rows and columns (each a
    slice or a 1D index array) into `out`, a C- or F-contiguous array of
    the block's shape: it is a table's only producer of entries, and the
    table functions read every block through it.  `max()` and `min()` are
    those of the whole table, and np.asarray builds it whole (a copy, so
    `copy=False` raises ValueError); arithmetic and numpy's reductions need
    that array.  A subclass gives `shape`, `fill`, `max` and `min`.
    """

    shape: tuple[int, int]

    def __getitem__(self, key) -> np.ndarray:
        if not isinstance(key, tuple):
            key = (key, slice(None))
        keys = [k if isinstance(k, slice) else np.asarray(k) for k in key]
        arrays = [k for k in keys if isinstance(k, np.ndarray) and k.ndim]
        # np.ix_'s pair: (k, 1) integer rows by (1, m) integer columns
        ix = len(arrays) == 2 and all(k.ndim == 2 and k.dtype.kind in "iu" for k in arrays) and arrays[0].shape[1] == arrays[1].shape[0] == 1
        single = len(arrays) < 2 and all(
            isinstance(k, slice) or (k.ndim == 0 and k.dtype.kind in "iu") or (k.ndim == 1 and k.dtype.kind in "biu") for k in keys
        )
        if len(keys) != 2 or not (ix or single):
            raise TypeError(
                f"{type(self).__name__} takes rows or (rows, columns), each a slice, an integer, an index array, "
                f"a boolean mask or one side of an np.ix_ pair, not {key!r}"
            )
        if any(isinstance(k, np.ndarray) and k.dtype.kind == "b" and k.size != n for n, k in zip(self.shape, keys)):
            raise IndexError(f"a boolean mask on a {type(self).__name__} needs one entry per row or column, not {key!r}")
        rows, cols = (k if isinstance(k, slice) else np.flatnonzero(k) if k.dtype.kind == "b" else k.reshape(-1) for k in keys)
        nr, nc = (len(range(n)[k]) if isinstance(k, slice) else k.size for n, k in zip(self.shape, (rows, cols)))
        # numpy's layout of t[rows, idx]: F-contiguous
        out = np.empty((nc, nr)).T if isinstance(rows, slice) and arrays else np.empty((nr, nc))
        self.fill(rows, cols, out)
        return out[tuple(0 if isinstance(k, np.ndarray) and k.ndim == 0 else slice(None) for k in keys)]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError(f"a {type(self).__name__} has no array to return without a copy")
        return self[:] if dtype is None else self[:].astype(dtype)


class LineDistances(_BlockTable):
    """The table |x_i - x_j| of 1D points, a `_BlockTable`."""

    def __init__(self, x: np.ndarray):
        self.x = _readonly(np.asarray(x, dtype=float))
        self.shape = (self.x.size, self.x.size)

    def fill(self, rows, cols, out: np.ndarray) -> None:
        np.subtract(self.x[rows][:, None], self.x[cols], out=out)
        np.abs(out, out=out)

    def max(self) -> np.float64:
        # rounding is monotone, so no difference exceeds the extreme one
        return np.abs(self.x.max() - self.x.min())

    def min(self) -> np.float64:
        return np.float64(0.0)


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of an array and each entry's index among
    them, in the array's shape.  np.unique would import numpy.ma; np.argsort
    is the sort the searches already run, so it maps no more of numpy's
    code into memory than they do."""
    ranked = values.ravel()[np.argsort(values, axis=None)]
    distinct = np.concatenate((ranked[:1], ranked[1:][ranked[1:] != ranked[:-1]]))
    del ranked
    return distinct, np.searchsorted(distinct, values)


def _squared_differences(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of fl(fl(x_i - x_j)**2), eval_cost's per-axis
    term, and the code of each pair (i, j)."""
    sq = x[:, None] - x
    sq *= sq
    return _distinct(sq)


class GridCosts(_BlockTable):
    """eval_cost's table of a full 2D grid in build_grid_region's order (x
    fastest), a `_BlockTable`.

    An entry depends on the pair's two squared axis differences only.  The
    table keeps, per axis, the code of each pair's squared difference among
    that axis's distinct ones, and the (distinct dy**2) x (distinct dx**2)
    table of entries, built with eval_cost's float operations on a
    contiguous array: fl(dx**2 + dy**2), sqrt, then the kernel's power.
    A full grid realizes every pair of codes, so that small table's `max()`
    and `min()` are the whole table's.  A block is read per run of its
    rows within a grid row (whole rows: per grid row) with two np.take
    calls: the small table's rows at the grid row's y codes, then the
    run's entries from them.
    """

    def __init__(self, kernel: CostKernel, xs: np.ndarray, ys: np.ndarray):
        ux, cx = _squared_differences(xs)
        uy, self._cy = _squared_differences(ys)
        table = np.add(uy[:, None], ux)
        np.sqrt(table, out=table)
        _cost_of_distance(kernel, table)
        self._table = _readonly(table)
        nx, ny = xs.size, ys.size
        self._nx, self.shape = nx, (nx * ny, nx * ny)
        self._y, self._x = np.divmod(np.arange(nx * ny), nx)
        # flat index, into the small table's rows at one grid row's y codes,
        # of each (x of the row's point, column) entry; its first nx columns
        # are the x codes
        self._row_index = (np.arange(ny)[:, None] * ux.size + cx[:, None, :]).reshape(nx, -1)

    def fill(self, rows, cols, out: np.ndarray) -> None:
        if out.flags.f_contiguous and not out.flags.c_contiguous:
            # the table is symmetric bit for bit: the block is the transposed key's
            return self.fill(cols, rows, out.T)
        for lo, hi, gy, xs in self._runs(rows):
            at_y = np.take(self._table, self._cy[gy], axis=0)
            index = self._row_index[(xs[:, None], cols) if isinstance(xs, np.ndarray) and isinstance(cols, np.ndarray) else (xs, cols)]
            np.take(at_y, index, out=out[lo:hi], mode="clip")

    def _runs(self, rows) -> Iterator[tuple]:
        """The rows' runs within one grid row: (start, stop) in `rows`, the
        grid row, and the runs' x positions (a slice where `rows` is one)."""
        nx = self._nx
        if isinstance(rows, slice) and rows.step in (None, 1):
            start, stop, _ = rows.indices(self.shape[0])
            for gy in range(start // nx, -(-stop // nx)):
                lo, hi = max(start, gy * nx), min(stop, gy * nx + nx)
                yield lo - start, hi - start, gy, slice(lo - gy * nx, hi - gy * nx)
            return
        rows = np.arange(self.shape[0])[rows]
        gy = self._y[rows]
        cuts = [0, *(np.flatnonzero(gy[1:] != gy[:-1]) + 1).tolist(), rows.size] if rows.size else []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            yield lo, hi, gy[lo], self._x[rows[lo:hi]]

    def max(self) -> np.float64:
        return self._table.max()

    def min(self) -> np.float64:
        return self._table.min()


# eval_cost's 2D entry sqrt(dx*dx + dy*dy) underflows to 0.0 or overflows to
# +inf outside about these axis gaps and extents
RANGE_2D = (2.0**-511, 2.0**511)


def _grid_axes(points: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The axes (xs, ys) of 2D points that form a full grid in
    build_grid_region's order (x fastest), else None."""
    y = points[:, 1]
    nx = int(np.argmax(y != y[0])) or y.size
    if y.size % nx:
        return None
    grid = points.reshape(-1, nx, 2)
    xs, ys = grid[0, :, 0], grid[:, 0, 1]
    if (grid[..., 0] != xs).any() or (grid[..., 1] != ys[:, None]).any():
        return None
    return xs, ys


def _check_range(points: np.ndarray) -> None:
    """Refuse 2D points whose cost entries would underflow or overflow: a
    nonzero coordinate gap on an axis below 2**-511, or an extent of
    2**511 or more."""
    low, high = RANGE_2D
    for k, axis in enumerate("xy"):
        s = points[np.argsort(points[:, k]), k]
        gaps = np.diff(s)
        gaps = gaps[gaps > 0]
        if (gaps.size and gaps.min() < low) or s[-1] - s[0] >= high:
            raise ValueError(f"2D points need every nonzero {axis} gap >= 2**-511 and an {axis} extent < 2**511")


def cost_table(kernel: CostKernel, region: Region):
    """The cost table a context keeps: a `LineDistances` for the distance
    cost on a 1D region, a `GridCosts` for a full 2D grid under a
    non-custom kernel, and eval_cost's table otherwise.  Refuses 2D points
    outside `RANGE_2D`, where eval_cost's entries would underflow or
    overflow."""
    if kernel.kind is KernelKind.CUSTOM_TABLE:
        return eval_cost(kernel, region)
    if region.dimension == 1:
        return LineDistances(region.points[:, 0]) if kernel.is_metric and kernel.alpha == 1.0 else eval_cost(kernel, region)
    _check_range(region.points)
    axes = _grid_axes(region.points)
    return eval_cost(kernel, region) if axes is None else GridCosts(kernel, *axes)


EDGE_REL = 1e-12  # times (1 + |end| + ...): linspace rounding can leave a grid point meant to sit on an edge that far off it


def _edge_tol(*ends: float) -> float:
    """Distance within which a grid point is on an edge: EDGE_REL * (1 + |end| + ...), left to right."""
    total = 1.0
    for end in ends:
        total += abs(end)
    return EDGE_REL * total


def _has_neighbour(a: np.ndarray) -> np.ndarray:
    """True where a grid neighbour along some axis (2 in 1D, 4 in 2D) is True; cells off the grid are False."""
    p = np.pad(a, 1)
    inner = [slice(1, -1)] * a.ndim
    out = np.zeros_like(a)
    for axis in range(a.ndim):
        for shifted in (slice(None, -2), slice(2, None)):
            out |= p[tuple(inner[:axis] + [shifted] + inner[axis + 1 :])]
    return out


def _interface(fixed: np.ndarray) -> np.ndarray:
    """FREE points with a FIXED neighbour and FIXED points with a FREE neighbour, on a 1D or 2D grid."""
    return (~fixed & _has_neighbour(fixed)) | (fixed & _has_neighbour(~fixed))


def build_interval_region(
    n: int,
    a: float,
    b: float,
    fixed_window: Optional[tuple[float, float]] = None,
) -> Region:
    """Equally spaced points on [a, b], optionally with a fixed open window.

    Points strictly inside (alpha, beta) are FIXED, the rest FREE.  The
    interface marking uses adjacency, as in build_grid_region: FREE points
    with a FIXED neighbour and FIXED points with a FREE neighbour.  Without a
    window all masks are NONE.
    """
    if n < 2:
        raise ValueError("an interval region needs n >= 2 points")
    if not a < b:
        raise ValueError("interval bounds must satisfy a < b")
    x = np.linspace(a, b, n)
    mask = np.full(n, Mask.NONE, dtype=np.int8)
    boundary = np.zeros(n, dtype=bool)
    if fixed_window is not None:
        alpha, beta = fixed_window
        if not (a <= alpha < beta <= b):
            raise ValueError("fixed window must satisfy a <= alpha < beta <= b")
        # grid points numerically on the window edge belong to the free part
        edge = _edge_tol(a, b)
        inside = (x > alpha + edge) & (x < beta - edge)
        mask[:] = Mask.FREE
        mask[inside] = Mask.FIXED
        if not (mask == Mask.FREE).any():
            raise ValueError("fixed window swallows the whole region")
        boundary = _interface(mask == Mask.FIXED)
    pts = x[:, None]
    return Region(points=pts, mask=mask, boundary_of_fixed=boundary)


def build_grid_region(
    nx: int,
    ny: int,
    bounds: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0)),
    fixed_box: Optional[tuple[tuple[float, float], tuple[float, float]]] = None,
) -> Region:
    """Axis-aligned 2D grid, row-major (x fastest), with an optional fixed box.

    Points strictly inside the open box are FIXED.  The interface marking uses
    4-neighbourhood adjacency: FREE points with a FIXED neighbour and FIXED
    points with a FREE neighbour.
    """
    if nx < 2 or ny < 2:
        raise ValueError("a grid region needs nx, ny >= 2")
    (ax, bx), (ay, by) = bounds
    if not (ax < bx and ay < by):
        raise ValueError("grid bounds must be increasing")
    xs = np.linspace(ax, bx, nx)
    ys = np.linspace(ay, by, ny)
    X, Y = np.meshgrid(xs, ys)  # rows indexed by y, x fastest within a row
    pts = np.column_stack([X.ravel(), Y.ravel()])
    n = nx * ny
    mask = np.full(n, Mask.NONE, dtype=np.int8)
    boundary = np.zeros(n, dtype=bool)
    if fixed_box is not None:
        (wx0, wx1), (wy0, wy1) = fixed_box
        if not (ax <= wx0 < wx1 <= bx and ay <= wy0 < wy1 <= by):
            raise ValueError("fixed box must sit inside the grid bounds")
        edge = _edge_tol(ax, bx, ay, by)
        inside = (
            (pts[:, 0] > wx0 + edge)
            & (pts[:, 0] < wx1 - edge)
            & (pts[:, 1] > wy0 + edge)
            & (pts[:, 1] < wy1 - edge)
        )
        mask[:] = Mask.FREE
        mask[inside] = Mask.FIXED
        if not (mask == Mask.FREE).any():
            raise ValueError("fixed box swallows the whole region")
        boundary = _interface(mask.reshape(ny, nx) == Mask.FIXED).ravel()
    return Region(points=pts, mask=mask, boundary_of_fixed=boundary)


@dataclass(frozen=True)
class CustomerMeasure:
    """Nonnegative weights over region points (the customer distribution)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be a 1D array")
        if not np.all(np.isfinite(w)) or (w < 0).any():
            raise ValueError("weights must be finite and nonnegative")
        object.__setattr__(self, "weights", _readonly(w))

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @staticmethod
    def uniform(n: int, mass: float = 1.0) -> "CustomerMeasure":
        return CustomerMeasure(np.full(n, mass / n))


def step_cdf(region: Region, f: CustomerMeasure) -> Callable[[np.ndarray], np.ndarray]:
    """Right-continuous cumulative function t -> f([min, t]) of an atomic measure."""
    x = region.coords_1d()
    order = np.argsort(x, kind="stable")
    xs = x[order]
    cum = np.cumsum(f.weights[order])

    def cdf(t):
        t = np.asarray(t, dtype=float)
        idx = np.searchsorted(xs, t, side="right")
        out = np.where(idx > 0, cum[np.minimum(idx, len(cum)) - 1], 0.0)
        return out if out.ndim else float(out)

    return cdf


def uniform_cdf(a: float = 0.0, b: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Cumulative function of the continuum uniform probability on [a, b]."""

    def cdf(t):
        t = np.asarray(t, dtype=float)
        out = np.clip((t - a) / (b - a), 0.0, 1.0)
        return out if out.ndim else float(out)

    return cdf


@dataclass(frozen=True)
class PricePattern:
    """Extended-real prices over the points: finite values or +inf.

    +inf is only meaningful in upper-bound patterns (no restriction there);
    chosen prices are always finite.  -inf and NaN are rejected so that
    min-plus arithmetic stays exact.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1:
            raise ValueError("price values must be a 1D array")
        if np.isnan(v).any() or (v == -np.inf).any():
            raise ValueError("prices must be real or +inf")
        object.__setattr__(self, "values", _readonly(v))

    def __len__(self) -> int:
        return len(self.values)
