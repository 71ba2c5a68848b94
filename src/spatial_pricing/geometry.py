"""Discrete economic regions, transport cost kernels, prices and customer measures.

A region is a finite list of points in 1 or 2 dimensions, optionally split
into a FIXED part (prices imposed from outside) and a FREE part (prices chosen
by the agent).  Cost kernels produce the full pairwise transportation-cost
table; customer measures are nonnegative weights over the points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

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
    "eval_cost",
    "cumulative_weights",
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


def eval_cost(kernel: CostKernel, region: Region) -> np.ndarray:
    """Full |Q| x |Q| cost table for the kernel on the region's points."""
    if kernel.kind is KernelKind.CUSTOM_TABLE:
        if kernel.table.shape[0] != region.size:
            raise ValueError("custom cost table does not match the region size")
        return kernel.table
    diff = region.points[:, None, :] - region.points[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    if kernel.kind is KernelKind.METRIC_POWER:
        c = dist**kernel.alpha
    else:
        c = 0.5 * dist * dist
    np.fill_diagonal(c, 0.0)
    return _readonly(c)


def _edge_tol(*ends: float) -> float:
    """Distance within which a grid point is on an edge: 1e-12 * (1 + |end| + ...), left to right."""
    total = 1.0
    for end in ends:
        total += abs(end)
    return 1e-12 * total


def build_interval_region(
    n: int,
    a: float,
    b: float,
    fixed_window: Optional[tuple[float, float]] = None,
) -> Region:
    """Equally spaced points on [a, b], optionally with a fixed open window.

    Points strictly inside (alpha, beta) are FIXED, the rest FREE; the grid
    points nearest alpha and beta are marked as the interface.  Without a
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
        boundary[int(np.argmin(np.abs(x - alpha)))] = True
        boundary[int(np.argmin(np.abs(x - beta)))] = True
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
        fixed = mask.reshape(ny, nx) == Mask.FIXED
        neigh_fixed = np.zeros_like(fixed)
        neigh_free = np.zeros_like(fixed)
        for sh, ax_ in ((1, 0), (-1, 0), (1, 1), (-1, 1)):
            rolled = np.roll(fixed, sh, axis=ax_)
            # roll wraps around; mask out the wrapped row/column
            if ax_ == 0:
                rolled[0 if sh == 1 else -1, :] = False
            else:
                rolled[:, 0 if sh == 1 else -1] = False
            neigh_fixed |= rolled
            rolled_free = np.roll(~fixed, sh, axis=ax_)
            if ax_ == 0:
                rolled_free[0 if sh == 1 else -1, :] = False
            else:
                rolled_free[:, 0 if sh == 1 else -1] = False
            neigh_free |= rolled_free
        interface = (~fixed & neigh_fixed) | (fixed & neigh_free)
        boundary = interface.ravel()
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


def cumulative_weights(region: Region, f: CustomerMeasure) -> np.ndarray:
    """Prefix sums of the weights along a 1D region (nondecreasing, ends at the mass)."""
    x = region.coords_1d()
    if np.any(np.diff(x) < 0):
        raise ValueError("cumulative weights need nondecreasing coordinates")
    return np.cumsum(f.weights)


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

    def is_proper(self, subset: Optional[np.ndarray] = None) -> bool:
        """True when at least one value inside the subset is finite."""
        vals = self.values if subset is None else self.values[subset]
        return bool(np.isfinite(vals).any())

    @staticmethod
    def constant(n: int, value: float) -> "PricePattern":
        return PricePattern(np.full(n, float(value)))

    @staticmethod
    def unbounded(n: int, finite: Optional[dict[int, float]] = None) -> "PricePattern":
        """All +inf except the entries listed in `finite`."""
        v = np.full(n, np.inf)
        for i, val in (finite or {}).items():
            v[i] = val
        return PricePattern(v)
