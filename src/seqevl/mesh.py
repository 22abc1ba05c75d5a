"""Meshes on [0, 1] and piecewise-constant densities.

The mesh is graded geometrically toward the neutral fixed point at 0,
where orbit speeds and invariant densities vary fastest.  Densities are
stored as cell averages, so every integral reduces to exact interval
arithmetic on the prefix-mass table.  One Density may also hold a stack
of densities on one mesh, one per row, whose masses are read together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# the lab's mesh: every run pushes on graded_mesh() at these
DEFAULT_CELLS = 1024
DEFAULT_RATIO = 0.97
DEFAULT_MIN_WIDTH = 1e-8

@dataclass(frozen=True, eq=False)
class Mesh:
    """Partition of [0, 1] into at least 2 cells given by strictly increasing
    boundaries.

    The boundaries are a read-only copy of the caller's array, so `widths`
    and the transfer module's per-mesh tables can be computed once and never
    go stale.  A mesh compares and hashes by identity, and the transfer
    module keys its tables by the mesh object.
    """

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.array(self.boundaries, dtype=float)
        if b.ndim != 1 or b.size < 3:
            raise ValueError("mesh needs at least 2 cells")
        if b[0] != 0.0 or b[-1] != 1.0:
            raise ValueError("mesh must span [0, 1] exactly")
        if not np.all(np.diff(b) > 0):
            raise ValueError("mesh boundaries must be strictly increasing")
        b.flags.writeable = False
        object.__setattr__(self, "boundaries", b)

    @property
    def n_cells(self) -> int:
        return self.boundaries.size - 1

    @cached_property
    def widths(self) -> np.ndarray:
        w = np.diff(self.boundaries)
        w.flags.writeable = False
        return w

    @property
    def midpoints(self) -> np.ndarray:
        b = self.boundaries
        return 0.5 * (b[:-1] + b[1:])

    def cell_index(self, x) -> np.ndarray:
        """Index of the cell containing x; right-closed at x = 1."""
        idx = np.searchsorted(self.boundaries, x, side="right") - 1
        return np.clip(idx, 0, self.n_cells - 1)

    def locate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Cell of x clipped to [0, 1], and the offset of x from that cell's left end."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        cell = self.cell_index(x)
        return cell, x - self.boundaries[cell]


def graded_mesh(n_cells: int = DEFAULT_CELLS, ratio: float = DEFAULT_RATIO,
                min_width: float = DEFAULT_MIN_WIDTH) -> Mesh:
    """Geometric grading: cell widths shrink by `ratio` toward 0, floored at `min_width`.

    The widest cell sits at x = 1.  Flooring keeps the cell count finite while
    still resolving the slow region near the neutral fixed point.
    """
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    # raw geometric widths, largest at the x=1 end (index n_cells-1)
    w = ratio ** np.arange(n_cells - 1, -1, -1, dtype=float)
    w /= w.sum()
    for _ in range(4):  # floor + renormalize settles in a couple of passes
        w = np.maximum(w, min_width)
        w /= w.sum()
    b = np.concatenate(([0.0], np.cumsum(w)))
    b[-1] = 1.0
    return Mesh(b)


@dataclass
class Density:
    """Piecewise-constant density: `values[k]` is the average on cell k.

    Values may be signed: the operators preserve nonnegativity, and signed
    values come only from `Density.difference`, the zero-mass input of the
    decay kind.  `prefix_mass` caches the exact running integral used by cdf().
    A stacked Density (`Density.stack`) holds one density per row of a 2-D
    `values`, with `prefix_mass` along the last axis.
    """

    mesh: Mesh
    values: np.ndarray
    prefix_mass: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.mesh.n_cells,):
            raise ValueError("values must have one entry per mesh cell")
        self.values = v
        self._rebuild_prefix()

    @classmethod
    def stack(cls, densities) -> "Density":
        """The densities of a list on one mesh as one stacked Density, row i
        a copy of densities[i]'s values and prefix masses."""
        mesh = densities[0].mesh
        for d in densities:
            if d.mesh is not mesh:
                _same_mesh(d.mesh, mesh)
        # the rows' prefixes are copied, not rebuilt by __post_init__
        out = cls.__new__(cls)
        out.mesh = mesh
        out.values = np.array([d.values for d in densities])
        out.prefix_mass = np.array([d.prefix_mass for d in densities])
        return out

    def __len__(self) -> int:
        """Number of rows of a stacked Density."""
        if self.values.ndim != 2:
            raise TypeError("a single density has no rows")
        return len(self.values)

    def _rebuild_prefix(self):
        p = np.empty(self.values.size + 1)
        p[0] = 0.0
        np.add.accumulate(self.values * self.mesh.widths, out=p[1:])
        self.prefix_mass = p

    @property
    def mass(self) -> float:
        return float(self.prefix_mass[-1])

    def cdf(self, x) -> np.ndarray:
        """Exact integral of the density over [0, x] (vectorized).  Row i of a
        stack is read at x[..., i]: x broadcasts against the rows along its
        last axis, so a scalar or a last axis of length 1 is read by all."""
        cell, offset = self.mesh.locate(x)
        at = (cell,) if self.values.ndim == 1 else (np.arange(len(self)), cell)
        return self.prefix_mass[at] + self.values[at] * offset

    def interval_mass(self, lo, hi) -> np.ndarray:
        return self.cdf(hi) - self.cdf(lo)

    def difference(self, other: "Density") -> "Density":
        _same_mesh(self.mesh, other.mesh)
        return Density(self.mesh, self.values - other.values)

    def normalized(self) -> "Density":
        m = self.mass
        if m <= 0:
            raise ValueError("cannot normalize a density with nonpositive mass")
        return Density(self.mesh, self.values / m)


def _same_mesh(a: Mesh, b: Mesh):
    if a.n_cells != b.n_cells or not np.array_equal(a.boundaries, b.boundaries):
        raise ValueError("densities live on different meshes")


def uniform_density(mesh: Mesh) -> Density:
    return Density(mesh, np.ones(mesh.n_cells))


# the 8-point Gauss-Legendre rule on [-1, 1]: leggauss(8), bit for bit
GAUSS_LEGENDRE_8 = (
    (-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
     0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362),
    (0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
     0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706),
)


def project(fn, mesh: Mesh) -> Density:
    """Project a pointwise function onto the mesh by per-cell 8-point
    Gauss-Legendre averages.

    The rule is the constant GAUSS_LEGENDRE_8: calling `leggauss(8)`
    loads `numpy.polynomial` and sets up LAPACK for its `eigvalsh`, 1.2 MB
    of peak memory.  The `vals @ weights` matvec stays.  Its first call sets
    up BLAS, 0.12-0.18 MB, but an elementwise weighted sum in its place
    changes the averages by one ulp, which moves `decay.csv`'s
    `l1_distance` by 1.2e-9 relative: more than the benchmark's decay
    references absorb.  (Peak-RSS steps of each piece in a fresh process
    with the thread caps and imports of `perfbench/run.py`.)
    """
    nodes, weights = (np.array(column) for column in GAUSS_LEGENDRE_8)
    mid = mesh.midpoints[:, None]
    half = 0.5 * mesh.widths[:, None]
    x = mid + half * nodes[None, :]
    vals = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
    return Density(mesh, vals @ weights / 2.0)
