"""Chart points on the 3m-dimensional chart (x^i, y^i, z_i).

A ``ChartPoint`` may hold a single point (coordinate arrays of shape
(m,)) or a batch (shape (m, npoints)); all evaluation machinery
broadcasts over the batch axis.  Each point object also owns the memo
that ``fields`` keeps for points a verification suite reuses: every jet
evaluated there, keyed by (node, order), freed when the point is dropped.
Points evaluated once, such as the action integrand's chunks, go through
a ``fields.Tape`` instead, which stores nothing on them.
"""

from __future__ import annotations

import numpy as np


class ChartPoint:
    __slots__ = ("m", "x", "y", "z", "_cache")

    def __init__(self, x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if not (x.shape == y.shape == z.shape) or x.ndim not in (1, 2):
            raise ValueError("x, y, z must share a shape (m,) or (m, npoints)")
        if x.shape[0] < 1:
            raise ValueError("need m >= 1")
        for arr in (x, y, z):
            if not np.all(np.isfinite(arr)):
                raise ValueError("coordinates must be finite")
        self.m = x.shape[0]
        self.x, self.y, self.z = x, y, z
        self._cache: dict = {}

    @property
    def batched(self) -> bool:
        return self.x.ndim == 2

    @property
    def npoints(self) -> int:
        return self.x.shape[1] if self.batched else 1

    @property
    def flat(self) -> np.ndarray:
        """All 3m coordinates stacked in chart order (x, y, z)."""
        return np.concatenate([self.x, self.y, self.z], axis=0)

    def coord(self, var: int) -> np.ndarray:
        """Coordinate values for flat variable index 0 <= var < 3m."""
        return self.flat[var]

    def text(self, k: int) -> str:
        """The k-th point as ``x=..;y=..;z=..``, the CLI's ``--point`` form."""
        blocks = self.flat.reshape(3, self.m, -1)[:, :, k]
        return ";".join(
            f"{key}=" + ",".join(repr(v) for v in blk.tolist())
            for key, blk in zip("xyz", blocks)
        )

    def select(self, k: int) -> "ChartPoint":
        """The k-th point of a batch, as an unbatched point."""
        if not self.batched:
            if k != 0:
                raise IndexError(k)
            return self
        return ChartPoint(self.x[:, k], self.y[:, k], self.z[:, k])


def sample_box(
    m: int,
    npoints: int,
    seed: int,
    low: float = -1.0,
    high: float = 1.0,
    min_vertical: float | None = None,
) -> ChartPoint:
    """Uniform sample points in a coordinate box, batched.

    ``min_vertical`` resamples y and z entries until they are at least
    that far from zero (Euler-field checks are meaningless on the zero
    section).
    """
    rng = np.random.default_rng(seed)
    coords = rng.uniform(low, high, size=(3, m, npoints))
    if min_vertical is not None:
        for blk in (1, 2):
            small = np.abs(coords[blk]) < min_vertical
            while np.any(small):
                coords[blk][small] = rng.uniform(low, high, size=int(small.sum()))
                small = np.abs(coords[blk]) < min_vertical
    return ChartPoint(coords[0], coords[1], coords[2])
