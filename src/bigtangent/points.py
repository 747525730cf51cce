"""Chart points on the 3m-dimensional chart (x^i, y^i, z_i).

A ``ChartPoint`` is one batch of points: its constructor stacks the
coordinates once into ``flat``, a (3m, npoints) array in chart order,
and ``x``, ``y``, ``z`` are views of its three blocks.  Coordinate
arrays of shape (m,) give a batch of one point, so every evaluation
broadcasts over the same trailing axis, and ``select(k)`` is a batch of
one too.

Each point also owns the memo that ``fields`` keeps for the points a
verification suite reuses: every jet evaluated there, keyed by (node,
order), freed when the point is dropped.  Points evaluated once, the
action integrand's chunks, go through the integrand's ``fields.Tape``
instead, which stores nothing on them.
"""

from __future__ import annotations

import numpy as np


class ChartPoint:
    __slots__ = ("m", "flat", "x", "y", "z", "_cache")

    def __init__(self, x, y, z):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        if not (x.shape == y.shape == z.shape) or x.ndim not in (1, 2):
            raise ValueError("x, y, z must share a shape (m,) or (m, npoints)")
        m = x.shape[0]
        if m < 1:
            raise ValueError("need m >= 1")
        flat = np.concatenate([x, y, z]).reshape(3 * m, -1)
        if not np.all(np.isfinite(flat)):
            raise ValueError("coordinates must be finite")
        self.m = m
        self.flat = flat
        self.x, self.y, self.z = flat[:m], flat[m : 2 * m], flat[2 * m :]
        self._cache: dict = {}

    @property
    def npoints(self) -> int:
        return self.flat.shape[1]

    def text(self, k: int) -> str:
        """The k-th point as ``x=..;y=..;z=..``, the CLI's ``--point`` form."""
        return ";".join(
            f"{key}=" + ",".join(repr(v) for v in blk[:, k].tolist())
            for key, blk in zip("xyz", (self.x, self.y, self.z))
        )

    def select(self, k: int) -> "ChartPoint":
        """The k-th point, as a batch of one."""
        return ChartPoint(self.x[:, k], self.y[:, k], self.z[:, k])


def sample_box(
    m: int,
    npoints: int,
    seed: int,
    low: float = -1.0,
    high: float = 1.0,
    min_vertical: float | None = None,
) -> ChartPoint:
    """Uniform sample points in a coordinate box.

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
    return ChartPoint(*coords)
