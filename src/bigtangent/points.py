"""Chart points on the 3m-dimensional chart (x^i, y^i, z_i).

A ``ChartPoint`` is one batch of points: its constructor stacks the
coordinates once into ``flat``, a (3m, npoints) array in chart order,
and ``x``, ``y``, ``z`` are views of its three blocks.  Coordinate
arrays of shape (m,) give a batch of one point, so every evaluation
broadcasts over the same trailing axis, and ``select(k)`` is a batch of
one too.

Each point also owns the memo that ``fields`` keeps for the points a
verification suite reuses: one jet per node evaluated there, keyed by
the node and held at the highest order asked of it so far (a lower
order is its leading rows), freed when the point is dropped.  Points evaluated once, the
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
        """The k-th point as ``x=..;y=..;z=..``, the CLI's ``--point`` form,
        which ``parse_point`` reads back bit for bit."""
        return ";".join(
            f"{key}=" + ",".join(repr(v) for v in blk[:, k].tolist())
            for key, blk in zip("xyz", (self.x, self.y, self.z))
        )

    def select(self, k: int) -> "ChartPoint":
        """The k-th point, as a batch of one."""
        return ChartPoint(self.x[:, k], self.y[:, k], self.z[:, k])


def parse_point(text: str, m: int) -> ChartPoint:
    """Parse "x=a,b;y=c,d;z=e,f", the form ``ChartPoint.text`` writes, into
    a one-point batch; an omitted block is zero."""
    blocks = {"x": None, "y": None, "z": None}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad point component {part!r}")
        key, _, vals = part.partition("=")
        key = key.strip()
        if key not in blocks:
            raise ValueError(f"unknown coordinate block {key!r}")
        if blocks[key] is not None:
            raise ValueError(f"coordinate block {key!r} is given twice")
        try:
            arr = np.array([float(v) for v in vals.split(",")], dtype=float)
        except ValueError as exc:
            raise ValueError(f"bad number in {part!r}: {exc}") from exc
        if arr.shape != (m,):
            raise ValueError(f"{key} needs {m} values, got {arr.size}")
        blocks[key] = arr
    return ChartPoint(*(np.zeros(m) if arr is None else arr for arr in blocks.values()))


def sample_box(m: int, npoints: int, seed: int, min_vertical: float | None = None) -> ChartPoint:
    """Uniform sample points in the box [-1, 1)^{3m}.

    ``min_vertical`` resamples y and z entries until they are at least
    that far from zero (Euler-field checks are meaningless on the zero
    section); it must be below 1, the box's half-width, or no draw could
    qualify.
    """
    if min_vertical is not None and not min_vertical < 1.0:
        raise ValueError(f"min_vertical must be < 1, got {min_vertical}")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-1.0, 1.0, size=(3, m, npoints))
    if min_vertical is not None:
        for blk in (1, 2):
            small = np.abs(coords[blk]) < min_vertical
            while np.any(small):
                coords[blk][small] = rng.uniform(-1.0, 1.0, size=int(small.sum()))
                small = np.abs(coords[blk]) < min_vertical
    return ChartPoint(*coords)
