"""Deterministic sample plans for residual sweeps.

Residual norms are taken over a fixed low-discrepancy (Halton) sequence of
interior points, so every run of a check visits the same points in the
same order.  A seeded generator supplies any auxiliary draws (for example
spectral-parameter values), keeping reports reproducible.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_PRIMES = (2, 3, 5, 7, 11, 13)

#: fraction of each box edge kept away from the boundary
INTERIOR_INSET = 0.05


def _van_der_corput(count: int, base: int) -> np.ndarray:
    """Radical inverses of 1..count in ``base`` (index 0, the origin, is
    skipped), one pass over all points per digit.

    Each point sees the operations of the scalar digit loop in the same
    order; a point whose digits ran out adds exact zeros.
    """
    n = np.arange(1, count + 1)
    out = np.zeros(count)
    f = 1.0
    while n.any():
        f /= base
        out += f * (n % base)
        n //= base
    return out


@cache
def halton(count: int, dim: int) -> np.ndarray:
    """Unscrambled Halton points in (0, 1)^dim, deterministic forever.

    Built once per (count, dim) and shared by every caller, so the array
    is read-only."""
    if dim > len(_PRIMES):
        raise ValueError(f"halton supports up to {len(_PRIMES)} dimensions")
    unit = np.stack([_van_der_corput(count, _PRIMES[k]) for k in range(dim)],
                    axis=-1)
    unit.setflags(write=False)
    return unit


class Box:
    """Axis-aligned sampling box: tuple of (lo, hi) per coordinate, each
    edge finite with lo below hi."""

    def __init__(self, bounds):
        self.bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
        for lo, hi in self.bounds:
            if not np.isfinite((lo, hi)).all():
                raise ValueError(f"non-finite box edge ({lo}, {hi})")
            if not hi > lo:
                raise ValueError(f"empty box edge ({lo}, {hi})")

    @property
    def dim(self):
        return len(self.bounds)


class SamplePlan:
    """A box, a point count and a seed; `points()` is pure."""

    def __init__(self, box: Box, count: int = 100, seed: int = 20240):
        self.box = box
        self.count = count
        self.seed = seed

    def points(self) -> np.ndarray:
        unit = halton(self.count, self.box.dim)
        lo = np.array([b[0] for b in self.box.bounds])
        hi = np.array([b[1] for b in self.box.bounds])
        span = hi - lo
        return lo + span * (INTERIOR_INSET + (1 - 2 * INTERIOR_INSET) * unit)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)
