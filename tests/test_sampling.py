import numpy as np
import pytest

from nullkahler.sampling import (
    _PRIMES,
    INTERIOR_INSET,
    Box,
    SamplePlan,
    _van_der_corput,
    halton,
)


def scalar_van_der_corput(count, base):
    """The per-point digit loop, kept as the reference."""
    out = np.zeros(count)
    for i in range(count):
        n, f, x = i + 1, 1.0, 0.0
        while n > 0:
            f /= base
            x += f * (n % base)
            n //= base
        out[i] = x
    return out


@pytest.mark.parametrize("base", _PRIMES)
@pytest.mark.parametrize("count", [1, 7, 60, 100, 1000])
def test_van_der_corput_matches_scalar_loop(base, count):
    got = _van_der_corput(count, base)
    assert got.dtype == np.float64
    assert got.tobytes() == scalar_van_der_corput(count, base).tobytes()


@pytest.mark.parametrize("dim", [3, 4])
@pytest.mark.parametrize("count", [60, 100])
def test_points_are_built_from_a_shared_read_only_unit_set(dim, count):
    unit = halton(count, dim)
    assert halton(count, dim) is unit
    assert not unit.flags.writeable
    with pytest.raises(ValueError):
        unit[0, 0] = 0.5
    # the points of a plan, with the unit set built afresh
    box = Box(((-1.0, 1.0), (-0.5, 2.0), (0.7, 1.7), (-1.0, 0.5))[:dim])
    fresh = np.stack([_van_der_corput(count, _PRIMES[k]) for k in range(dim)],
                     axis=-1)
    lo, hi = (np.array(side) for side in zip(*box.bounds))
    expected = lo + (hi - lo) * (INTERIOR_INSET + (1 - 2 * INTERIOR_INSET) * fresh)
    for _ in range(2):
        points = SamplePlan(box, count).points()
        assert points.flags.writeable
        assert points.tobytes() == expected.tobytes()
