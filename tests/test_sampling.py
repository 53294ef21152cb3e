import numpy as np
import pytest

from nullkahler.sampling import _PRIMES, _van_der_corput


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
