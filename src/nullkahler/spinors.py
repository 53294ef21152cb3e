"""Two-spinor conventions: epsilon calculus, the vector-bispinor
isomorphism, self-dual/anti-self-dual splitting, and the Sigma basis.

Conventions, pinned by the round-trip tests:

* epsilon_{01} = epsilon_{0'1'} = 1 and epsilon^{01} = 1, so that
  epsilon^{AB} epsilon_{CB} = delta^A_C (north-west / south-east).
* iota_A = iota^B epsilon_{BA}, iota^A = epsilon^{AB} iota_B.
* Component ordering (V^0, V^1, V^2, V^3) with quadratic form
  V0^2 - V1^2 + V2^2 - V3^2; the toolkit never assumes a
  diag(+,+,-,-) ordering.
* Sigma^{A'B'} = (1/2) epsilon_{AB} e^{AA'} wedge e^{BB'} and the mirror
  formula for Sigma^{AB}; this normalization satisfies the coframe
  reconstruction identity exactly.

All operations act on plain numpy arrays and broadcast over a leading
batch axis where sensible.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

EPS_LOWER = np.array([[0.0, 1.0], [-1.0, 0.0]])
EPS_UPPER = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: index pairs labelling symmetric 2-spinor objects
SYM_PAIRS = ((0, 0), (0, 1), (1, 1))


class SpinorError(ValueError):
    pass


class Spinor2:
    """Two real components with chirality and variance tags."""

    def __init__(self, components, chirality: str = "primed",
                 variance: str = "upper"):
        self.components = tuple(float(c) for c in components)
        self.chirality = chirality
        self.variance = variance
        if len(self.components) != 2:
            raise SpinorError("a 2-spinor has two components")
        if self.chirality not in ("primed", "unprimed"):
            raise SpinorError(f"bad chirality {self.chirality!r}")
        if self.variance not in ("upper", "lower"):
            raise SpinorError(f"bad variance {self.variance!r}")

    @property
    def array(self) -> np.ndarray:
        return np.array(self.components)


def raise_lower(s: Spinor2, direction: str) -> Spinor2:
    """iota_A = iota^B eps_BA (lower); iota^A = eps^AB iota_B (raise)."""
    if direction == "lower":
        if s.variance != "upper":
            raise SpinorError("can only lower an upper-index spinor")
        out = s.array @ EPS_LOWER  # iota_A = iota^B eps_{BA}
        return Spinor2(tuple(out), s.chirality, "lower")
    if direction == "raise":
        if s.variance != "lower":
            raise SpinorError("can only raise a lower-index spinor")
        out = EPS_UPPER @ s.array  # iota^A = eps^{AB} iota_B
        return Spinor2(tuple(out), s.chirality, "upper")
    raise SpinorError(f"direction must be 'raise' or 'lower', got {direction!r}")


def contract(a: Spinor2, b: Spinor2) -> float:
    """Epsilon contraction of two same-chirality spinors; antisymmetric."""
    if a.chirality != b.chirality:
        raise SpinorError("cannot contract spinors of different chirality")
    if a.variance == b.variance:
        # eps_{01} = eps^{01} = 1: exactly a0 b1 - a1 b0 either way
        a0, a1 = a.components
        b0, b1 = b.components
        return a0 * b1 - a1 * b0
    upper, lower = (a, b) if a.variance == "upper" else (b, a)
    sign = 1.0 if a.variance == "upper" else -1.0  # u^A v_A = -u_A v^A
    return float(sign * (upper.components[0] * lower.components[0]
                         + upper.components[1] * lower.components[1]))


def vector_to_bispinor(v) -> np.ndarray:
    """V^a -> V^{AA'} = [[V0+V3, V1+V2], [V1-V2, V0-V3]].

    det V^{AA'} equals the split-signature quadratic form
    V0^2 - V1^2 + V2^2 - V3^2.  Batched over a leading axis.
    """
    v = np.asarray(v, dtype=float)
    v0, v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2], v[..., 3]
    out = np.empty(v.shape[:-1] + (2, 2))
    out[..., 0, 0] = v0 + v3
    out[..., 0, 1] = v1 + v2
    out[..., 1, 0] = v1 - v2
    out[..., 1, 1] = v0 - v3
    return out


def bispinor_to_vector(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    out = np.empty(m.shape[:-2] + (4,))
    out[..., 0] = (m[..., 0, 0] + m[..., 1, 1]) / 2.0
    out[..., 1] = (m[..., 0, 1] + m[..., 1, 0]) / 2.0
    out[..., 2] = (m[..., 0, 1] - m[..., 1, 0]) / 2.0
    out[..., 3] = (m[..., 0, 0] - m[..., 1, 1]) / 2.0
    return out


class TwoFormValue:
    """Antisymmetric 4x4 component array of a two-form at a point."""

    def __init__(self, components, chart: tuple = ("w", "z", "x", "y")):
        arr = np.asarray(components, dtype=float)
        if arr.shape[-2:] != (4, 4):
            raise SpinorError("two-form components must be 4x4")
        if not np.allclose(arr, -np.swapaxes(arr, -1, -2), atol=0.0):
            raise SpinorError("two-form components must be antisymmetric")
        self.components = arr
        self.chart = chart


def permutation_parity(seq) -> int:
    """+1 or -1 by the number of inversions of a sequence of distinct items."""
    sign = 1
    for i, j in combinations(range(len(seq)), 2):
        if seq[i] > seq[j]:
            sign = -sign
    return sign


def _perm_symbol(n: int) -> np.ndarray:
    symbol = np.zeros((n,) * n)
    for perm in permutations(range(n)):
        symbol[perm] = permutation_parity(perm)
    return symbol


_PERM4 = _perm_symbol(4)
_PERM3 = _perm_symbol(3)


def levi_civita(g: np.ndarray, orientation: int = 1) -> np.ndarray:
    """Volume tensor eps_{a...} = orientation * sqrt|det g| * [a...]."""
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    symbol = _PERM4 if n == 4 else _PERM3 if n == 3 else _perm_symbol(n)
    scale = orientation * np.sqrt(np.abs(np.linalg.det(g)))
    scale = np.asarray(scale)
    return scale.reshape(scale.shape + (1,) * n) * symbol


def hodge_star_values(omega: np.ndarray, degree: int, g: np.ndarray,
                      orientation: int = 1) -> np.ndarray:
    """Pointwise Hodge dual of p-form components (batched).

    (*w)_{b...} = (1/p!) w^{a1..ap} eps_{a1..ap b...}; indices raised
    with the inverse metric.  Works for 3- and 4-dimensional metrics.
    """
    g = np.asarray(g, dtype=float)
    omega = np.asarray(omega, dtype=float)
    ginv = np.linalg.inv(g)
    eps = levi_civita(g, orientation)
    n = g.shape[-1]
    if degree == 0:
        scalar = omega.reshape(omega.shape + (1,) * n) if omega.ndim else omega
        return scalar * eps
    letters = "abcd"[:degree]
    out = "efgh"[: n - degree]
    raised = omega
    for k, letter in enumerate(letters):
        upper = letters[:k] + "Z" + letters[k + 1:]
        raised = np.einsum(f"...{letter}Z,...{upper}->...{letters}", ginv, raised)
    fact = float(math.factorial(degree))
    return np.einsum(f"...{letters},...{letters}{out}->...{out}", raised, eps) / fact


def sd_asd_split(omega, g, orientation: int = 1):
    """Split a two-form value into (self-dual, anti-self-dual) parts.

    In split signature the Hodge star squares to +1 on two-forms, so the
    projectors are (1 +- star)/2 with real eigenspaces.
    """
    arr = omega.components if isinstance(omega, TwoFormValue) else np.asarray(omega)
    g = np.asarray(g, dtype=float)
    if np.any(np.abs(np.linalg.det(g)) < 1e-14):
        raise SpinorError("degenerate metric")
    star = hodge_star_values(arr, 2, g, orientation)
    sd = (arr + star) / 2.0
    asd = (arr - star) / 2.0
    if isinstance(omega, TwoFormValue):
        return TwoFormValue(sd, omega.chart), TwoFormValue(asd, omega.chart)
    return sd, asd


def sigma_basis(coframe_values: np.ndarray):
    """Sigma bases from coframe values E[..., A, A', mu].

    Returns (sigma_primed, sigma_unprimed) of shape (..., 3, 4, 4) in the
    pair order ((0,0), (0,1), (1,1)); primed entries are self-dual, the
    unprimed anti-self-dual, for the orientation induced by the coframe.
    """
    e = np.asarray(coframe_values, dtype=float)
    if e.shape[-3:] != (2, 2, 4):
        raise SpinorError("coframe values must have shape (..., 2, 2, 4)")
    wedge = np.einsum("...abm,...cdn->...abcdmn", e, e) \
        - np.einsum("...abn,...cdm->...abcdmn", e, e)
    # Sigma^{A'B'} = 1/2 eps_{AB} e^{AA'} ^ e^{BB'}
    sp_full = 0.5 * np.einsum("ac,...abcdmn->...bdmn", EPS_LOWER, wedge)
    su_full = 0.5 * np.einsum("bd,...abcdmn->...acmn", EPS_LOWER, wedge)
    shape = e.shape[:-3]
    sigma_p = np.empty(shape + (3, 4, 4))
    sigma_u = np.empty(shape + (3, 4, 4))
    for k, (i, j) in enumerate(SYM_PAIRS):
        sigma_p[..., k, :, :] = sp_full[..., i, j, :, :]
        sigma_u[..., k, :, :] = su_full[..., i, j, :, :]
    return sigma_p, sigma_u
