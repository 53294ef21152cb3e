"""Two independent curvature pipelines and the ASD null-Kahler checkers.

Oracle path: the lowered Riemann tensor in one pass from the metric's
first and second derivatives, then Ricci and the scalar in coordinates.
The dual frame solders the bivectors Sigma^{ab}_{AB} and
Sigma'^{ab}_{A'B'}, and contracting both pairs of the Riemann tensor
with one of them reads off that chirality's curvature spinor X, by the
split of a two-form into eps_{AB} phi_{A'B'} + psi_{AB} eps_{A'B'}
(Penrose & Rindler, *Spinors and Space-Time* vol. 1); the Weyl spinor
is X less its scalar term (below).

Cartan path: spin connection from the first structure equations (a
24x24 system per point, solved in the frame basis, where its matrix is
one constant, and differentiated implicitly for exactness: the four first
partials of Gamma solve the same system), curvature two-forms
R = dGamma + Gamma ^ Gamma, then expansion in the Sigma basis.

Both paths report one convention, so their components agree with no
conversion factor.  The Riemann tensor is the one of R = dGamma +
Gamma ^ Gamma with Ricci R_{bd} = R^a_{bad}, and the curvature spinors
follow Penrose & Rindler (*Spinors and Space-Time* vol. 1, sec. 4.6;
Dunajski, *Solitons, Instantons and Twistors*, OUP 2010, ch. 9):

    R_{abcd} = X_{ABCD} eps_{A'B'} eps_{C'D'}
               + Phi_{ABC'D'} eps_{A'B'} eps_{CD} + (primed mirror),
    X_{ABCD} = Psi_{ABCD} + (R/24)(eps_{AC} eps_{BD} + eps_{AD} eps_{BC}),
    Phi_{ab} = -1/2 (R_{ab} - 1/4 R g_{ab}),

with g_{ab} = eps_{AB} eps_{A'B'}.  ``c_asd``/``c_sd`` are Psi and its
primed mirror, ``phi`` is Phi and ``scalar`` is R.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .geometry import (
    EPS_LOWER,
    EPS_UPPER,
    SYM_PAIRS,
    CoFrame,
    MetricField,
    dual_vector_values,
    inverse_metric_values,
)

#: strictly increasing coordinate index pairs for two-form components
PAIRS6 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

#: slots of a totally symmetric rank-4 spinor, by number of 1-indices
WEYL_SLOTS = ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1))

def _soldered_sigma() -> tuple:
    """Sigma bases in bispinor slots: universal constant arrays.

    e^{EA'}_mu D^mu_{CC'} = delta^E_C delta^{A'}_{C'} makes the soldered
    Sigma coframe-independent:
    Sigma^{EF}[CC'DD'] = 1/2 eps_{C'D'} (d^E_C d^F_D + d^E_D d^F_C),
    and the primed mirror.  Index layout: [E, F, C, C', D, D'].
    """
    delta = np.eye(2)
    sig_u = 0.5 * (
        np.einsum("pr,ec,fd->efcpdr", EPS_LOWER, delta, delta)
        + np.einsum("pr,ed,fc->efcpdr", EPS_LOWER, delta, delta)
    )
    sig_p = 0.5 * (
        np.einsum("cd,ep,fr->efcpdr", EPS_LOWER, delta, delta)
        + np.einsum("cd,er,fp->efcpdr", EPS_LOWER, delta, delta)
    )
    return sig_u, sig_p


_SIG_U_SOLD, _SIG_P_SOLD = _soldered_sigma()


def _sym4_basis(slot) -> np.ndarray:
    t = np.zeros((2, 2, 2, 2))
    for perm in set(permutations(slot)):
        t[perm] = 1.0
    return t


def _phi_basis(u_pair, p_pair) -> np.ndarray:
    t = np.zeros((2, 2, 2, 2))
    for (a, b) in {u_pair, u_pair[::-1]}:
        for (c, d) in {p_pair, p_pair[::-1]}:
            t[a, b, c, d] = 1.0
    return t


#: eps_{AC} eps_{BD} + eps_{AD} eps_{BC}, the Lambda = R/24 term of X_{ABCD}
_EPS_SYM = (np.einsum("ac,bd->abcd", EPS_LOWER, EPS_LOWER)
            + np.einsum("ad,bc->abcd", EPS_LOWER, EPS_LOWER))


def _model_block(x_spinor, phi, sig_same, sig_other) -> np.ndarray:
    """Soldered structure-equation block R^A_B from lowered spinors.

    The lowered block is R_{AB} = X_{ABCD} Sigma^{CD} + Phi_{ABC'D'}
    Sigma^{C'D'}.  The structure equations carry delta^{A'}_{B'} beside
    Gamma^A_B, and g_{ab} = eps_{AB} eps_{A'B'} lowers it to
    eps_{B'A'} = -eps_{A'B'}; R_{ab} = R_{AB} eps_{A'B'} + eps_{AB} R_{A'B'}
    therefore holds for R_{AB} = eps_{AC} R^C_B, so R^A_B = R_{EB} eps^{EA}.
    """
    lowered = (np.einsum("abcd,cdCPDR->abCPDR", x_spinor, sig_same)
               + np.einsum("abcd,cdCPDR->abCPDR", phi, sig_other))
    return np.einsum("ea,ebCPDR->abCPDR", EPS_UPPER, lowered)


def _model_unprimed(c_asd, phi, r_scalar) -> np.ndarray:
    """Soldered R^A_B from (Psi_{ABCD}, Phi_{ABC'D'}, R), lower-index inputs.

    X_{ABCD} = Psi_{ABCD} + (R/24)(eps_{AC} eps_{BD} + eps_{AD} eps_{BC}).
    """
    return _model_block(c_asd + (r_scalar / 24.0) * _EPS_SYM, phi,
                        _SIG_U_SOLD, _SIG_P_SOLD)


def _model_primed(c_sd, phi, r_scalar) -> np.ndarray:
    """Soldered R^{A'}_{B'}; shares Phi (stored [A, B, A', B']) and R."""
    return _model_block(c_sd + (r_scalar / 24.0) * _EPS_SYM,
                        np.einsum("cdab->abcd", phi), _SIG_P_SOLD, _SIG_U_SOLD)


def _curvature_model_matrix() -> np.ndarray:
    """Constant 128x20 map (C_asd5, C_sd5, Phi9, R) -> soldered forms."""
    zero4 = np.zeros((2, 2, 2, 2))
    columns = []
    for slot in WEYL_SLOTS:
        columns.append(np.concatenate([
            _model_unprimed(_sym4_basis(slot), zero4, 0.0).ravel(),
            np.zeros(64),
        ]))
    for slot in WEYL_SLOTS:
        columns.append(np.concatenate([
            np.zeros(64),
            _model_primed(_sym4_basis(slot), zero4, 0.0).ravel(),
        ]))
    for u_pair in SYM_PAIRS:
        for p_pair in SYM_PAIRS:
            phi = _phi_basis(u_pair, p_pair)
            columns.append(np.concatenate([
                _model_unprimed(zero4, phi, 0.0).ravel(),
                _model_primed(zero4, phi, 0.0).ravel(),
            ]))
    columns.append(np.concatenate([
        _model_unprimed(zero4, zero4, 1.0).ravel(),
        _model_primed(zero4, zero4, 1.0).ravel(),
    ]))
    return np.stack(columns, axis=-1)


_MODEL_M = _curvature_model_matrix()
_MODEL_PINV = np.linalg.pinv(_MODEL_M)


class RawCurvature:
    """Coordinate-oracle curvature at a batch of points.

    ``christoffel[n, f, a, d]`` holds the Levi-Civita symbols of the
    second kind, Gamma^f_{ad} = g^{fe} Gamma_{e,ad}, symmetric in (a, d):
    the ones the Riemann tensor was built from, kept for covariant
    derivatives at the same points.
    """

    def __init__(self, riemann_low, ricci, scalar, metric, metric_inv,
                 christoffel):
        self.riemann_low = riemann_low  # R_{abcd}
        self.ricci = ricci              # R_{ab}
        self.scalar = scalar            # R
        self.metric = metric
        self.metric_inv = metric_inv
        self.christoffel = christoffel  # Gamma^f_{ad}

    def ricci_square(self) -> np.ndarray:
        """Ric_ab Ric^ab at each point."""
        up = np.einsum("nac,nbd,ncd->nab", self.metric_inv, self.metric_inv,
                       self.ricci)
        return np.einsum("nab,nab->n", self.ricci, up)


class CurvatureReport:
    """Spinor-labelled curvature components at a batch of points.

    ``c_asd``/``c_sd`` hold the five independent components of the
    anti-self-dual / self-dual Weyl spinors (all indices lowered, ordered
    by the number of 1-indices); ``phi`` is the 3x3 block of
    Phi_{ABA'B'} = -1/2 (trace-free Ricci), indexed by (unprimed pair,
    primed pair).  ``raw`` is the coordinate curvature the oracle path
    projected (so Ricci needs no second pass); ``None`` on the Cartan path.
    The Cartan path sets every field when it fits; the oracle's
    ``OracleReport`` computes ``c_asd``, ``phi`` and ``fit_residual`` on
    first read.
    """

    def __init__(self, c_asd, c_sd, phi, scalar, fit_residual: float,
                 raw: RawCurvature | None):
        self.c_asd = c_asd
        self.c_sd = c_sd
        self.phi = phi
        self.scalar = scalar
        self.fit_residual = fit_residual
        self.raw = raw


# --- coordinate oracle --------------------------------------------------------

def coordinate_curvature(metric: MetricField, points, memo=None) -> RawCurvature:
    """Independent curvature oracle from coordinate formulas.

    The lowered Riemann tensor comes straight from the metric jets
    (Misner, Thorne & Wheeler, *Gravitation*, ch. 8):
    R_{abcd} = 1/2 (g_{ad,bc} + g_{bc,ad} - g_{ac,bd} - g_{bd,ac})
               + Gamma_{f,bc} Gamma^f_{ad} - Gamma_{f,bd} Gamma^f_{ac},
    with Gamma_{f,bc} = 1/2 (g_{fb,c} + g_{fc,b} - g_{bc,f}) and
    Gamma^f_{ad} = g^{fe} Gamma_{e,ad}; both terms are S_{abcd} - S_{abdc}
    for one S.  Ricci is R_{bd} = g^{ac} R_{abcd}.  The three metric jets
    share one evaluation memo, ``memo`` if given (it must belong to
    ``points``).
    """
    memo = {} if memo is None else memo
    gv = metric.evaluate(points, memo)
    ginv = inverse_metric_values(gv)
    dg = metric.first_derivatives(points, memo)    # dg[n, f, b, c] = g_{bc,f}
    ddg = metric.second_derivatives(points, memo)  # ddg[n, b, c, a, d] = g_{ad,bc}
    npts, dim = gv.shape[:2]
    # first kind [n, f, b, c]: g_{fc,b} + g_{fb,c} - g_{bc,f}, halved
    swapped = dg.transpose(0, 2, 1, 3)
    first = 0.5 * (swapped + swapped.transpose(0, 1, 3, 2) - dg)
    second = ginv @ first.reshape(npts, dim, dim * dim)  # [n, f, (a, d)]
    # Gamma_{f,bc} Gamma^f_{ad} as [n, b, c, a, d]
    quad = first.reshape(npts, dim, dim * dim).transpose(0, 2, 1) @ second
    # in pair layout [n, (b, c), (a, d)] the Hessian is g_{ad,bc} and its
    # transpose g_{bc,ad}: half[n, (b, c), (a, d)] is S_{abcd}
    hessian = ddg.reshape(npts, dim * dim, dim * dim)
    half = hessian + hessian.transpose(0, 2, 1)
    half *= 0.5
    half += quad
    pairs = half.reshape((npts,) + (dim,) * 4)  # [n, b, c, a, d]
    riem_low = np.subtract(pairs.transpose(0, 3, 1, 2, 4),
                           pairs.transpose(0, 3, 1, 4, 2),
                           out=np.empty((npts,) + (dim,) * 4))
    ricci = np.einsum("nac,nabcd->nbd", ginv, riem_low)
    scalar = np.einsum("nbd,nbd->n", ginv, ricci)
    return RawCurvature(riem_low, ricci, scalar, gv, ginv,
                        second.reshape((npts,) + (dim,) * 3))


# --- cartan path ---------------------------------------------------------------

def _mixed_coefficients() -> np.ndarray:
    """M[A, B, p]: weight of symmetric unknown Gamma_p in Gamma^A_B."""
    m = np.zeros((2, 2, 3))
    for p, (c, d) in enumerate(SYM_PAIRS):
        for a in range(2):
            for b in range(2):
                if b == d:
                    m[a, b, p] += EPS_UPPER[a, c]
                if c != d and b == c:
                    m[a, b, p] += EPS_UPPER[a, d]
    return m


_MIXED = _mixed_coefficients()


class SpinConnection:
    """Spin-connection one-forms and their exact first derivatives.

    ``unprimed``/``primed`` have shape (n, 3, 4): symmetric-pair index
    then coordinate component; derivative arrays add a leading coordinate
    axis (n, 4, 3, 4).  ``residual`` is the structure-equation residual
    and ``dual`` the frame vectors D[n, A, A', mu] of the coframe it was
    solved for.
    """

    def __init__(self, unprimed, primed, d_unprimed, d_primed,
                 residual: float, dual):
        self.unprimed = unprimed
        self.primed = primed
        self.d_unprimed = d_unprimed
        self.d_primed = d_primed
        self.residual = residual
        self.dual = dual


def _structure_rows():
    rows = []
    for a in range(2):
        for ap in range(2):
            for pair in PAIRS6:
                rows.append((a, ap, pair))
    return rows


def _structure_map() -> np.ndarray:
    """The (16, 576) map whose product ``e.reshape(n, 16) @ map`` is the
    24x24 structure matrix M(e) of each point, flattened.

    Row (A, A', (mu, nu)) of M(e) Gamma is the (mu, nu) component of
    e^{BA'} ^ Gamma^A_B + e^{AB'} ^ Gamma^{A'}_{B'}.  With Gamma^A_B =
    _MIXED[A, B, p] Gamma_p, component k = nu of the unprimed unknown p
    meets e^{BA'}_mu with weight _MIXED[A, B, p] and component k = mu
    meets e^{BA'}_nu with the opposite weight; the primed unknowns (the
    last 12 columns) read e^{AB'} with _MIXED[A', B', p] alike.  Every
    other entry is zero, and no entry is written twice.
    """
    mixed = _MIXED.tolist()
    comps, slots, weights = [], [], []
    for row, (a, ap, (mu, nu)) in enumerate(_structure_rows()):
        for p in range(3):
            for b in range(2):
                for block, first, second, m in ((0, b, ap, mixed[a][b][p]),
                                                (12, a, b, mixed[ap][b][p])):
                    if m:
                        comp = 8 * first + 4 * second  # e[first, second, :]
                        col = 24 * row + block + 4 * p
                        comps += [comp + mu, comp + nu]
                        slots += [col + nu, col + mu]
                        weights += [m, -m]
    out = np.zeros((16, 576))
    out[comps, slots] = weights
    return out


#: the structure matrix is linear in e: row k holds it for the k-th unit
#: coframe.  Each entry reads at most one component of e, with weight +-1,
#: so ``e @ _STRUCTURE_MAP`` equals the matrix assembled entry by entry
#: bit for bit
_STRUCTURE_MAP = _structure_map()


#: (MAP Gamma)[k, i] = sum_j MAP[k, i, j] Gamma_j as one product:
#: ``Gamma @ _STRUCTURE_MAP_T`` holds it flattened over (k, i)
_STRUCTURE_MAP_T = np.ascontiguousarray(
    _STRUCTURE_MAP.reshape(16, 24, 24).transpose(2, 0, 1).reshape(24, 384))


def _rhs_indices() -> tuple:
    """Flat indices into de[..., k, A, A', mu] of the two terms of each
    right-hand side row (A, A', (mu, nu)): d_mu e^{AA'}_nu - d_nu e^{AA'}_mu."""
    a, ap, mu, nu = np.array([(a, ap, mu, nu)
                              for a, ap, (mu, nu) in _structure_rows()]).T
    return (np.ravel_multi_index((mu, a, ap, nu), (4, 2, 2, 4)),
            np.ravel_multi_index((nu, a, ap, mu), (4, 2, 2, 4)))


_RHS_PLUS, _RHS_MINUS = _rhs_indices()


def _structure_matrix(e: np.ndarray) -> np.ndarray:
    return (e.reshape(e.shape[0], 16) @ _STRUCTURE_MAP).reshape(-1, 24, 24)


#: inverse of the structure matrix of the unit coframe: the structure
#: equations in frame components, where their matrix is constant.  Its
#: entries are multiples of 1/4, so rounding makes it exact.  It is taken
#: by ``pinv``, which the import already runs for ``_MODEL_PINV``: a first
#: ``inv`` call would raise every process's peak memory by about 0.3 MB
_FRAME_INV = np.round(4 * np.linalg.pinv(
    _structure_matrix(np.eye(4).reshape(1, 2, 2, 4))[0])) / 4


def _structure_rhs(de: np.ndarray) -> np.ndarray:
    """The 24 right-hand sides of de[..., k, A, A', mu], over any leading axes."""
    flat = de.reshape(de.shape[:-4] + (64,))
    return flat[..., _RHS_PLUS] - flat[..., _RHS_MINUS]


_PAIR_FIRST, _PAIR_SECOND = (np.array(side) for side in zip(*PAIRS6))


def _second_compound(dual: np.ndarray) -> np.ndarray:
    """compound[n, (mu, nu), (c, d)] = D^mu_c D^nu_d - D^nu_c D^mu_d over
    mu < nu and c < d, from the dual frame D[n, A, A', mu]: it takes a
    two-form's coordinate components to its frame components."""
    d = dual.reshape(dual.shape[0], 4, 4)  # d[n, c, mu] = D^mu_c
    first, second = _PAIR_FIRST, _PAIR_SECOND
    return (d[:, first[None, :], first[:, None]]
            * d[:, second[None, :], second[:, None]]
            - d[:, first[None, :], second[:, None]]
            * d[:, second[None, :], first[:, None]])


def _frame_solve(rhs, frame, compound):
    """M(e)^{-1} rhs[n, ..., 24] as three products: the two-form rows to
    frame components (``compound``), the constant frame-basis inverse,
    and the frame components of Gamma back to coordinates (``frame``,
    E[n, c, mu]).  Each point's right-hand sides are stacked, so each
    point-dependent product is one matrix product per point."""
    npts, shape = rhs.shape[0], rhs.shape
    rows = rhs.reshape(npts, -1, 6) @ compound
    gamma = rows.reshape(shape) @ _FRAME_INV.T
    return (gamma.reshape(npts, -1, 4) @ frame).reshape(shape)


def spin_connection(coframe: CoFrame, points) -> SpinConnection:
    """Solve the first structure equations for Gamma_{AB}, Gamma_{A'B'}.

    de^{AA'} = e^{BA'} ^ Gamma^A_B + e^{AB'} ^ Gamma^{A'}_{B'} is a 24x24
    system M(e) Gamma = b(de) per point.  In the frame basis it has a
    constant matrix: with Gamma_p = gamma_{p,c} e^c (gamma = Gamma D for
    the dual frame D = E^{-1}) and the two-form rows read in the basis
    e^c ^ e^d, it is M(1) gamma = (Lambda^2 D) b, where M(1) is the
    matrix of the unit coframe and Lambda^2 D, with entries
    D^mu_c D^nu_d - D^nu_c D^mu_d over mu < nu and c < d, takes
    coordinate two-form components to frame ones.  So
    Gamma = (M(1)^{-1} (Lambda^2 D) b) E, with M(1)^{-1} computed once.
    The derivative M(e) d_l Gamma = b(d_l de) - M(d_l e) Gamma gives the
    four d_l Gamma by the same three products; M is linear in e, so
    M(d_l e) Gamma is d_l e contracted with the constant map applied to
    Gamma.  The connection and its first derivatives are exact up to
    round-off, and the residual max|M(e) Gamma - b| is reported.  A
    degenerate coframe raises ``DegeneracyError`` when it is inverted.
    """
    memo = {}
    e = coframe.evaluate(points, memo)
    de = coframe.first_derivatives(points, memo)
    dde = coframe.second_derivatives(points, memo)
    npts = e.shape[0]
    dual = dual_vector_values(e)
    frame = e.reshape(npts, 4, 4)
    compound = _second_compound(dual)
    rhs = _structure_rhs(de)
    gamma_flat = _frame_solve(rhs, frame, compound)
    # the constant map applied to Gamma: e contracted with it is M(e) Gamma
    gmap = (gamma_flat @ _STRUCTURE_MAP_T).reshape(npts, 16, 24)
    mat_gamma = (e.reshape(npts, 1, 16) @ gmap)[:, 0]
    residual = float(np.max(np.abs(mat_gamma - rhs)))

    dmat_gamma = de.reshape(npts, 4, 16) @ gmap
    drhs = _structure_rhs(dde) - dmat_gamma
    dgamma_flat = _frame_solve(drhs, frame, compound)

    def split(flat):
        shaped = flat.reshape(flat.shape[:-1] + (2, 3, 4))
        return shaped[..., 0, :, :], shaped[..., 1, :, :]

    unprimed, primed = split(gamma_flat)
    d_unprimed, d_primed = split(dgamma_flat)
    return SpinConnection(unprimed, primed, d_unprimed, d_primed, residual, dual)


def curvature_two_forms(conn: SpinConnection):
    """R^A_B = dGamma^A_B + Gamma^A_C ^ Gamma^C_B (and primed mirror)."""
    mixing = _MIXED.reshape(4, 3)

    def build(sym, dsym):
        npts = sym.shape[0]
        # Gamma^A_B one-forms [n, A, B, k] and their partials [n, AB, l, k]
        mixed = (mixing @ sym).reshape(npts, 2, 2, 4)
        dmixed = (mixing @ dsym).transpose(0, 2, 1, 3)
        d_part = (dmixed - dmixed.transpose(0, 1, 3, 2)).reshape(npts, 2, 2, 4, 4)
        # Gamma^A_C Gamma^C_B [n, A, B, m, k], summed over C = 0, 1
        product = (mixed[:, :, 0, None, :, None] * mixed[:, None, 0, :, None, :]
                   + mixed[:, :, 1, None, :, None] * mixed[:, None, 1, :, None, :])
        return d_part + product - product.transpose(0, 1, 2, 4, 3)

    r_unprimed = build(conn.unprimed, conn.d_unprimed)
    r_primed = build(conn.primed, conn.d_primed)
    return r_unprimed, r_primed


def decompose_curvature(r_unprimed, r_primed, dual_vectors) -> CurvatureReport:
    """Read (C_ABCD, C_A'B'C'D', Phi, R) off the curvature two-forms.

    The forms are soldered into bispinor slots with the dual frame
    (where the Sigma basis becomes a universal constant array) and the
    two-form decomposition is inverted as one overdetermined linear fit:
    128 soldered components against 20 unknowns shared across both
    chirality blocks.  The fit residual is the structural error of the
    decomposition and is reported.
    """
    npts = r_unprimed.shape[0]
    # D R D^T per (A, B) block: [n, AB, CC', DD'] = D^m_{CC'} R_{mk} D^k_{DD'}
    dual = dual_vectors.reshape(npts, 1, 4, 4)
    forms = np.concatenate([r_unprimed.reshape(npts, 4, 4, 4),
                            r_primed.reshape(npts, 4, 4, 4)], axis=1)
    data = (dual @ forms @ dual.transpose(0, 1, 3, 2)).reshape(npts, 128)
    theta = data @ _MODEL_PINV.T
    fit = float(np.max(np.abs(data - theta @ _MODEL_M.T)))
    c_asd = theta[:, :5]
    c_sd = theta[:, 5:10]
    phi = theta[:, 10:19].reshape(npts, 3, 3)
    scalar = theta[:, 19]
    return CurvatureReport(c_asd, c_sd, phi, scalar, fit, raw=None)


def cartan_report(coframe: CoFrame, points) -> CurvatureReport:
    """Spinor-labelled components from the Cartan route."""
    conn = spin_connection(coframe, points)
    r_u, r_p = curvature_two_forms(conn)
    return decompose_curvature(r_u, r_p, conn.dual)


# --- oracle projections --------------------------------------------------------

def _extract_slots(t: np.ndarray) -> np.ndarray:
    cols = [t[(slice(None),) + slot] for slot in WEYL_SLOTS]
    return np.stack(cols, axis=-1)


def _sigma_primed(dual) -> np.ndarray:
    """Sigma'[n, X', Y', a, b] of the dual frame D[n, x, X', a]; see
    ``oracle_report``."""
    # Sigma'^{ab}_{XY} = D^a_{0X} D^b_{1Y} - D^a_{1X} D^b_{0Y}, [n, a, b, X, Y]
    d = dual.transpose(0, 1, 3, 2)  # d[n, x, a, X] = D^a_{xX}
    sigma = (d[:, 0, :, None, :, None] * d[:, 1, None, :, None, :]
             - d[:, 1, :, None, :, None] * d[:, 0, None, :, None, :])
    return sigma.transpose(0, 3, 4, 1, 2)


def _sigma_unprimed(dual) -> np.ndarray:
    """Sigma[n, x, y, a, b] of the dual frame D[n, x, X', a]; see
    ``oracle_report``."""
    # Sigma^{ab}_{xy} = D^a_{x0} D^b_{y1} - D^a_{x1} D^b_{y0}, [n, a, x, b, y]
    d = dual.transpose(0, 2, 3, 1)  # d[n, X, a, x] = D^a_{xX}
    sigma = (d[:, 0, :, :, None, None] * d[:, 1, None, None, :, :]
             - d[:, 1, :, :, None, None] * d[:, 0, None, None, :, :])
    return sigma.transpose(0, 2, 4, 1, 3)


#: flat slots (x X', y Y') of D Phi D^T that phi[u, v] reads: u is the
#: unprimed pair (x, y) and v the primed pair (X', Y'), both in SYM_PAIRS
_PHI_ROWS, _PHI_COLS = (
    np.array([[2 * u[k] + v[k] for v in SYM_PAIRS] for u in SYM_PAIRS])
    for k in (0, 1))


class OracleReport(CurvatureReport):
    """The oracle's ``CurvatureReport``: ``c_sd`` and ``scalar`` are
    computed when it is built, ``c_asd``, ``phi`` and ``fit_residual``
    when they are first read (see ``oracle_report``)."""

    def __init__(self, raw: RawCurvature, dual):
        npts = dual.shape[0]
        self.raw = raw
        self.scalar = raw.scalar
        self._dual = dual
        self._riemann = raw.riemann_low.reshape(npts, 16, 16)
        self._lam = (raw.scalar / 24.0)[:, None, None, None, None] * _EPS_SYM
        self._c_sd_full = self._weyl_spinor(_sigma_primed(dual))
        self.c_sd = _extract_slots(self._c_sd_full)

    def _weyl_spinor(self, sigma):
        """1/4 R_abcd S^ab_XY S^cd_ZW - (R/24) eps_sym"""
        sigma = sigma.reshape(sigma.shape[0], 4, 16)
        spin = sigma @ self._riemann @ sigma.transpose(0, 2, 1)
        return 0.25 * spin.reshape(-1, 2, 2, 2, 2) - self._lam

    @cached_property
    def _c_asd_full(self):
        return self._weyl_spinor(_sigma_unprimed(self._dual))

    @cached_property
    def c_asd(self):
        return _extract_slots(self._c_asd_full)

    @cached_property
    def fit_residual(self):
        return max(float(np.max(np.abs(full - full.transpose(axes))))
                   for full in (self._c_sd_full, self._c_asd_full)
                   for axes in ((0, 2, 1, 3, 4), (0, 1, 3, 2, 4)))

    @cached_property
    def phi(self):
        raw = self.raw
        phi_ab = -0.5 * (raw.ricci
                         - 0.25 * raw.scalar[:, None, None] * raw.metric)
        frame = self._dual.reshape(-1, 4, 4)  # rows (x, X'), columns a
        bis = frame @ phi_ab @ frame.transpose(0, 2, 1)
        return 0.5 * (bis + bis.transpose(0, 2, 1))[:, _PHI_ROWS, _PHI_COLS]


def oracle_report(metric: MetricField, coframe: CoFrame, points,
                  memo=None) -> CurvatureReport:
    """Spinor-labelled components from the coordinate oracle.

    A two-form splits as eps_{AB} phi_{A'B'} + psi_{AB} eps_{A'B'}
    (Penrose & Rindler, *Spinors and Space-Time* vol. 1), so
    the soldered bivectors Sigma'^{ab}_{X'Y'} = eps^{xy} D^a_{xX'} D^b_{yY'}
    and Sigma^{ab}_{xy} = eps^{X'Y'} D^a_{xX'} D^b_{yY'} of the dual frame
    read each chirality's curvature spinor off the Riemann tensor:
    X_{X'Y'Z'W'} = 1/4 R_{abcd} Sigma'^{ab}_{X'Y'} Sigma'^{cd}_{Z'W'}
    (mirror for the unprimed part).  By the split
    X_{ABCD} = Psi_{ABCD} + (R/24)(eps_{AC} eps_{BD} + eps_{AD} eps_{BC})
    (sec. 4.6) the Weyl spinors are these projections less the scalar
    term.  What is left is totally symmetric unless R_{abcd} breaks the
    first Bianchi identity; the largest asymmetry is reported as the
    ``fit_residual``.  The trace-free Ricci part is soldered as
    Phi_{ab} = -1/2 (R_{ab} - 1/4 R g_{ab}), D Phi D^T read into the
    symmetrised 3x3 block.  Everything carries lower spinor labels.

    Only ``c_sd`` and ``scalar``, the sectors the suite's checks read,
    are computed here.  ``c_asd``, ``phi`` and ``fit_residual`` are
    computed when they are first read from the report (criterion 4 and
    ``path_agreement`` read them), each once.

    With eps^{01} = 1 each bivector is one difference of two broadcast
    products of dual-frame rows, built on its own.  Each keeps the
    memory layout that ``einsum`` gave it (Sigma' as [n, a, b, X', Y'],
    Sigma as [n, a, x, b, y], each transposed to [n, X, Y, a, b]): the
    projection multiplies them as strided views, and numpy's ``@`` picks
    its kernel by stride, so another layout moves the residuals by an
    ulp.

    The metric jets and the coframe are evaluated through one memo,
    ``memo`` if given (it must belong to ``points``).
    """
    memo = {} if memo is None else memo
    raw = coordinate_curvature(metric, points, memo)
    return OracleReport(raw, coframe.dual_vectors(points, memo))


# --- checks --------------------------------------------------------------------

def check_null_kahler(coframe: CoFrame, points, memo=None) -> tuple:
    """(d Sigma^{0'0'}, d Sigma^{0'1'}) at ``points``, one row per point of
    the three-form components at kappa < mu < nu, for the Sigma^{A'B'} of
    ``CoFrame.sigma``: the residuals of the closed-form conditions.

    Both are read off the coframe's values and first jet, with no form
    tree.  With F^{AA'}_{k mu} = d_k e^{AA'}_mu - d_mu e^{AA'}_k,

        d Sigma^{0'j} = 1/2 (F^{00'} ^ e^{1j} - F^{1j} ^ e^{00'}
                             - F^{10'} ^ e^{0j} + F^{0j} ^ e^{10'}),

    and (F ^ e)_{kappa mu nu} = F_{kappa mu} e_nu + F_{mu nu} e_kappa
    + F_{nu kappa} e_mu.  ``memo`` is an evaluation memo of ``points``.
    Ricci nullness is read off the oracle's ``raw``."""
    memo = {} if memo is None else memo
    # e[A, A', n, mu] and F[A, A', n, k, mu], the labels (A, A') leading
    e = coframe.evaluate(points, memo).transpose(1, 2, 0, 3)
    de = coframe.first_derivatives(points, memo).transpose(2, 3, 0, 1, 4)
    f = de - de.swapaxes(-1, -2)
    # each factor read once at the triples kappa < mu < nu
    k, m, v = np.array(list(combinations(range(4), 3))).T
    fkm, fmv, fvk = f[..., k, m], f[..., m, v], f[..., v, k]
    ek, em, ev = e[..., k], e[..., m], e[..., v]

    def wedge(a, b):
        """F^a ^ e^b at each triple; a and b are (A, A') labels."""
        return fkm[a] * ev[b] + fmv[a] * ek[b] + fvk[a] * em[b]

    return tuple(0.5 * (wedge((0, 0), (1, j)) - wedge((1, j), (0, 0))
                        - wedge((1, 0), (0, j)) + wedge((0, j), (1, 0)))
                 for j in (0, 1))


def path_agreement(oracle: CurvatureReport, cartan: CurvatureReport) -> dict:
    """Relative disagreement per sector, components compared directly.

    Both reports carry the module convention, so no factor enters: the
    Cartan fit raises the lowered block with R^A_B = R_{EB} eps^{EA}
    (the delta^{A'}_{B'} of the structure equations lowers to
    -eps_{A'B'}), and the oracle projects the Riemann tensor as
    1/4 R_{abcd} Sigma^{ab} Sigma^{cd} less (R/24)(eps_{AC} eps_{BD} +
    eps_{AD} eps_{BC}) and the trace-free Ricci tensor as
    Phi_{ab} = -1/2 (R_{ab} - 1/4 R g_{ab}).

    A sector that vanishes at working precision (its magnitude is
    negligible against the report as a whole) is compared absolutely at
    the global curvature scale; a ratio of two round-off floors is
    meaningless.
    """
    global_scale = max(
        np.max(np.abs(oracle.c_asd)), np.max(np.abs(oracle.c_sd)),
        np.max(np.abs(oracle.phi)), np.max(np.abs(oracle.scalar)), 1.0,
    )

    def rel(a, b):
        gap = float(np.max(np.abs(a - b)))
        scale = np.max(np.abs(a))
        if scale < 1e-9 * global_scale:
            return gap / global_scale
        return gap / scale

    return {
        "c_asd": rel(oracle.c_asd, cartan.c_asd),
        "c_sd": rel(oracle.c_sd, cartan.c_sd),
        "phi": rel(oracle.phi, cartan.phi),
        "scalar": rel(oracle.scalar, cartan.scalar),
    }
