"""Nonlinear quadrature variance, its lambda-optimum, and ancilla optimization.

The noise operator of an order-N phase gate ancilla is
``y = lam * p - (N * kappa / lam**(N-1)) * x**(N-1)``; its variance,
minimized over ``lam > 0`` and compared against the vacuum optimum, measures
how nonlinearly squeezed a state is (ratio < 1, i.e. negative dB).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, InvalidInputError, NumericalError
from .fock import (QuantumState, apply_loss, loss_adjoint, make_superposition,
                   quadrature_ops)
from .genmodel import GenerationParams, rho_theta_phi_L

#: The open domain of lambda.  The optimum is a closed form, so nothing
#: searches this range; the name stays because benchmark tooling reads it to
#: count optima at a bound.
LAMBDA_BOUNDS = (0.0, math.inf)


class Moments(namedtuple("Moments", "p p2 xn xn2 sym")):
    """<p>, <p^2>, <x^(N-1)>, <x^(2N-2)> and <{p, x^(N-1)}>/2 of one state."""

    __slots__ = ()

    @property
    def var_p(self) -> float:
        return self.p2 - self.p ** 2

    @property
    def var_xn(self) -> float:
        return self.xn2 - self.xn ** 2

    @property
    def cov(self) -> float:
        """Symmetrised covariance of p and x^(N-1)."""
        return self.sym - self.p * self.xn


@dataclass(frozen=True)
class NlsqResult:
    """Optimal nonlinear variance of a state at a given gate order/strength."""

    variance_opt: float
    lambda_opt: float
    ratio: float
    db: float
    order: int
    kappa: float

    def __post_init__(self):
        if not self.lambda_opt > 0:
            raise InvalidInputError("lambda_opt must be positive")
        if not self.ratio > 0:
            raise InvalidInputError("ratio must be positive")

    @property
    def squeezed(self) -> bool:
        """True when the state beats every Gaussian state (ratio < 1)."""
        return self.ratio < 1.0

    def to_dict(self) -> dict:
        return {
            "variance_opt": float(self.variance_opt),
            "lambda_opt": float(self.lambda_opt),
            "ratio": float(self.ratio),
            "db": float(self.db),
            "order": int(self.order),
            "kappa": float(self.kappa),
        }


def _validate_order(order: int) -> None:
    if int(order) != order or order < 3:
        raise InvalidInputError(f"gate order must be an integer >= 3, got {order}")


def _moment_blocks(dim: int, order: int):
    """dim x dim blocks of p, p^2, x^(N-1), x^(2N-2) and {p, x^(N-1)}/2.

    Built at cutoff dim + 2(N-1) so the blocks give exact moments for any
    state supported on the first dim levels; each product forms only the
    block it keeps.  Raises NumericalError when a block overflows a float.
    """
    overflow = (f"moments of x^{order - 1} at gate order {order} "
                f"overflow a float at cutoff {dim}")
    # the (0, 0) entry of the x^(2N-2) block is this vacuum moment, so an
    # order where it overflows fails here, before the matrix power
    try:
        _vacuum_x_moment(2 * order - 2)
    except OverflowError:
        raise NumericalError(overflow) from None
    pad = 2 * (order - 1)
    xm, pm = quadrature_ops(dim + pad)
    with np.errstate(over="ignore", invalid="ignore"):
        xn = np.linalg.matrix_power(xm, order - 1)
        blocks = (
            pm[:dim, :dim],
            pm[:dim] @ pm[:, :dim],
            xn[:dim, :dim],
            xn[:dim] @ xn[:, :dim],
            (pm[:dim] @ xn[:, :dim] + xn[:dim] @ pm[:, :dim]) / 2.0,
        )
    # every entry of x^(N-1) that a block uses enters x^(2N-2) squared, so
    # the other blocks are finite where this one is
    if not np.all(np.isfinite(blocks[3])):
        raise NumericalError(overflow)
    return blocks


def _real_trace(rho: np.ndarray, block: np.ndarray) -> float:
    value = np.einsum("ij,ji->", block, rho)
    return float(value.real)


def noise_moments(state: QuantumState, order: int = 3) -> Moments:
    """First/second moments of p and x^(N-1) entering the noise variance.

    The operator blocks carry 2(N-1) levels of internal headroom, so the
    moments are exact at any state cutoff >= 2.
    """
    _validate_order(order)
    if state.dim < 2:
        raise DimensionError(f"state cutoff {state.dim} too small; need at least 2")
    bp, bp2, bxn, bxn2, bsym = _moment_blocks(state.dim, order)
    rho = state.matrix
    return Moments(
        p=_real_trace(rho, bp),
        p2=_real_trace(rho, bp2),
        xn=_real_trace(rho, bxn),
        xn2=_real_trace(rho, bxn2),
        sym=_real_trace(rho, bsym),
    )


def variance_from_moments(mom: Moments, lam: float, kappa: float, order: int) -> float:
    if not lam > 0:
        raise InvalidInputError(f"lambda must be positive, got {lam}")
    coeff = order * kappa / lam ** (order - 1)
    return lam ** 2 * mom.var_p + coeff ** 2 * mom.var_xn - 2.0 * lam * coeff * mom.cov


def nonlinear_variance(state: QuantumState, lam: float, kappa: float = 1.0,
                       order: int = 3) -> float:
    """Variance of lam*p - (N*kappa/lam^(N-1)) x^(N-1) in the given state."""
    mom = noise_moments(state, order)
    return variance_from_moments(mom, lam, kappa, order)


def _validate_kappa(kappa: float) -> None:
    if not (math.isfinite(kappa) and kappa != 0):
        raise InvalidInputError(
            f"gate strength kappa must be finite and nonzero, got {kappa}")


def _minimize_lambda(mom: Moments, kappa: float, order: int) -> tuple[float, float]:
    """(lambda, V(lambda)) at the minimum of V over lambda > 0, in closed form.

    With A = Var p, B = Var x^(N-1), C the symmetrised covariance and
    c = N kappa, V = A lam^2 + c^2 B lam^(2-2N) - 2 c C lam^(2-N), and
    dV/dlam = 0 is A u^2 + (N-2) c C u - (N-1) c^2 B = 0 in u = lam^N.  The
    roots multiply to -(N-1) c^2 B / A < 0, so exactly one is positive and
    V is unimodal on lambda > 0.  The root formula is picked by the sign of
    the linear term so that no cancellation occurs.
    """
    _validate_kappa(kappa)
    c = order * kappa
    a = mom.var_p
    b = (order - 2) * c * mom.cov
    q = (order - 1) * c * c * mom.var_xn
    if not (a > 0 and 0 < q < math.inf):
        raise NumericalError(
            f"no lambda optimum at gate order {order}: Var p = {a}, "
            f"(N-1) (N kappa)^2 Var x^(N-1) = {q}")
    root = math.hypot(b, 2.0 * math.sqrt(a * q))
    u = 2.0 * q / (b + root) if b >= 0 else (root - b) / (2.0 * a)
    lam = u ** (1.0 / order)
    return lam, variance_from_moments(mom, lam, kappa, order)


def _vacuum_x_moment(n: int) -> float:
    """<x^n> of the vacuum: (n-1)!!/2^(n/2) for even n, 0 for odd n.  The
    integer ratio is rounded once, so it raises OverflowError only where the
    moment itself exceeds the float range."""
    return 0.0 if n % 2 else math.prod(range(1, n, 2)) / 2 ** (n // 2)


def vacuum_optimum(kappa: float = 1.0, order: int = 3) -> tuple[float, float]:
    """(optimal variance, optimizing lambda) of the vacuum at (kappa, order),
    from its Gaussian moments; <p> and the covariance vanish."""
    _validate_order(order)
    try:
        xn2 = _vacuum_x_moment(2 * order - 2)
    except OverflowError:
        raise NumericalError(f"vacuum moment <x^{2 * order - 2}> at gate order "
                             f"{order} overflows a float") from None
    mom = Moments(p=0.0, p2=0.5, xn=_vacuum_x_moment(order - 1), xn2=xn2, sym=0.0)
    lam, val = _minimize_lambda(mom, kappa, order)
    return val, lam


def optimal_nonlinear_variance(state: QuantumState, kappa: float = 1.0,
                               order: int = 3) -> NlsqResult:
    """Minimize the nonlinear variance over lam > 0 (closed form) and report
    the ratio against the vacuum baseline at the same (kappa, order)."""
    mom = noise_moments(state, order)
    lam, val = _minimize_lambda(mom, kappa, order)
    v_vac, _ = vacuum_optimum(kappa, order)
    ratio = val / v_vac
    return NlsqResult(
        variance_opt=val,
        lambda_opt=lam,
        ratio=ratio,
        db=10.0 * math.log10(ratio),
        order=int(order),
        kappa=float(kappa),
    )


def nlsq_db(state: QuantumState) -> float:
    """Cubic (order-3) nonlinear squeezing in dB, which no strength changes;
    negative iff the state beats all Gaussians."""
    return optimal_nonlinear_variance(state).db


def kappa_rescale(result: NlsqResult, u: float) -> NlsqResult:
    """Result for the rescaled strength kappa' = u^N kappa, without
    re-optimizing: variance scales by u^2, lambda by u, the ratio (and dB)
    are unchanged."""
    if not u > 0:
        raise InvalidInputError(f"scale factor must be positive, got {u}")
    return NlsqResult(
        variance_opt=result.variance_opt * u ** 2,
        lambda_opt=result.lambda_opt * u,
        ratio=result.ratio,
        db=result.db,
        order=result.order,
        kappa=result.kappa * u ** result.order,
    )


# ---------------------------------------------------------------------------
# superposition-coefficient optimization
# ---------------------------------------------------------------------------

#: Grid of the ancilla search: lambda geometric over
#: lambda_vac * [1/ANCILLA_LAMBDA_SPAN, ANCILLA_LAMBDA_SPAN] and, at each
#: lambda, m linear over the spectrum of P Y P.
ANCILLA_GRID_POINTS = 33
ANCILLA_LAMBDA_SPAN = 4.0


def _canonical_coeffs(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=complex)
    c = c / np.linalg.norm(c)
    pivot = np.flatnonzero(np.abs(c) > 1e-12)
    if pivot.size:
        c = c * np.exp(-1j * np.angle(c[pivot[0]]))
    return c


#: Newton refinement of a grid minimum: the iteration cap (reaching it
#: raises), the step that counts as converged relative to |u|, and the floor
#: on the Hessian's eigenvalue magnitudes, relative to the largest, that keeps
#: the local model positive definite.
_NEWTON_MAX_STEPS = 100
_NEWTON_STEP_TOL = 1e-12
_NEWTON_CURVATURE_FLOOR = 1e-8


def _noise_terms(blocks, kappa: float, order: int):
    """Y and P Y^2 P of the ancilla search in units of the vacuum optimum.

    At lambda = lambda_vac e^s each is sum_k e^(k s) A_k, returned as
    (powers k, stacked blocks A_k); an s-derivative only rescales A_k by k.
    Y is divided by sqrt(V_vac) and Y^2 by V_vac, so the search is the same
    at every kappa.
    """
    bp, bp2, bxn, bxn2, bsym = blocks
    v_vac, lam_vac = vacuum_optimum(kappa, order)
    a = lam_vac / math.sqrt(v_vac)
    b = order * kappa / lam_vac ** (order - 1) / math.sqrt(v_vac)
    return ((np.array([1.0, 1.0 - order]), np.stack([a * bp, -b * bxn])),
            (np.array([2.0, 2.0 - 2.0 * order, 2.0 - order]),
             np.stack([a * a * bp2, b * b * bxn2, -2.0 * a * b * bsym])))


def _power_sum(terms, s, derivative: int = 0) -> np.ndarray:
    """sum_k k^derivative e^(k s) A_k; a column of n values of s gives the
    (n, d, d) stack of the sums."""
    powers, stack = terms
    return np.tensordot(powers ** derivative * np.exp(powers * s), stack, axes=1)


def _shifted_square(y, y2, t):
    """Y^2 - 2 t Y + t^2, for one t or a stack of them that broadcasts
    against the leading axes of Y.  t^2 is added on the diagonal alone: on
    the (n, n, d, d) stack of `_ancilla_grid` at d = 11, adding t^2 times a
    full identity made this four times slower."""
    t = np.asarray(t, dtype=float)[..., None, None]
    h = (-2.0 * t) * y
    h += y2
    diag = np.arange(y.shape[-1])
    h[..., diag, diag] += (t * t)[..., 0]
    return h


def _ancilla_grid(y_terms, y2_terms):
    """(log lambda values, m grid, lowest eigenvalues) of the start grid of
    `_optimal_ancilla`.

    Row i holds lambda_vac e^(s_i), s_i geometric over +-log
    ANCILLA_LAMBDA_SPAN, and ANCILLA_GRID_POINTS values of m spanning the
    spectrum of P Y P at that lambda.  Y and Y^2 come as one (n, d, d) stack
    each, and each eigenvalue set from one batched eigvalsh call: on the
    (n, d, d) stack of Y, then on the (n, n, d, d) stack of shifted squares.
    """
    n = ANCILLA_GRID_POINTS
    log_lams = np.linspace(-math.log(ANCILLA_LAMBDA_SPAN), math.log(ANCILLA_LAMBDA_SPAN), n)
    y = _power_sum(y_terms, log_lams[:, None])
    y2 = _power_sum(y2_terms, log_lams[:, None])
    spectra = np.linalg.eigvalsh(y)
    ms = np.linspace(spectra[:, 0], spectra[:, -1], n, axis=1)
    vals = np.linalg.eigvalsh(_shifted_square(y[:, None], y2[:, None], ms))[..., 0]
    return log_lams, ms, vals


def _lowest_eigenvalue_derivatives(y_terms, y2_terms, u):
    """(f, gradient, Hessian) in u = (s, t) of the lowest eigenvalue f of
    H = Y^2 - 2 t Y + t^2, from one eigendecomposition of H.

    The gradient is v0^dag (dH) v0 (Hellmann-Feynman); the Hessian adds the
    second-order perturbation sum 2 Re[(v_k^dag d_i H v0)^* (v_k^dag d_j H v0)]
    / (w0 - w_k).  Levels within 1e-12 of the spectrum's scale of w0 are left
    out of that sum: they couple to nothing, as at full loss, where H is a
    multiple of the identity.
    """
    s, t = u
    y, dy, d2y = (_power_sum(y_terms, s, d) for d in range(3))
    y2, dy2, d2y2 = (_power_sum(y2_terms, s, d) for d in range(3))
    w, v = np.linalg.eigh(_shifted_square(y, y2, t))
    v0 = v[:, 0]
    # row i holds v_k^dag (dH/du_i) v0 for every level k
    couplings = np.stack([v.conj().T @ (dh @ v0)
                          for dh in (dy2 - 2.0 * t * dy, 2.0 * (t * np.eye(len(y)) - y))])
    gaps = w[0] - w[1:]
    far = np.abs(gaps) > 1e-12 * np.abs(w).max()
    c = couplings[:, 1:][:, far]
    hess = 2.0 * ((c.conj() / gaps[far]) @ c.T).real
    cross = -2.0 * np.vdot(v0, dy @ v0).real
    hess += [[np.vdot(v0, (d2y2 - 2.0 * t * d2y) @ v0).real, cross], [cross, 2.0]]
    return w[0], couplings[:, 0].real, hess


def _newton_minimize(evaluate, u):
    """(f, u) at a local minimum of f, by damped Newton from u.

    ``evaluate(u)`` gives (f, gradient, Hessian).  Each step is -H~^-1 g, H~
    the Hessian with its eigenvalues replaced by their floored magnitudes, and
    is halved until f falls; a tie is not taken, since in a valley flat to
    rounding ties would let the steps wander.  The search stops when a step
    falls below _NEWTON_STEP_TOL relative to u, and raises NumericalError at
    _NEWTON_MAX_STEPS steps rather than return an unconverged point.
    """
    f, grad, hess = evaluate(u)
    for _ in range(_NEWTON_MAX_STEPS):
        w, q = np.linalg.eigh(hess)
        w = np.maximum(np.abs(w), _NEWTON_CURVATURE_FLOOR * np.abs(w).max())
        step = -q @ ((q.T @ grad) / w)
        if not np.all(np.isfinite(step)):
            raise NumericalError(f"Newton step {step} at u = {u} is not finite")
        tol = _NEWTON_STEP_TOL * max(1.0, float(np.linalg.norm(u)))
        while np.linalg.norm(step) > tol:
            trial = evaluate(u + step)
            if trial[0] < f:
                break
            step = step / 2.0
        else:
            return f, u
        u = u + step
        f, grad, hess = trial
    raise NumericalError(
        f"Newton refinement did not converge in {_NEWTON_MAX_STEPS} steps (u = {u})")


def _optimal_ancilla(max_photon: int, kappa: float, order: int,
                     loss: float | None) -> np.ndarray:
    """Input vector on {|0>..|M>} whose (lossy) output minimizes the optimal
    nonlinear variance.

    For the noise operator Y of one lambda, min over m of <(Y - m)^2> is
    Var(Y), so min over psi and lambda of Var_psi(Y) equals the minimum over
    (lambda, m) of the lowest eigenvalue of P (Y - m)^2 P, P the projector
    onto the first M + 1 levels; the padded moment blocks make P Y P and
    P Y^2 P exact.  Under loss, Tr[E(rho) O] = Tr[rho E^dag(O)], so the
    blocks go through the adjoint channel first.  The lowest eigenvalue need
    not be convex in (lambda, m).  The start grid in (lambda, m) is scored by
    two batched eigvalsh calls (`_ancilla_grid`); every local minimum of it
    is refined by damped Newton steps in (log lambda, m), with the exact
    gradient and Hessian of that eigenvalue, and the lowest refinement wins.
    """
    blocks = _moment_blocks(max_photon + 1, order)
    if loss is not None:
        blocks = tuple(loss_adjoint(b, loss) for b in blocks)
    y_terms, y2_terms = _noise_terms(blocks, kappa, order)

    log_lams, ms, vals = _ancilla_grid(y_terms, y2_terms)
    evaluate = partial(_lowest_eigenvalue_derivatives, y_terms, y2_terms)
    # grid points no larger than any of their 8 neighbours
    windows = sliding_window_view(np.pad(vals, 1, constant_values=np.inf), (3, 3))
    best = None
    refined = set()
    for i, j in np.argwhere(vals <= windows.min(axis=(2, 3))):
        u0 = (log_lams[i], ms[i, j])
        # a flat row (full loss makes Y a multiple of the identity) repeats
        # one start point, and a repeated start repeats its run
        if u0 in refined:
            continue
        refined.add(u0)
        f, u = _newton_minimize(evaluate, np.array(u0))
        if np.isfinite(f) and (best is None or f < best[0]):
            best = f, u
    if best is None:
        raise NumericalError("ancilla optimization found no finite minimum")
    s, t = best[1]
    _, vecs = np.linalg.eigh(
        _shifted_square(_power_sum(y_terms, s), _power_sum(y2_terms, s), t))
    return vecs[:, 0]


def optimize_coefficients(max_photon: int, kappa: float = 1.0, order: int = 3,
                          loss: float | None = None) -> tuple[np.ndarray, NlsqResult]:
    """Unit-norm coefficients c_0..c_M minimizing the NLSQ ratio.

    Deterministic: the optimum is the lowest eigenvector of P (Y - m)^2 P
    at the best (lambda, m) (see ``_optimal_ancilla``), with the global
    phase fixed so that the first nonzero coefficient is real and positive.
    With ``loss`` given, the ratio is that of the state after the pure-loss
    channel.
    """
    _validate_order(order)
    if max_photon < 0:
        raise InvalidInputError("max photon number must be nonnegative")
    coeffs = (np.array([1.0 + 0.0j]) if max_photon == 0 else
              _canonical_coeffs(_optimal_ancilla(max_photon, kappa, order, loss)))
    state = make_superposition(coeffs, max(max_photon + 1, 2))
    if loss is not None:
        state = apply_loss(state, loss)
    return coeffs, optimal_nonlinear_variance(state, kappa, order)


# ---------------------------------------------------------------------------
# theta sweeps (CSV emission)
# ---------------------------------------------------------------------------


def sweep_rows(thetas, phi: float, losses, kappa: float = 1.0, order: int = 3) -> list[tuple]:
    """NLSQ of the 0/1-superposition model across theta for each loss value.

    Rows are (theta_rad, phi_rad, loss, ratio, db, lambda_opt).
    """
    rows = []
    for loss in losses:
        for theta in thetas:
            params = GenerationParams(theta=float(theta), phi=float(phi), loss=float(loss))
            res = optimal_nonlinear_variance(rho_theta_phi_L(params, 2), kappa, order)
            rows.append((float(theta), float(phi), float(loss),
                         res.ratio, res.db, res.lambda_opt))
    return rows


def write_sweep_csv(rows, fh) -> None:
    fh.write("theta_rad,phi_rad,loss,ratio,db,lambda_opt\n")
    for theta, phi, loss, ratio, db, lam in rows:
        fh.write(f"{float(theta)!r},{float(phi)!r},{float(loss)!r},{float(ratio)!r},{float(db)!r},{float(lam)!r}\n")
