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
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import minimize

from .errors import DimensionError, InvalidInputError, NumericalError
from .fock import (QuantumState, apply_loss, loss_adjoint, make_superposition,
                   quadrature_ops)

#: The open domain of lambda.  The optimum is a closed form, so nothing
#: searches this range; the name stays because benchmark tooling reads it to
#: count optima at a bound.
LAMBDA_BOUNDS = (0.0, math.inf)

Moments = namedtuple("Moments", "p p2 xn xn2 sym")


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


def _min_dim(order: int) -> int:
    return 2 * (order - 1) + 2


@lru_cache(maxsize=128)
def _moment_blocks(dim: int, order: int):
    """dim x dim blocks of p, p^2, x^(N-1), x^(2N-2) and {p, x^(N-1)}/2.

    Built at cutoff dim + 2(N-1) so the blocks give exact moments for any
    state supported on the first dim levels.
    """
    pad = 2 * (order - 1)
    x, p = quadrature_ops(dim + pad)
    xm, pm = x.matrix, p.matrix
    xn = np.linalg.matrix_power(xm, order - 1)
    blocks = (
        pm[:dim, :dim],
        (pm @ pm)[:dim, :dim],
        xn[:dim, :dim],
        (xn @ xn)[:dim, :dim],
        ((pm @ xn + xn @ pm) / 2.0)[:dim, :dim],
    )
    for b in blocks:
        b.setflags(write=False)
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
    var_p = mom.p2 - mom.p ** 2
    var_xn = mom.xn2 - mom.xn ** 2
    cov = mom.sym - mom.p * mom.xn
    return lam ** 2 * var_p + coeff ** 2 * var_xn - 2.0 * lam * coeff * cov


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
    a = mom.p2 - mom.p ** 2
    b = (order - 2) * c * (mom.sym - mom.p * mom.xn)
    q = (order - 1) * c * c * (mom.xn2 - mom.xn ** 2)
    if not (a > 0 and 0 < q < math.inf):
        raise NumericalError(
            f"no lambda optimum: Var p = {a}, (N-1) (N kappa)^2 Var x^(N-1) = {q}")
    root = math.hypot(b, 2.0 * math.sqrt(a * q))
    u = 2.0 * q / (b + root) if b >= 0 else (root - b) / (2.0 * a)
    lam = u ** (1.0 / order)
    return lam, variance_from_moments(mom, lam, kappa, order)


def _vacuum_x_moment(n: int) -> float:
    """<x^n> of the vacuum: (n-1)!!/2^(n/2) for even n, 0 for odd n."""
    return 0.0 if n % 2 else math.prod(range(1, n, 2)) / 2.0 ** (n // 2)


def vacuum_optimum(kappa: float = 1.0, order: int = 3) -> tuple[float, float]:
    """(optimal variance, optimizing lambda) of the vacuum at (kappa, order),
    from its Gaussian moments; <p> and the covariance vanish."""
    _validate_order(order)
    mom = Moments(p=0.0, p2=0.5, xn=_vacuum_x_moment(order - 1),
                  xn2=_vacuum_x_moment(2 * order - 2), sym=0.0)
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


def nlsq_db(state: QuantumState, kappa: float = 1.0, order: int = 3) -> float:
    """Nonlinear squeezing in dB; negative iff the state beats all Gaussians."""
    return optimal_nonlinear_variance(state, kappa, order).db


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
    not be convex in (lambda, m): every local minimum of a grid is refined
    by Nelder-Mead in (log lambda, m) and the lowest refinement wins.
    """
    blocks = _moment_blocks(max_photon + 1, order)
    if loss is not None:
        blocks = tuple(loss_adjoint(b, loss) for b in blocks)
    bp, bp2, bxn, bxn2, bsym = blocks
    eye = np.eye(max_photon + 1)
    v_vac, lam_vac = vacuum_optimum(kappa, order)
    # lambda relative to the vacuum optimum and m in units of the vacuum
    # noise keep the search the same at every kappa.
    unit = math.sqrt(v_vac)

    def operators(log_lam: float):
        lam = lam_vac * math.exp(log_lam)
        coeff = order * kappa / lam ** (order - 1)
        return (lam * bp - coeff * bxn,
                lam ** 2 * bp2 + coeff ** 2 * bxn2 - 2.0 * lam * coeff * bsym)

    def shifted_square(y, y2, m):
        m = np.asarray(m, dtype=float)[..., None, None]
        return y2 - 2.0 * m * y + m * m * eye

    n = ANCILLA_GRID_POINTS
    log_lams = np.linspace(-math.log(ANCILLA_LAMBDA_SPAN), math.log(ANCILLA_LAMBDA_SPAN), n)
    ms = np.empty((n, n))
    vals = np.empty((n, n))
    for i, log_lam in enumerate(log_lams):
        y, y2 = operators(log_lam)
        spectrum = np.linalg.eigvalsh(y)
        ms[i] = np.linspace(spectrum[0], spectrum[-1], n)
        vals[i] = np.linalg.eigvalsh(shifted_square(y, y2, ms[i]))[:, 0]

    def objective(u) -> float:
        y, y2 = operators(u[0])
        return float(np.linalg.eigvalsh(shifted_square(y, y2, u[1] * unit))[0]) / v_vac

    # grid points no larger than any of their 8 neighbours
    windows = sliding_window_view(np.pad(vals, 1, constant_values=np.inf), (3, 3))
    best = None
    refined = set()
    for i, j in np.argwhere(vals <= windows.min(axis=(2, 3))):
        u0 = np.array([log_lams[i], ms[i, j] / unit])
        # a flat row (full loss makes Y a multiple of the identity) repeats
        # one start point, and a repeated start repeats its run
        if tuple(u0) in refined:
            continue
        refined.add(tuple(u0))
        simplex = [u0, u0 + [log_lams[1] - log_lams[0], 0.0],
                   u0 + [0.0, (ms[i, 1] - ms[i, 0]) / unit]]
        res = minimize(objective, u0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-13,
                                "initial_simplex": simplex})
        if np.isfinite(res.fun) and (best is None or res.fun < best.fun):
            best = res
    if best is None:
        raise NumericalError("ancilla optimization found no finite minimum")
    y, y2 = operators(best.x[0])
    _, vecs = np.linalg.eigh(shifted_square(y, y2, best.x[1] * unit))
    return vecs[:, 0]


def optimize_coefficients(max_photon: int, kappa: float = 1.0, order: int = 3,
                          loss: float | None = None, seed: int = 0,
                          starts: int = 32, dim: int | None = None
                          ) -> tuple[np.ndarray, NlsqResult]:
    """Unit-norm coefficients c_0..c_M minimizing the NLSQ ratio.

    Deterministic: the optimum is the lowest eigenvector of P (Y - m)^2 P
    at the best (lambda, m) (see ``_optimal_ancilla``), with the global
    phase fixed so that the first nonzero coefficient is real and positive.
    With ``loss`` given, the ratio is that of the state after the pure-loss
    channel.  ``seed`` and ``starts`` are accepted for compatibility and have
    no effect.
    """
    _validate_order(order)
    if max_photon < 0:
        raise InvalidInputError("max photon number must be nonnegative")
    if dim is None:
        dim = max(max_photon + 1, _min_dim(order))

    def evaluate(coeffs) -> NlsqResult:
        state = make_superposition(coeffs, dim)
        if loss is not None:
            state = apply_loss(state, loss)
        return optimal_nonlinear_variance(state, kappa, order)

    if max_photon == 0:
        c = np.array([1.0 + 0.0j])
        return c, evaluate(c)
    coeffs = _canonical_coeffs(_optimal_ancilla(max_photon, kappa, order, loss))
    return coeffs, evaluate(coeffs)


# ---------------------------------------------------------------------------
# theta sweeps (CSV emission)
# ---------------------------------------------------------------------------


def sweep_rows(thetas, phi: float, losses, kappa: float = 1.0, order: int = 3,
               dim: int | None = None) -> list[tuple]:
    """NLSQ of the 0/1-superposition model across theta for each loss value.

    Rows are (theta_rad, phi_rad, loss, ratio, db, lambda_opt).
    """
    from .genmodel import GenerationParams, rho_theta_phi_L

    if dim is None:
        dim = _min_dim(order)
    rows = []
    for loss in losses:
        for theta in thetas:
            params = GenerationParams(theta=float(theta), phi=float(phi), loss=float(loss))
            res = optimal_nonlinear_variance(rho_theta_phi_L(params, dim), kappa, order)
            rows.append((float(theta), float(phi), float(loss),
                         res.ratio, res.db, res.lambda_opt))
    return rows


def write_sweep_csv(rows, fh) -> None:
    fh.write("theta_rad,phi_rad,loss,ratio,db,lambda_opt\n")
    for theta, phi, loss, ratio, db, lam in rows:
        fh.write(f"{float(theta)!r},{float(phi)!r},{float(loss)!r},{float(ratio)!r},{float(db)!r},{float(lam)!r}\n")
