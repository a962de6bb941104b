"""Truncated-Fock-basis states, quadrature operators, channels and phase space.

Conventions used throughout the package: the quadratures satisfy
``[x, p] = i`` and the vacuum has ``Var(x) = Var(p) = 1/2``, i.e.
``x = (a + a^dag)/sqrt(2)`` and ``p = (a - a^dag)/(i sqrt(2))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, TruncationError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10

#: Default photon-number cutoff (basis size) for generic states.
DEFAULT_DIM = 20
#: Default cutoff of two-level (0/1-photon) states.  Moments need no more
#: than two levels (the moment blocks carry their own padding); the value
#: stays 6 because `herald` prints its density matrix at this size.
MIN_TWO_LEVEL_DIM = 6


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k < n, from the standard library's lgamma (within 1 ulp
    of scipy.special.gammaln)."""
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


@dataclass(frozen=True)
class QuantumState:
    """Density matrix on the truncated number basis {|0>, ..., |dim-1>}.

    The constructor enforces hermiticity, unit trace and positive
    semidefiniteness (up to small numerical tolerances); instances are
    immutable and safe to share.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex, order="C")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(float))):
            raise InvalidInputError("matrix contains non-finite entries")
        herm_defect = np.abs(mat - mat.conj().T).max()
        if herm_defect > HERMITICITY_TOL:
            raise InvalidInputError(f"matrix not Hermitian (defect {herm_defect:.2e})")
        trace_defect = abs(mat.trace() - 1.0)
        if trace_defect > TRACE_TOL:
            raise InvalidInputError(f"trace differs from 1 by {trace_defect:.2e}")
        lowest = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0]
        if lowest < -PSD_TOL:
            raise InvalidInputError(f"matrix not PSD (lowest eigenvalue {lowest:.2e})")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self):  # keep reprs short; the matrix can be large
        return f"QuantumState(dim={self.dim})"


def make_superposition(coeffs, dim: int) -> QuantumState:
    """Pure state |psi><psi| with psi proportional to sum_k coeffs[k] |k>."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size == 0 or not np.all(np.isfinite(c.view(float))):
        raise InvalidInputError("coefficient vector must be nonempty and finite")
    if c.size > dim:
        raise DimensionError(
            f"need dim > max photon number: got {c.size - 1} photons at dim={dim}"
        )
    # Divided first by the smallest power of two above the largest real or
    # imaginary part, so that the norm cannot overflow.  The division is
    # exact, so the state does not depend on it.
    parts = c.view(float)
    largest = np.max(np.abs(parts))
    if largest == 0.0:
        raise InvalidInputError("all-zero coefficient vector")
    c = np.ldexp(parts, -math.frexp(largest)[1]).view(complex)
    norm = np.linalg.norm(c)
    psi = np.zeros(dim, dtype=complex)
    psi[: c.size] = c / norm
    return QuantumState(np.outer(psi, psi.conj()))


def vacuum(dim: int = DEFAULT_DIM) -> QuantumState:
    return make_superposition([1.0], dim)


def fock_state(n: int, dim: int = DEFAULT_DIM) -> QuantumState:
    """Number state |n><n|."""
    if n < 0:
        raise InvalidInputError("photon number must be nonnegative")
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[n] = 1.0
    return make_superposition(coeffs, dim)


def quadrature_ops(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only dim x dim matrices (x, p) in the number basis, with
    x[n, n+1] = sqrt((n+1)/2)."""
    if dim < 2:
        raise DimensionError("quadrature operators need dim >= 2")
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    x.setflags(write=False)
    p.setflags(write=False)
    return x, p


def _loss_kraus_weights(dim: int, loss: float):
    """Yield (k, w) for the pure-loss Kraus operators A_k = sum_n w[n-k] |n-k><n|,
    n = k..dim-1, with w[n-k] = sqrt(C(n, k) (1-loss)^(n-k) loss^k)."""
    if not 0.0 <= loss <= 1.0:
        raise InvalidInputError(f"loss fraction must lie in [0, 1], got {loss}")
    eta = 1.0 - loss
    lg = _log_factorials(dim)
    for k in range(dim):
        ns = np.arange(k, dim)
        comb = np.exp(lg[ns] - lg[ns - k] - lg[k])
        yield k, np.sqrt(comb * np.power(eta, (ns - k).astype(float)) * np.power(loss, float(k)))


def apply_loss(state: QuantumState, loss: float) -> QuantumState:
    """Pure-loss channel: beamsplitter of transmissivity 1-loss against vacuum.

    Exact Kraus-operator sum in the number basis (dim Kraus terms), so the
    result is deterministic and trace preserving to machine precision.
    """
    dim = state.dim
    rho = state.matrix
    out = np.zeros_like(rho)
    for k, weight in _loss_kraus_weights(dim, loss):
        out[: dim - k, : dim - k] += np.outer(weight, weight) * rho[k:, k:]
    return QuantumState(out)


def loss_adjoint(block: np.ndarray, loss: float) -> np.ndarray:
    """Heisenberg-picture pure loss: sum_k A_k^dag O A_k for a dim x dim block,
    or for each block of a stack over the last two axes, so that
    Tr[apply_loss(rho) O] = Tr[rho loss_adjoint(O)]."""
    dim = block.shape[-1]
    out = np.zeros(block.shape, dtype=np.result_type(block, float))
    for k, weight in _loss_kraus_weights(dim, loss):
        out[..., k:, k:] += np.outer(weight, weight) * block[..., : dim - k, : dim - k]
    return out


# ---------------------------------------------------------------------------
# Wigner function
# ---------------------------------------------------------------------------


def _wigner_block(rho: np.ndarray, a: np.ndarray) -> np.ndarray:
    """pi W(a) = sum_mn rho_mn W_mn(a), with W_mn pi times the Wigner function
    of |m><n|, by the number-basis recurrence (Leonhardt, Measuring the
    Quantum State of Light, ch. 5), row m written over row m-1:
    W_00 = exp(-2|a|^2), W_mm = (2 a* W_m-1,m - sqrt(m) W_m-1,m-1) / sqrt(m),
    W_mn = (2 a W_m,n-1 - sqrt(m) W_m-1,n-1) / sqrt(n), and W_nm = conj(W_mn)."""
    dim = rho.shape[0]
    w = np.zeros((dim, a.size), dtype=complex)
    # |a|^2 overflows to inf only where exp(-2|a|^2) is 0.0 anyway.
    with np.errstate(over="ignore"):
        w[0] = np.exp(-2.0 * np.abs(a) ** 2)
    total = np.zeros(a.size)
    for m in range(dim):
        below = w[m].copy()
        if m:
            w[m] = (a.conj() * below * 2.0 - math.sqrt(m) * w[m - 1]) / math.sqrt(m)
        # a W before the factor 2, so that a huge a meets W = 0, not inf.
        for n in range(m + 1, dim):
            below, w[n] = w[n].copy(), (a * w[n - 1] * 2.0 - math.sqrt(m) * below) / math.sqrt(n)
        total += (rho[m, m] * w[m]).real + 2.0 * (rho[m, m + 1 :] @ w[m + 1 :]).real
    return total


def wigner(state: QuantumState, xs, ps) -> np.ndarray:
    """Wigner function W[i, j] = W(xs[i], ps[j]), normalized so that
    the integral over dx dp is 1.

    Evaluated at alpha = (x + ip)/sqrt(2) by the recurrence of
    `_wigner_block`, 4096 points at a time, from the state's own matrix
    elements.  Its seed exp(-2|alpha|^2) is below the normal float range
    from |alpha|^2 = 354 on and 0.0 from 372, and W built on it is lost.
    Such a point raises TruncationError if the state populates a level at
    or above |alpha|^2 / 2; farther out W is below 1e-84 (mpmath, |n> at
    |alpha|^2 = 2n for n = 177 to 600), and there it is 0.0 or round-off.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ps = np.asarray(ps, dtype=float).ravel()
    if xs.size == 0 or ps.size == 0:
        raise InvalidInputError("empty phase-space grid")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))):
        raise InvalidInputError("phase-space grid must be finite")
    alphas = ((xs[:, None] + 1j * ps[None, :]) / np.sqrt(2.0)).ravel()
    with np.errstate(over="ignore"):
        r2 = np.abs(alphas) ** 2
        subnormal = np.exp(-2.0 * r2) < np.finfo(float).tiny
    top = np.flatnonzero(np.diagonal(state.matrix).real > 0)[-1]
    lost = r2[subnormal & (r2 <= 2.0 * top)]
    if lost.size:
        raise TruncationError(
            f"exp(-2|alpha|^2) is below the normal float range at |alpha|^2 = "
            f"{lost[0]:.6g}, where level {top} of the state still reaches")
    w = np.empty(alphas.size)
    chunk = 4096
    for lo in range(0, alphas.size, chunk):
        w[lo : lo + chunk] = _wigner_block(state.matrix, alphas[lo : lo + chunk])
    return (w / np.pi).reshape(xs.size, ps.size)


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2."""
    if a.dim != b.dim:
        raise DimensionError("states live on different cutoffs")
    vals, vecs = np.linalg.eigh(a.matrix)
    vals = np.clip(vals, 0.0, None)
    sq = (vecs * np.sqrt(vals)) @ vecs.conj().T
    m = sq @ b.matrix @ sq
    ev = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return float(np.sum(np.sqrt(np.clip(ev, 0.0, None))) ** 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def state_to_json(state: QuantumState) -> dict:
    """JSON-ready dict {dim, re, im} with row-major real/imaginary parts."""
    flat = state.matrix.ravel()
    return {
        "dim": int(state.dim),
        "re": [float(v) for v in flat.real],
        "im": [float(v) for v in flat.imag],
    }


def state_from_json(obj: dict) -> QuantumState:
    dim = int(obj["dim"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    if re.size != dim * dim or im.size != dim * dim:
        raise InvalidInputError("re/im arrays do not match dim*dim")
    # Stacked, as re + 1j * im would turn a -0.0 part into +0.0.
    return QuantumState(np.stack((re, im), axis=-1).view(complex).reshape(dim, dim))
