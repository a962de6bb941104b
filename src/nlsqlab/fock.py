"""Truncated-Fock-basis states, quadrature operators, channels and phase space.

Conventions used throughout the package: the quadratures satisfy
``[x, p] = i`` and the vacuum has ``Var(x) = Var(p) = 1/2``, i.e.
``x = (a + a^dag)/sqrt(2)`` and ``p = (a - a^dag)/(i sqrt(2))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError

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
# displacement and Wigner function
# ---------------------------------------------------------------------------


def _displacement_tensor(dim: int, alphas: np.ndarray) -> np.ndarray:
    """Matrix elements <m|D(alpha)|n> for a batch of displacements.

    Uses the closed form with associated Laguerre polynomials, evaluated by
    the usual stable three-term recurrence in n.
    """
    alphas = np.asarray(alphas, dtype=complex).ravel()
    npts = alphas.size
    r = np.abs(alphas) ** 2
    env = np.exp(-r / 2.0)
    lg = _log_factorials(dim)
    out = np.zeros((npts, dim, dim), dtype=complex)
    apow = np.ones(npts, dtype=complex)       # alpha**k
    bpow = np.ones(npts, dtype=complex)       # (-conj(alpha))**k
    for k in range(dim):
        lag_prev = np.zeros(npts)
        lag = np.ones(npts)                   # L_0^{(k)}
        for n in range(dim - k):
            if n > 0:
                lag_next = ((2 * n - 1 + k - r) * lag - (n - 1 + k) * lag_prev) / n
                lag_prev, lag = lag, lag_next
            amp = np.exp(0.5 * (lg[n] - lg[n + k])) * env * lag
            out[:, n + k, n] = amp * apow
            out[:, n, n + k] = amp * bpow
        apow = apow * alphas
        bpow = bpow * (-alphas.conj())
    return out


def wigner(state: QuantumState, xs, ps) -> np.ndarray:
    """Wigner function W[i, j] = W(xs[i], ps[j]), normalized so that
    the integral over dx dp is 1.

    Evaluated through the displaced-parity form with alpha = (x + ip)/sqrt(2),
    using the operator identity D(alpha) P D(alpha)^dag = D(2 alpha) P: only
    the analytic matrix elements of D(2 alpha) on the state's support enter,
    so no truncated operator product is involved.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ps = np.asarray(ps, dtype=float).ravel()
    if xs.size == 0 or ps.size == 0:
        raise InvalidInputError("empty phase-space grid")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))):
        raise InvalidInputError("phase-space grid must be finite")
    xg, pg = np.meshgrid(xs, ps, indexing="ij")
    alphas = ((xg + 1j * pg) / np.sqrt(2.0)).ravel()
    parity = (-1.0) ** np.arange(state.dim)
    rho = state.matrix
    w = np.empty(alphas.size)
    chunk = 4096
    for lo in range(0, alphas.size, chunk):
        d2 = _displacement_tensor(state.dim, 2.0 * alphas[lo : lo + chunk])
        w[lo : lo + chunk] = np.einsum("mn,pnm,m->p", rho, d2, parity).real
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
    return QuantumState((re + 1j * im).reshape(dim, dim))
