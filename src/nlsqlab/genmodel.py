"""Heralded 0/1-superposition generation model and its lossy density matrix.

A weakly pumped two-mode squeezer plus a weak displacement on the idler,
followed by an idler photon click, leaves the signal mode (to first order)
in alpha|0> + q|1>.  With optical loss L the state becomes the two-level
mixed state rho(theta, phi, L) handled here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError
from .fock import MIN_TWO_LEVEL_DIM, QuantumState, make_superposition

#: herald() is a first-order model; larger pump/displacement amplitudes fall
#: outside its validity.
PERTURBATIVE_LIMIT = 0.3

#: theta below this leaves the state vacuum-dominated and the loss fit
#: ill-conditioned; theta within this margin of pi makes the state phase
#: insensitive and the phase fit ill-conditioned.
THETA_LOSS_BLIND = 0.2
THETA_PHASE_BLIND = 0.05


@dataclass(frozen=True)
class GenerationParams:
    """Superposition angle/phase and optical loss."""

    theta: float
    phi: float
    loss: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidInputError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.loss <= 1.0:
            raise InvalidInputError(f"loss must lie in [0, 1], got {self.loss}")
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    @classmethod
    def from_herald(cls, q: complex, alpha: complex, loss: float = 0.0) -> "GenerationParams":
        """Angle/phase of the heralded pure state: tan(theta/2) = |q|/|alpha|,
        phi = arg(q/alpha)."""
        q = complex(q)
        alpha = complex(alpha)
        if q == 0 and alpha == 0:
            raise InvalidInputError("q and alpha cannot both vanish")
        theta = 2.0 * math.atan2(abs(q), abs(alpha))
        phi = math.atan2((q * np.conj(alpha)).imag, (q * np.conj(alpha)).real) if alpha != 0 else 0.0
        return cls(theta=theta, phi=phi, loss=loss)


def herald(q: complex, alpha: complex, dim: int = MIN_TWO_LEVEL_DIM) -> QuantumState:
    """Signal state after an idler click: normalized alpha|0> + q|1>.

    First-order model; requires |q|, |alpha| below the perturbative limit.
    """
    q = complex(q)
    alpha = complex(alpha)
    if q == 0 and alpha == 0:
        raise InvalidInputError("herald impossible: q and alpha both zero")
    if abs(q) >= PERTURBATIVE_LIMIT or abs(alpha) >= PERTURBATIVE_LIMIT:
        raise InvalidInputError(
            f"|q| and |alpha| must stay below {PERTURBATIVE_LIMIT} for the "
            "first-order herald model"
        )
    return make_superposition([alpha, q], dim)


def rho_theta_phi_L(params: GenerationParams, dim: int = MIN_TWO_LEVEL_DIM) -> QuantumState:
    """Two-level mixed state of the lossy superposition, embedded at the cutoff:

    rho00 = 1 - (1-L) sin^2(theta/2),  rho01 = sin(theta) e^{-i phi} sqrt(1-L) / 2,
    rho11 = (1-L) sin^2(theta/2).
    """
    if dim < 2:
        raise DimensionError(f"state cutoff {dim} too small; need at least 2")
    s2 = math.sin(params.theta / 2.0) ** 2
    eta = 1.0 - params.loss
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = 1.0 - eta * s2
    mat[1, 1] = eta * s2
    mat[0, 1] = 0.5 * math.sin(params.theta) * np.exp(-1j * params.phi) * math.sqrt(eta)
    mat[1, 0] = np.conj(mat[0, 1])
    return QuantumState(dim, mat)


@dataclass(frozen=True)
class FitResult:
    phi: float
    loss: float
    residual: float
    phi_reliable: bool
    loss_reliable: bool

    def to_dict(self) -> dict:
        return {
            "phi": float(self.phi),
            "loss": float(self.loss),
            "residual": float(self.residual),
            "phi_reliable": bool(self.phi_reliable),
            "loss_reliable": bool(self.loss_reliable),
        }


def _block_distance_sq(block: np.ndarray, theta: float, phi: float, loss: float) -> float:
    s2 = math.sin(theta / 2.0) ** 2
    eta = 1.0 - loss
    off = 0.5 * math.sin(theta) * math.sqrt(eta) * np.exp(-1j * phi)
    d00 = block[0, 0].real - (1.0 - eta * s2)
    d11 = block[1, 1].real - eta * s2
    doff = block[0, 1] - off
    return d00 ** 2 + d11 ** 2 + 2.0 * abs(doff) ** 2


def fit_phi_L(measured: QuantumState, theta: float) -> FitResult:
    """Least-squares (phi, L) of the two-level model at a known theta.

    Minimizes the Frobenius distance on the 2x2 number-basis block.  The
    optimal phi is analytic (phase of the off-diagonal); the optimal L is the
    best of L = 0, L = 1 and the roots of a cubic in sqrt(1-L).  Fits are
    flagged unreliable near theta = pi (phase-insensitive state) and near
    theta = 0 (loss-insensitive state).
    """
    if not 0.0 <= theta <= math.pi:
        raise InvalidInputError(f"theta must lie in [0, pi], got {theta}")
    if measured.dim < 2:
        raise InvalidInputError("state must resolve at least the {|0>, |1>} block")
    leak = float(np.trace(measured.matrix[2:, 2:]).real) if measured.dim > 2 else 0.0
    if leak >= 0.1:
        raise InvalidInputError(
            f"population above |1> is {leak:.3f}; the two-level model does not apply"
        )
    block = measured.matrix[:2, :2]

    off = complex(block[0, 1])
    if math.sin(theta) > 1e-12 and abs(off) > 0.0:
        phi = float(-np.angle(off)) % (2.0 * math.pi)
    else:
        phi = 0.0

    # With t = sqrt(1-L) the objective is a quartic in t; a quarter of its
    # derivative is the cubic 2 s^2 t^3 + (s (rho00 - 1 - rho11) + k^2) t
    # - k Re(rho01 e^{i phi}), s = sin^2(theta/2), k = sin(theta)/2.  The
    # minimum over [0, 1] sits at an end or at a root of the cubic; the real
    # parts of complex roots only add harmless candidates.  L = 0 comes
    # first, so it wins a tie (at theta = 0 every L fits equally well).
    s = math.sin(theta / 2.0) ** 2
    k = 0.5 * math.sin(theta)
    cubic = [2.0 * s * s, 0.0,
             s * (block[0, 0].real - 1.0 - block[1, 1].real) + k * k,
             -k * (off * np.exp(1j * phi)).real]
    ts = np.concatenate([[1.0, 0.0], np.clip(np.roots(cubic).real, 0.0, 1.0)])
    losses = 1.0 - ts * ts
    vals = [_block_distance_sq(block, theta, phi, L) for L in losses]
    i = int(np.argmin(vals))
    return FitResult(
        phi=phi,
        loss=float(losses[i]),
        residual=math.sqrt(max(vals[i], 0.0)),
        phi_reliable=theta <= math.pi - THETA_PHASE_BLIND and theta >= THETA_PHASE_BLIND,
        loss_reliable=theta >= THETA_LOSS_BLIND,
    )


def count_rate_ratio(theta: float) -> float:
    """APD count-rate ratio, displacement beam on versus off, for the pure
    model: (1 + tan^2(theta/2)) / tan^2(theta/2).  Diverges at theta = 0."""
    if not 0.0 <= theta <= math.pi:
        raise InvalidInputError(f"theta must lie in [0, pi], got {theta}")
    s2 = math.sin(theta / 2.0) ** 2
    if s2 == 0.0:
        return math.inf
    return 1.0 / s2
