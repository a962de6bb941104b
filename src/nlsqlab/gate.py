"""Moment-level noise budget of the measurement-based cubic phase gate.

The circuit sends x_out = (x_in - x_sqz)/sqrt(2) and
p_out = sqrt(2)(p_in + (3 kappa / (2 sqrt(2))) x_in^2)
        + (p_anc - 3 kappa x_anc^2)
        + 3 kappa (x_in x_sqz + x_sqz^2 / 2),
with the three modes statistically independent and x_sqz zero-mean Gaussian.
Only means and variances are propagated; no Fock-space simulation of the
non-Gaussian unitary is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InvalidInputError
from .fock import QuantumState, moment, quadrature_ops
from .nlsq import (Moments, noise_moments, optimize_coefficients, vacuum_optimum,
                   variance_from_moments)

UNCERTAINTY_SLACK = 1e-9


@dataclass(frozen=True)
class ModeMoments:
    """Single-mode moments up to x^4, p^2 and the symmetrized {p, x^2}/2."""

    mean_x: float
    mean_p: float
    x2: float
    p2: float
    x4: float
    sym_px2: float

    def __post_init__(self):
        if self.var_x * self.var_p < 0.25 - UNCERTAINTY_SLACK:
            raise InvalidInputError(
                f"moments violate the uncertainty bound: Var(x) Var(p) = "
                f"{self.var_x * self.var_p:.6g} < 1/4"
            )
        if self.x2 < self.mean_x ** 2 - UNCERTAINTY_SLACK:
            raise InvalidInputError("<x^2> must dominate <x>^2")
        if self.x4 < self.x2 ** 2 - UNCERTAINTY_SLACK:
            raise InvalidInputError("<x^4> must dominate <x^2>^2")

    @property
    def var_x(self) -> float:
        return self.x2 - self.mean_x ** 2

    @property
    def var_p(self) -> float:
        return self.p2 - self.mean_p ** 2

    @property
    def var_x2(self) -> float:
        return self.x4 - self.x2 ** 2

    @property
    def cov_p_x2(self) -> float:
        """Symmetrized covariance of p and x^2."""
        return self.sym_px2 - self.mean_p * self.x2

    @classmethod
    def from_state(cls, state: QuantumState) -> "ModeMoments":
        # The order-3 noise moments are those of p, p^2, x^2, x^4 and
        # {p, x^2}/2, exact at any cutoff; <x> needs no headroom.
        mom = noise_moments(state, 3)
        return cls(mean_x=moment(state, quadrature_ops(state.dim)[0]), mean_p=mom.p,
                   x2=mom.xn, p2=mom.p2, x4=mom.xn2, sym_px2=mom.sym)


@dataclass(frozen=True)
class GateNoiseReport:
    """Output moments plus the excess p-noise split by its physical source."""

    mean_x_out: float
    mean_p_out: float
    var_x_out: float
    var_p_out: float
    ideal_var: float
    ancilla_excess: float
    sqz_excess: float

    @property
    def excess(self) -> float:
        return self.ancilla_excess + self.sqz_excess

    def to_dict(self) -> dict:
        return {
            "mean_x_out": float(self.mean_x_out),
            "mean_p_out": float(self.mean_p_out),
            "var_x_out": float(self.var_x_out),
            "var_p_out": float(self.var_p_out),
            "ideal_var": float(self.ideal_var),
            "ancilla_excess": float(self.ancilla_excess),
            "sqz_excess": float(self.sqz_excess),
            "excess": float(self.excess),
        }


def ancilla_noise_variance(moments: ModeMoments, kappa: float = 1.0) -> float:
    """Var(p - 3 kappa x^2) from a mode's moments; the gate's ancilla term is
    the order-3 nonlinear variance at lambda = 1."""
    mom = Moments(p=moments.mean_p, p2=moments.p2, xn=moments.x2,
                  xn2=moments.x4, sym=moments.sym_px2)
    return variance_from_moments(mom, 1.0, kappa, 3)


def propagate(input_moments: ModeMoments, ancilla_moments: ModeMoments,
              sqz_var: float, kappa: float = 1.0) -> GateNoiseReport:
    """Propagate means and variances through the gate circuit.

    Independence of the three modes kills every cross-mode covariance, and
    Gaussian factorization gives <x_sqz^4> = 3 sqz_var^2; the squeezed-mode
    terms are odd in x_sqz wherever they meet the signal terms, so the output
    p-variance splits exactly into the ideal part, the ancilla part and the
    squeezed-resource part.
    """
    if not math.isfinite(kappa):
        raise InvalidInputError(f"gate strength kappa must be finite, got {kappa}")
    if not (math.isfinite(sqz_var) and sqz_var >= 0):
        raise InvalidInputError(
            f"squeezed-mode variance must be finite and >= 0, got {sqz_var}")
    inp, anc = input_moments, ancilla_moments

    mean_x_out = inp.mean_x / math.sqrt(2.0)
    var_x_out = (inp.var_x + sqz_var) / 2.0

    mean_p_out = (math.sqrt(2.0) * inp.mean_p + 1.5 * kappa * inp.x2
                  + anc.mean_p - 3.0 * kappa * anc.x2 + 1.5 * kappa * sqz_var)

    ideal_var = (2.0 * inp.var_p + 2.25 * kappa ** 2 * inp.var_x2
                 + 3.0 * math.sqrt(2.0) * kappa * inp.cov_p_x2)
    anc_excess = ancilla_noise_variance(anc, kappa)
    sqz_excess = 9.0 * kappa ** 2 * (inp.x2 * sqz_var + sqz_var ** 2 / 2.0)

    return GateNoiseReport(
        mean_x_out=mean_x_out,
        mean_p_out=mean_p_out,
        var_x_out=var_x_out,
        var_p_out=ideal_var + anc_excess + sqz_excess,
        ideal_var=ideal_var,
        ancilla_excess=anc_excess,
        sqz_excess=sqz_excess,
    )


@lru_cache(maxsize=None)
def _best_m1_db() -> float:
    """dB of the best vacuum/one-photon ancilla; the ratio is strength
    independent, so one optimization serves every kappa."""
    return optimize_coefficients(1, kappa=1.0, order=3)[1].db


def required_ancilla_db(target_excess: float, kappa: float = 1.0) -> float:
    """Ancilla nonlinear squeezing (dB) needed to keep the ancilla excess at
    or below the target variance, clipped below at the best value reachable
    with a vacuum/one-photon superposition."""
    if not target_excess > 0:
        raise InvalidInputError(f"target excess must be positive, got {target_excess}")
    v_vac, _ = vacuum_optimum(kappa, 3)
    raw_db = 10.0 * math.log10(target_excess / v_vac)
    return max(raw_db, _best_m1_db())
