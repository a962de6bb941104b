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

import numpy as np

from .errors import InvalidInputError, NumericalError
from .fock import QuantumState, quadrature_ops
from .nlsq import noise_moments, optimize_coefficients, vacuum_optimum, variance_from_moments


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


def propagate(input_state: QuantumState, ancilla_state: QuantumState,
              sqz_var: float, kappa: float = 1.0) -> GateNoiseReport:
    """Propagate means and variances through the gate circuit.

    Independence of the three modes kills every cross-mode covariance, and
    Gaussian factorization gives <x_sqz^4> = 3 sqz_var^2; the squeezed-mode
    terms are odd in x_sqz wherever they meet the signal terms, so the output
    p-variance splits exactly into the ideal part, the ancilla part and the
    squeezed-resource part.  The ancilla part is the order-3 nonlinear
    variance Var(p - 3 kappa x^2) at lambda = 1.

    Raises NumericalError when a term of the budget is not finite.
    """
    if not math.isfinite(kappa):
        raise InvalidInputError(f"gate strength kappa must be finite, got {kappa}")
    if not (math.isfinite(sqz_var) and sqz_var >= 0):
        raise InvalidInputError(
            f"squeezed-mode variance must be finite and >= 0, got {sqz_var}")
    # The order-3 moments are those of p, p^2, x^2, x^4 and {p, x^2}/2; <x>
    # is not among them.
    inp = noise_moments(input_state, 3)
    anc = noise_moments(ancilla_state, 3)
    x = quadrature_ops(input_state.dim)[0]
    mean_x = float(np.einsum("ij,ji->", x, input_state.matrix).real)

    try:
        mean_p_out = (math.sqrt(2.0) * inp.p + 1.5 * kappa * inp.xn
                      + anc.p - 3.0 * kappa * anc.xn + 1.5 * kappa * sqz_var)
        ideal_var = (2.0 * inp.var_p + 2.25 * kappa ** 2 * inp.var_xn
                     + 3.0 * math.sqrt(2.0) * kappa * inp.cov)
        anc_excess = variance_from_moments(anc, 1.0, kappa, 3)
        sqz_excess = 9.0 * kappa ** 2 * (inp.xn * sqz_var + sqz_var ** 2 / 2.0)
        report = GateNoiseReport(
            mean_x_out=mean_x / math.sqrt(2.0),
            mean_p_out=mean_p_out,
            var_x_out=(inp.xn - mean_x ** 2 + sqz_var) / 2.0,
            var_p_out=ideal_var + anc_excess + sqz_excess,
            ideal_var=ideal_var,
            ancilla_excess=anc_excess,
            sqz_excess=sqz_excess,
        )
    except OverflowError:  # float ** raises where * and + give inf
        report = None
    if report is None or not all(map(math.isfinite, report.to_dict().values())):
        raise NumericalError(
            f"gate noise budget is not finite at kappa={kappa}, sqz_var={sqz_var}")
    return report


@lru_cache(maxsize=None)
def _best_m1_db() -> float:
    """dB of the best vacuum/one-photon ancilla; the ratio is strength
    independent, so one optimization serves every kappa."""
    return optimize_coefficients(1, kappa=1.0, order=3)[1].db


def required_ancilla_db(target_excess: float) -> float:
    """Ancilla nonlinear squeezing (dB) needed to keep the ancilla excess of
    a unit-strength (kappa = 1) gate at or below the target variance,
    clipped below at the best value reachable with a vacuum/one-photon
    superposition."""
    if not target_excess > 0:
        raise InvalidInputError(f"target excess must be positive, got {target_excess}")
    v_vac, _ = vacuum_optimum(1.0, 3)
    raw_db = 10.0 * math.log10(target_excess / v_vac)
    return max(raw_db, _best_m1_db())
