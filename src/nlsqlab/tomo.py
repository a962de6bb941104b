"""Homodyne quadrature sampling and iterative maximum-likelihood reconstruction.

Quadrature statistics follow pr(x|theta) = sum_mn rho_mn e^{i(m-n)theta}
psi_m(x) psi_n(x) with oscillator eigenfunctions normalized to a vacuum
variance of 1/2.  Reconstruction uses the standard iterated R*rho*R scheme
on binned data.  The dataset CSV is written in blocks of 8192 rows and
parsed by numpy's C reader.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidInputError, TruncationError
from .fock import QuantumState
from .nlsq import nlsq_db

DEFAULT_PHASES = tuple(np.deg2rad([0.0, 30.0, 60.0, 90.0, 120.0, 150.0]))
DEFAULT_EVENTS_PER_PHASE = 21000

# MLE discretization: uniform bins with sub-bin midpoint quadrature for the
# projectors, a probability floor against empty-bin blowups, and a relative
# log-likelihood stopping rule.
MLE_SUPPORT = (-6.0, 6.0)
MLE_BINS = 256
MLE_SUBDIV = 8
MLE_PROB_FLOOR = 1e-12
MLE_TOL = 1e-9
MLE_MAX_ITERS = 2000

# Rows per write of the dataset CSV: a bounded string per block instead of
# one per row, or one for the whole file.
_CSV_BLOCK = 8192

SAMPLER_SUPPORT = (-8.0, 8.0)
SAMPLER_POINTS = 8192
#: Least share of the quadrature distribution the sampler support must hold.
SAMPLER_MIN_MASS = 1.0 - 1e-9


def oscillator_wavefunctions(dim: int, x) -> np.ndarray:
    """psi_n(x) for n < dim, shape (dim, len(x)); vacuum variance 1/2."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    psi = np.empty((dim, x.size))
    psi[0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    if dim > 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(1, dim - 1):
        psi[n + 1] = np.sqrt(2.0 / (n + 1)) * x * psi[n] - np.sqrt(n / (n + 1)) * psi[n - 1]
    return psi


def _rotated_wavefunctions(dim: int, phase: float, x) -> np.ndarray:
    """v_m(x) = e^{-i m phase} psi_m(x), so pr = v^dag rho v term by term."""
    psi = oscillator_wavefunctions(dim, x)
    return np.exp(-1j * phase * np.arange(dim))[:, None] * psi


def quadrature_pdf(state: QuantumState, phase: float, x):
    """Probability density of a quadrature sample at the given LO phase."""
    scalar = np.isscalar(x)
    v = _rotated_wavefunctions(state.dim, float(phase), x)
    pr = (v.conj() * (state.matrix @ v)).sum(0).real
    pr = np.clip(pr, 0.0, None)
    return float(pr[0]) if scalar else pr


@dataclass(frozen=True)
class TomographyDataset:
    """Phase-tagged quadrature records.

    Phases are folded into [0, pi); folding a phase by pi flips the sign of
    its quadrature values.
    """

    phases: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float).ravel()
        if phases.size != values.size:
            raise InvalidInputError("phases and values must have equal length")
        if phases.size and not (np.all(np.isfinite(phases)) and np.all(np.isfinite(values))):
            raise InvalidInputError("dataset contains non-finite entries")
        folded = np.mod(phases, 2.0 * np.pi)
        # A tiny negative phase rounds up to 2*pi, which would fold to pi.
        folded[folded == 2.0 * np.pi] = 0.0
        flip = folded >= np.pi
        folded = np.where(flip, folded - np.pi, folded)
        values = np.where(flip, -values, values)
        folded.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "phases", folded)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return self.values.size

    def unique_phases(self) -> np.ndarray:
        return np.unique(self.phases)

    def __repr__(self):
        return f"TomographyDataset(n={len(self)}, phases={len(self.unique_phases())})"


def _cdf_table(state: QuantumState, phase: float):
    x = np.linspace(*SAMPLER_SUPPORT, SAMPLER_POINTS)
    pdf = quadrature_pdf(state, phase, x)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * np.diff(x))])
    if not cdf[-1] >= SAMPLER_MIN_MASS:
        raise TruncationError(
            f"sampler support {SAMPLER_SUPPORT} holds only {cdf[-1]:.12f} of the "
            f"quadrature distribution at phase {phase:g} (needs {SAMPLER_MIN_MASS})"
        )
    cdf /= cdf[-1]
    return x, cdf


def _lo_phases(phases) -> np.ndarray:
    """LO phases as a flat float array; each must be finite, and there must
    be at least one."""
    arr = np.asarray(phases, dtype=float).ravel()
    if arr.size == 0:
        raise InvalidInputError("need at least one LO phase")
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise InvalidInputError(f"LO phase {bad[0]} is not finite")
    return arr


def _draw(state: QuantumState, phases: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF quadrature samples: uniform u[i] mapped through the
    state's quadrature CDF at LO phase phases[i], one table per distinct
    phase."""
    q = np.empty(u.size)
    for phase in np.unique(phases):
        idx = np.flatnonzero(phases == phase)
        x, cdf = _cdf_table(state, float(phase))
        q[idx] = np.interp(u[idx], cdf, x)
    return q


def sample(state: QuantumState, phases=DEFAULT_PHASES,
           n_per_phase: int = DEFAULT_EVENTS_PER_PHASE, seed: int = 0) -> TomographyDataset:
    """Draw n_per_phase quadratures at each LO phase; deterministic per seed.

    Each phase consumes an independent child stream of the master seed, so
    per-phase sampling may run in parallel without changing the result.
    """
    if n_per_phase < 1:
        raise InvalidInputError("n_per_phase must be at least 1")
    phases = _lo_phases(phases)
    children = np.random.SeedSequence(seed).spawn(phases.size)
    u = np.concatenate([np.random.default_rng(c).random(n_per_phase) for c in children])
    per_sample = np.repeat(phases, n_per_phase)
    return TomographyDataset(phases=per_sample, values=_draw(state, per_sample, u))


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MleResult:
    state: QuantumState
    iters: int
    loglik: float
    loglik_trace: np.ndarray
    converged: bool
    warnings: tuple[str, ...] = ()

    def report(self) -> dict:
        return {
            "iters": int(self.iters),
            "loglik": float(self.loglik),
            "converged": bool(self.converged),
            "warnings": list(self.warnings),
        }


def _bin_projectors(dim: int, phase: float, edges: np.ndarray, subdiv: int) -> np.ndarray:
    """Integrated projector per bin, midpoint rule with `subdiv` points."""
    n_bins = edges.size - 1
    width = edges[1] - edges[0]
    sub = (np.arange(subdiv) + 0.5) / subdiv
    xs = (edges[:-1, None] + sub[None, :] * width).ravel()
    v = _rotated_wavefunctions(dim, phase, xs)          # (dim, n_bins*subdiv)
    v = v.reshape(dim, n_bins, subdiv)
    pi = np.einsum("mjs,njs->jmn", v, v.conj()) * (width / subdiv)
    return pi


def _binned(data: TomographyDataset, dim: int, n_bins: int, support,
            subdiv: int) -> tuple[np.ndarray, np.ndarray]:
    """Projector stack and the cell of every sample.

    Cell j = k * n_bins + b for the k-th unique phase and bin b, with the
    bins of np.histogram over `support` (the last edge inclusive).  Row j of
    the (J, dim**2) stack P is the cell's projector flattened, so that
    P @ rho.T.ravel() gives every Tr(Pi_j rho).  A sample outside the
    support has cell -1.
    """
    if dim < 2:
        raise DimensionError("reconstruction needs dim >= 2")
    if len(data) == 0:
        raise InvalidInputError("empty dataset")
    if not (n_bins >= 1 and support[0] < support[1]):
        raise InvalidInputError(f"need n_bins >= 1 and an increasing support, "
                                f"got {n_bins} and {support}")
    edges = np.linspace(support[0], support[1], n_bins + 1)
    x = data.values
    phases = data.unique_phases()
    k = np.searchsorted(phases, data.phases)
    # The arithmetic bin is off by at most one near an edge; the edge
    # comparisons settle it, as np.histogram does for uniform bins.
    b = np.clip((x - edges[0]) * (n_bins / (edges[-1] - edges[0])), 0, n_bins - 1).astype(int)
    b -= x < edges[b]
    b += (x >= edges[b + 1]) & (b < n_bins - 1)
    cell = np.where((x >= edges[0]) & (x <= edges[-1]), k * n_bins + b, -1)
    P = np.concatenate([_bin_projectors(dim, float(p), edges, subdiv) for p in phases])
    return P.reshape(-1, dim * dim), cell


def _iterate(P: np.ndarray, counts: np.ndarray, dim: int, max_iters: int, tol: float):
    """R*rho*R iteration on the cells with a nonzero count.

    Returns (rho, iterations, log-likelihood per iteration, converged); rho
    is projected back onto the PSD cone if round-off left it outside.
    """
    if max_iters < 1:
        raise InvalidInputError("max_iters must be at least 1")
    if not (math.isfinite(tol) and tol >= 0):
        raise InvalidInputError(f"MLE tolerance must be finite and >= 0, got {tol}")
    keep = counts > 0
    if not keep.any():
        raise InvalidInputError("no samples inside the MLE support")
    # Re Tr(Pi rho) = sum_k Re Pi_k Re rho_k + Im Pi_k Im rho_k for Hermitian
    # Pi and rho, so both products are real matrix-vector products on the
    # stack viewed as (J, 2 dim**2) floats, real and imaginary parts interleaved.
    P = P[keep].view(float)
    f = counts[keep].astype(float)
    rho = np.eye(dim, dtype=complex) / dim
    trace = []
    converged = False
    for iters in range(1, max_iters + 1):
        pr = np.maximum(P @ rho.ravel().view(float), MLE_PROB_FLOOR)
        trace.append(float(f @ np.log(pr)))
        r = ((f / pr) @ P).view(complex).reshape(dim, dim)
        rho = r @ rho @ r
        rho = (rho + rho.conj().T) / 2.0
        rho /= rho.trace().real
        if len(trace) > 1 and trace[-1] - trace[-2] < tol * abs(trace[-1]):
            converged = True
            break

    eigs = np.linalg.eigvalsh(rho)
    if eigs[0] < 0:  # tiny negative round-off; project back onto PSD cone
        vals, vecs = np.linalg.eigh(rho)
        vals = np.clip(vals, 0.0, None)
        rho = (vecs * vals) @ vecs.conj().T
        rho /= rho.trace().real
    return rho, iters, trace, converged


def mle_reconstruct(data: TomographyDataset, dim: int = 5,
                    max_iters: int = MLE_MAX_ITERS, tol: float = MLE_TOL,
                    n_bins: int = MLE_BINS, support=MLE_SUPPORT,
                    subdiv: int = MLE_SUBDIV) -> MleResult:
    """Iterated R*rho*R maximum-likelihood estimate from binned quadratures.

    Iterates rho <- normalize(R(rho) rho R(rho)) with
    R = sum_j f_j / pr_j(rho) * Pi_j until the relative log-likelihood gain
    drops below `tol` or `max_iters` is reached (then flagged, not raised).
    One iteration is two matrix-vector products with the projector stack.
    """
    P, cell = _binned(data, dim, n_bins, support, subdiv)
    inside = cell >= 0
    rho, iters, trace, converged = _iterate(
        P, np.bincount(cell[inside], minlength=len(P)), dim, max_iters, tol)
    warnings = []
    dropped = cell.size - np.count_nonzero(inside)
    if dropped:
        warnings.append(f"dropped {dropped} samples outside {support}")
    if not converged:
        warnings.append(f"no convergence after {max_iters} iterations")
    return MleResult(
        state=QuantumState(dim, rho),
        iters=iters,
        loglik=trace[-1],
        loglik_trace=np.asarray(trace),
        converged=converged,
        warnings=tuple(warnings),
    )


# ---------------------------------------------------------------------------
# bootstrap error bars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BootstrapErrors:
    db: float
    rho: np.ndarray
    n_resamples: int


def bootstrap_error(data: TomographyDataset, dim: int = 5, n_resamples: int = 50,
                    seed: int = 0) -> BootstrapErrors:
    """Nonparametric bootstrap (stratified per phase) of the reconstruction.

    Returns the standard deviation, across resamples, of the NLSQ dB value
    and of every density-matrix entry (elementwise absolute deviation).
    The data are binned once; a resample only recounts the cells of the
    samples it draws, and is reconstructed as `mle_reconstruct` would with
    its default binning and stopping rule.
    """
    if n_resamples < 2:
        raise InvalidInputError("need at least 2 resamples")
    P, cell = _binned(data, dim, MLE_BINS, MLE_SUPPORT, MLE_SUBDIV)
    rng = np.random.default_rng(seed)
    groups = [np.flatnonzero(data.phases == p) for p in data.unique_phases()]
    dbs = []
    rhos = []
    for _ in range(n_resamples):
        picked = cell[np.concatenate([g[rng.integers(0, g.size, g.size)] for g in groups])]
        counts = np.bincount(picked[picked >= 0], minlength=len(P))
        state = QuantumState(dim, _iterate(P, counts, dim, MLE_MAX_ITERS, MLE_TOL)[0])
        dbs.append(nlsq_db(state))
        rhos.append(state.matrix)
    rhos = np.asarray(rhos)
    rho_err = np.sqrt(np.mean(np.abs(rhos - rhos.mean(axis=0)) ** 2, axis=0))
    return BootstrapErrors(db=float(np.std(dbs)), rho=rho_err, n_resamples=n_resamples)


# ---------------------------------------------------------------------------
# dataset serialization
# ---------------------------------------------------------------------------


def write_dataset_csv(data: TomographyDataset, fh) -> None:
    """Write `phase_deg,quadrature` rows, phases in degrees, floats by repr.

    Each distinct phase is formatted once; the rows go out in blocks of
    _CSV_BLOCK, one write per block.
    """
    fh.write("phase_deg,quadrature\n")
    unique, index = np.unique(data.phases, return_inverse=True)
    prefix = np.array([f"{math.degrees(p)!r}," for p in unique.tolist()], dtype=object)
    for start in range(0, len(data), _CSV_BLOCK):
        rows = slice(start, start + _CSV_BLOCK)
        values = map(repr, data.values[rows].tolist())
        fh.write("\n".join(map(operator.concat, prefix[index[rows]].tolist(), values)) + "\n")


def read_dataset_csv(fh) -> TomographyDataset:
    """Parse a dataset CSV with numpy's C reader.

    CRLF endings, blank and whitespace-only lines and spaces around fields
    are accepted.  Degrees become radians through math.radians, once per
    distinct phase.  A row that is not two numeric fields raises
    InvalidInputError naming its line (see _malformed_row), and so does a
    row holding NaN or infinity.
    """
    header = fh.readline().strip()
    if header != "phase_deg,quadrature":
        raise InvalidInputError(f"unexpected dataset header {header!r}")
    lines = filter(None, map(str.strip, fh))
    first = next(lines, None)
    if first is None:  # header only; loadtxt would warn about an empty body
        return TomographyDataset(phases=np.empty(0), values=np.empty(0))
    try:
        table = np.loadtxt(itertools.chain((first,), lines), delimiter=",",
                           comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is None or table.shape[1] != 2 or not np.isfinite(table).all():
        raise InvalidInputError(_malformed_row(fh))
    degrees, index = np.unique(table[:, 0], return_inverse=True)
    radians = np.array([math.radians(d) for d in degrees.tolist()])
    return TomographyDataset(phases=radians[index], values=table[:, 1])


def _malformed_row(fh) -> str:
    """Message naming the first row that is not two numeric fields, NaN and
    infinity counting as not numeric, by its line in the file (the header is
    line 1).  The stream is read again from its start, so the search costs
    nothing until a file is rejected."""
    if fh.seekable():
        fh.seek(0)
        next(fh)  # the header, checked already
        for lineno, line in enumerate(fh, start=2):
            row = line.strip()
            if not row:
                continue
            try:
                parsed = np.loadtxt([row], delimiter=",", comments=None, ndmin=2)
            except ValueError:
                parsed = None
            if parsed is None or parsed.shape[1] != 2 or not np.isfinite(parsed).all():
                return f"dataset line {lineno}: rows need two numeric fields"
    return "dataset rows need two numeric fields"
