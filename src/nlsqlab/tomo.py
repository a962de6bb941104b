"""Homodyne quadrature sampling and iterative maximum-likelihood reconstruction.

Quadrature statistics follow pr(x|theta) = sum_mn rho_mn e^{i(m-n)theta}
psi_m(x) psi_n(x) with oscillator eigenfunctions normalized to a vacuum
variance of 1/2, so every phase reads one real table of psi_n per grid.
Reconstruction uses the standard iterated R*rho*R scheme on binned data.
The dataset CSV is written in blocks of 8192 rows and parsed by numpy's C
reader.
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
#: Population of the top Fock level above which a reconstruction warns that
#: `dim` may cut the state off: at dim 5 the paper's point leaves at most 2e-3
#: there from 6 x 1000 samples, and a coherent state with alpha = 2 leaves 0.31.
MLE_CUTOFF_POPULATION = 1e-2

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


def _phase_factors(dim: int, phases) -> np.ndarray:
    """E[k, m, n] = e^{i(m-n) phases[k]}: <x_theta|n> = e^{in theta} psi_n(x),
    so pr(x|theta) = sum_mn Re(rho_mn E_mn) psi_m(x) psi_n(x), and the
    projector on x at theta is conj(E) times the real one at phase 0."""
    m = np.arange(dim)
    return np.exp(1j * np.multiply.outer(np.asarray(phases, dtype=float), m[:, None] - m))


def _densities(state: QuantumState, phases, psi: np.ndarray):
    """pr(x|phase) for each of `phases` in turn, on the grid of the table
    psi of `oscillator_wavefunctions`, clipped at 0 against round-off."""
    for a in (state.matrix * _phase_factors(state.dim, phases)).real:
        yield np.clip((psi * (a @ psi)).sum(0), 0.0, None)


def quadrature_pdf(state: QuantumState, phase: float, x):
    """Probability density of a quadrature sample at the given LO phase."""
    scalar = np.isscalar(x)
    pr = next(_densities(state, [float(phase)], oscillator_wavefunctions(state.dim, x)))
    return float(pr[0]) if scalar else pr


@dataclass(frozen=True)
class TomographyDataset:
    """Phase-tagged quadrature records.

    Phases are folded into [0, pi); folding a phase by pi flips the sign of
    its quadrature values.  np.mod runs only on the phases outside
    [0, 2*pi), since it returns a phase inside unchanged.  `sample`,
    `pipeline` and the CSV reader give phases inside, so their fold does
    no division.
    """

    phases: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float).ravel()
        # A copy: the flips below change it in place.
        values = np.array(self.values, dtype=float).ravel()
        if phases.size != values.size:
            raise InvalidInputError("phases and values must have equal length")
        if phases.size and not (np.all(np.isfinite(phases)) and np.all(np.isfinite(values))):
            raise InvalidInputError("dataset contains non-finite entries")
        # A copy for the folds below; adding 0.0 turns -0.0 into 0.0, as
        # np.mod does.  One bool mask, refilled for each step, picks the
        # phases each step changes.
        folded = np.add(phases, 0.0)
        mask = np.less(folded, 0.0)
        np.mod(folded, 2.0 * np.pi, out=folded, where=mask)
        # A tiny negative phase rounds up to 2*pi there; this folds it to 0.0.
        np.greater_equal(folded, 2.0 * np.pi, out=mask)
        np.mod(folded, 2.0 * np.pi, out=folded, where=mask)
        flip = np.greater_equal(folded, np.pi, out=mask)
        np.subtract(folded, np.pi, out=folded, where=flip)
        np.negative(values, out=values, where=flip)
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


def _cdf_tables(state: QuantumState, phases: np.ndarray):
    """The sampler grid x and, in row k, the trapezoid-rule quadrature CDF
    at phases[k] on it, normalised to end at 1.  Every row comes from one
    table of oscillator wavefunctions on the grid.  The first phase whose
    distribution the grid holds less than SAMPLER_MIN_MASS of raises
    TruncationError."""
    x = np.linspace(*SAMPLER_SUPPORT, SAMPLER_POINTS)
    dx = np.diff(x)
    cdf = np.zeros((len(phases), x.size))
    pdfs = _densities(state, phases, oscillator_wavefunctions(state.dim, x))
    for row, phase, pdf in zip(cdf, phases, pdfs):
        np.cumsum((pdf[1:] + pdf[:-1]) / 2.0 * dx, out=row[1:])
        if not row[-1] >= SAMPLER_MIN_MASS:
            raise TruncationError(
                f"sampler support {SAMPLER_SUPPORT} holds only {row[-1]:.12f} of the "
                f"quadrature distribution at phase {phase:g} (needs {SAMPLER_MIN_MASS})"
            )
    cdf /= cdf[:, -1:]
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


def _lookup(row: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.interp(u, row, x) for uniforms u in [0, 1].

    u is visited in the order of a stable sort of the 16-bit keys
    floor(65535 u), which numpy runs as a radix sort, and the values are
    put back in their slots.  Queries in key order lie close together, so
    np.interp, which starts each binary search at the previous query's bin,
    finds the bin at once.  The bin found does not depend on where the
    search starts, so the order cannot change a value.
    """
    order = np.argsort((u * 65535.0).astype(np.uint16), kind="stable")
    q = np.empty(u.size)
    q[order] = np.interp(u[order], row, x)
    return q


def _draw(state: QuantumState, phases: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF quadrature samples: uniform u[i] mapped through the
    state's quadrature CDF at LO phase phases[i], one table row per
    distinct phase, each phase's uniforms through `_lookup`.  `sample`
    draws its contiguous phase blocks through `_lookup` straight, with no
    scan of the phases.
    """
    lo = np.unique(phases)
    x, cdf = _cdf_tables(state, lo)
    q = np.empty(u.size)
    for phase, row in zip(lo, cdf):
        idx = np.flatnonzero(phases == phase)
        q[idx] = _lookup(row, x, u[idx])
    return q


def sample(state: QuantumState, phases=DEFAULT_PHASES,
           n_per_phase: int = DEFAULT_EVENTS_PER_PHASE, seed: int = 0) -> TomographyDataset:
    """Draw n_per_phase quadratures at each LO phase; deterministic per seed.

    Each phase consumes an independent child stream of the master seed, so
    per-phase sampling may run in parallel without changing the result.
    One CDF row is built per distinct phase, and each stream's uniforms go
    through its phase's row into that phase's block of the output.
    """
    if n_per_phase < 1:
        raise InvalidInputError("n_per_phase must be at least 1")
    phases = _lo_phases(phases)
    lo, inv = np.unique(phases, return_inverse=True)
    x, cdf = _cdf_tables(state, lo)
    values = np.empty((phases.size, n_per_phase))
    for block, k, child in zip(values, inv, np.random.SeedSequence(seed).spawn(phases.size)):
        block[:] = _lookup(cdf[k], x, np.random.default_rng(child).random(n_per_phase))
    return TomographyDataset(phases=np.repeat(phases, n_per_phase), values=values)


# ---------------------------------------------------------------------------
# maximum-likelihood reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MleResult:
    state: QuantumState
    loglik_trace: np.ndarray
    converged: bool
    warnings: tuple[str, ...] = ()

    @property
    def iters(self) -> int:
        return self.loglik_trace.size

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    def report(self) -> dict:
        return {
            "iters": int(self.iters),
            "loglik": float(self.loglik),
            "converged": bool(self.converged),
            "warnings": list(self.warnings),
        }


def _binned(data: TomographyDataset, dim: int, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Projector stack and the cell of every sample.

    Cell j = k * n_bins + b for the k-th unique phase and bin b, with the
    bins of np.histogram over MLE_SUPPORT (the last edge inclusive).  Row j
    of the (J, dim**2) stack P is the cell's projector flattened, so that
    P @ rho.T.ravel() gives every Tr(Pi_j rho).  A sample outside the
    support has cell -1.
    """
    if dim < 2:
        raise DimensionError("reconstruction needs dim >= 2")
    if len(data) == 0:
        raise InvalidInputError("empty dataset")
    if not n_bins >= 1:
        raise InvalidInputError(f"need n_bins >= 1, got {n_bins}")
    edges = np.linspace(*MLE_SUPPORT, n_bins + 1)
    x = data.values
    phases = data.unique_phases()
    k = np.searchsorted(phases, data.phases)
    # The arithmetic bin is off by at most one near an edge; the edge
    # comparisons settle it, as np.histogram does for uniform bins.  x is
    # clipped to the support first, so that a huge sample cannot overflow
    # the product; a sample outside the support gets cell -1 below anyway.
    b = np.clip((np.clip(x, edges[0], edges[-1]) - edges[0]) * (n_bins / (edges[-1] - edges[0])),
                0, n_bins - 1).astype(int)
    b -= x < edges[b]
    b += (x >= edges[b + 1]) & (b < n_bins - 1)
    cell = np.where((x >= edges[0]) & (x <= edges[-1]), k * n_bins + b, -1)
    # Integrated projector per bin at phase 0, real, by the midpoint rule
    # with MLE_SUBDIV points; at phase theta it is conj(E(theta)) times that.
    width = edges[1] - edges[0]
    sub = (np.arange(MLE_SUBDIV) + 0.5) / MLE_SUBDIV
    psi = oscillator_wavefunctions(dim, (edges[:-1, None] + sub * width).ravel())
    psi = psi.reshape(dim, n_bins, MLE_SUBDIV)
    pi0 = np.einsum("mjs,njs->jmn", psi, psi, order="C") * (width / MLE_SUBDIV)
    P = _phase_factors(dim, phases).conj()[:, None] * pi0
    return P.reshape(-1, dim * dim), cell


def _iterate(P: np.ndarray, counts: np.ndarray, dim: int, max_iters: int, tol: float):
    """R*rho*R iteration on the cells with a nonzero count.

    Returns (rho, log-likelihood per iteration, converged), where the last
    log-likelihood is rho's own: the gain is tested before each update, and
    no update follows the last evaluation.  rho is projected back onto the
    PSD cone if round-off left it outside.  A step that lowers the
    likelihood is undone and ends the iteration.
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
    rho = prev = np.eye(dim, dtype=complex) / dim
    trace = []
    while True:
        pr = np.maximum(P @ rho.ravel().view(float), MLE_PROB_FLOOR)
        loglik = float(f @ np.log(pr))
        if trace and loglik < trace[-1]:
            rho, converged = prev, True
            break
        trace.append(loglik)
        converged = len(trace) > 1 and trace[-1] - trace[-2] < tol * abs(trace[-1])
        if converged or len(trace) == max_iters:
            break
        r = ((f / pr) @ P).view(complex).reshape(dim, dim)
        prev, rho = rho, r @ rho @ r
        rho = (rho + rho.conj().T) / 2.0
        rho /= rho.trace().real

    eigs = np.linalg.eigvalsh(rho)
    if eigs[0] < 0:  # tiny negative round-off; project back onto PSD cone
        vals, vecs = np.linalg.eigh(rho)
        vals = np.clip(vals, 0.0, None)
        rho = (vecs * vals) @ vecs.conj().T
        rho /= rho.trace().real
    return rho, np.asarray(trace), converged


def mle_reconstruct(data: TomographyDataset, dim: int = 5,
                    max_iters: int = MLE_MAX_ITERS, tol: float = MLE_TOL,
                    n_bins: int = MLE_BINS) -> MleResult:
    """Iterated R*rho*R maximum-likelihood estimate from binned quadratures.

    Iterates rho <- normalize(R(rho) rho R(rho)) with
    R = sum_j f_j / pr_j(rho) * Pi_j until the relative log-likelihood gain
    drops below `tol` or `max_iters` is reached (then flagged, not raised).
    The state returned is the one whose likelihood ends `loglik_trace`.
    One iteration is two matrix-vector products with the projector stack.
    A top-level population above MLE_CUTOFF_POPULATION is flagged too: the
    state may not fit in `dim` levels.
    """
    P, cell = _binned(data, dim, n_bins)
    inside = cell >= 0
    rho, trace, converged = _iterate(
        P, np.bincount(cell[inside], minlength=len(P)), dim, max_iters, tol)
    warnings = []
    dropped = cell.size - np.count_nonzero(inside)
    if dropped:
        warnings.append(f"dropped {dropped} samples outside {MLE_SUPPORT}")
    if not converged:
        warnings.append(f"no convergence after {max_iters} iterations")
    top = rho[-1, -1].real
    if top > MLE_CUTOFF_POPULATION:
        warnings.append(f"population {top:.3g} on the top level |{dim - 1}> exceeds "
                        f"{MLE_CUTOFF_POPULATION:g}: dim {dim} may cut the state off")
    return MleResult(
        state=QuantumState(rho),
        loglik_trace=trace,
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
    P, cell = _binned(data, dim, MLE_BINS)
    rng = np.random.default_rng(seed)
    groups = [np.flatnonzero(data.phases == p) for p in data.unique_phases()]
    dbs = []
    rhos = []
    for _ in range(n_resamples):
        picked = cell[np.concatenate([g[rng.integers(0, g.size, g.size)] for g in groups])]
        counts = np.bincount(picked[picked >= 0], minlength=len(P))
        state = QuantumState(_iterate(P, counts, dim, MLE_MAX_ITERS, MLE_TOL)[0])
        dbs.append(nlsq_db(state))
        rhos.append(state.matrix)
    rhos = np.asarray(rhos)
    rho_err = np.sqrt(np.mean(np.abs(rhos - rhos.mean(axis=0)) ** 2, axis=0))
    return BootstrapErrors(db=float(np.std(dbs)), rho=rho_err)


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
    are accepted.  Degrees become radians through np.radians, which rounds
    as math.radians does.  A row that is not two numeric fields raises
    InvalidInputError naming its line (see _malformed_row), and so do a
    row holding NaN or infinity and a line that is not text in the file's
    encoding.
    """
    try:
        header = fh.readline().strip()
        lines = filter(None, map(str.strip, fh))
        first = next(lines, None)
    except UnicodeDecodeError:
        raise InvalidInputError(_malformed_row(fh)) from None
    if header != "phase_deg,quadrature":
        raise InvalidInputError(f"unexpected dataset header {header!r}")
    if first is None:  # header only; loadtxt would warn about an empty body
        return TomographyDataset(phases=np.empty(0), values=np.empty(0))
    try:
        table = np.loadtxt(itertools.chain((first,), lines), delimiter=",",
                           comments=None, ndmin=2)
    except ValueError:  # UnicodeDecodeError among them
        table = None
    if table is None or table.shape[1] != 2 or not np.isfinite(table).all():
        raise InvalidInputError(_malformed_row(fh))
    return TomographyDataset(phases=np.radians(table[:, 0]), values=table[:, 1])


def _malformed_row(fh) -> str:
    """Message naming the first line that is not text in the stream's
    encoding, or the first row that is not two numeric fields, NaN and
    infinity counting as not numeric, by its line in the file (the header is
    line 1).  The stream is read again from its start, so the search costs
    nothing until a file is rejected.  A text file is read again through its
    byte buffer, split where text mode splits lines (LF, CR-LF or CR): its
    decoder fails on a whole read-ahead block, not on the bad line."""
    if fh.seekable():
        fh.seek(0)
        raw = getattr(fh, "buffer", None)
        lines = fh if raw is None else itertools.chain.from_iterable(
            line.splitlines() for line in raw)
        for lineno, line in enumerate(lines, start=1):
            if raw is not None:
                try:
                    line = line.decode(fh.encoding)
                except UnicodeDecodeError:
                    return f"dataset line {lineno}: not {fh.encoding} text"
            row = line.strip()
            if lineno == 1 or not row:  # the header is no row
                continue
            try:
                parsed = np.loadtxt([row], delimiter=",", comments=None, ndmin=2)
            except ValueError:
                parsed = None
            if parsed is None or parsed.shape[1] != 2 or not np.isfinite(parsed).all():
                return f"dataset line {lineno}: rows need two numeric fields"
    return "dataset rows need two numeric fields"
