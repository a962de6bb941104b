"""Independent oracles for the test suite.

Everything here is computed from first principles (hand-derived closed forms,
explicit small matrices, or brute-force grids) without calling the package's
own implementation paths.
"""

import math

import numpy as np
import scipy.linalg
from scipy.special import eval_genlaguerre

SQRT2 = np.sqrt(2.0)


# --- number-basis moment tables (hand-derived diagonal elements) -----------

def x2_diag(n: int) -> float:
    return n + 0.5


def p2_diag(n: int) -> float:
    return n + 0.5


def x4_diag(n: int) -> float:
    return 0.75 * (2 * n * n + 2 * n + 1)


# --- explicit ladder-matrix construction (independent of the package) ------

def ladder_x_p(dim: int):
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        a[n, n + 1] = np.sqrt(n + 1.0)
    x = (a + a.conj().T) / SQRT2
    p = (a - a.conj().T) / (1j * SQRT2)
    return x, p


def dense_noise_moments(rho: np.ndarray, order: int):
    """(<p>, <p^2>, <x^(N-1)>, <x^(2N-2)>, <{p, x^(N-1)}>/2) as direct traces
    against ladder_x_p matrices at a cutoff 4N levels above the state's, where
    no power up to x^(2N-2) reaches the edge from the state's support."""
    dim = rho.shape[0]
    big = dim + 4 * order
    x, p = ladder_x_p(big)
    xn = np.linalg.matrix_power(x, order - 1)
    padded = np.zeros((big, big), dtype=complex)
    padded[:dim, :dim] = rho
    ops = (p, p @ p, xn, xn @ xn, (p @ xn + xn @ p) / 2.0)
    return tuple(float(np.trace(op @ padded).real) for op in ops)


# --- two-level states -------------------------------------------------------

def two_level_moments(rho00: float, rho01: complex, rho11: float) -> dict:
    """Moments of a state supported on {|0>, |1>}, from hand-derived forms:

    <x> = sqrt(2) Re rho01, <p> = -sqrt(2) Im rho01,
    <x^2> = <p^2> = 1/2 + rho11, <x^4> = 3/4 + 3 rho11,
    <{p, x^2}>/2 = -Im(rho01)/sqrt(2).
    """
    return {
        "x": SQRT2 * np.real(rho01),
        "p": -SQRT2 * np.imag(rho01),
        "x2": 0.5 + rho11,
        "p2": 0.5 + rho11,
        "x4": 0.75 + 3.0 * rho11,
        "sym_px2": -np.imag(rho01) / SQRT2,
    }


def two_level_noise_stats(rho00, rho01, rho11):
    """(Var p, Var x^2, symmetrized Cov(p, x^2)) for the noise variance."""
    m = two_level_moments(rho00, rho01, rho11)
    return (
        m["p2"] - m["p"] ** 2,
        m["x4"] - m["x2"] ** 2,
        m["sym_px2"] - m["p"] * m["x2"],
    )


def lossy_two_level_matrix(theta: float, phi: float, loss: float) -> np.ndarray:
    """The 2x2 density matrix of the lossy 0/1 superposition."""
    s2 = np.sin(theta / 2.0) ** 2
    eta = 1.0 - loss
    return np.array([
        [1.0 - eta * s2, 0.5 * np.sin(theta) * np.exp(-1j * phi) * np.sqrt(eta)],
        [0.5 * np.sin(theta) * np.exp(1j * phi) * np.sqrt(eta), eta * s2],
    ])


# --- brute-force nonlinear-variance minimization ----------------------------

def cubic_noise_variance(var_p, var_x2, cov, lam, kappa=1.0):
    return lam ** 2 * var_p + (3.0 * kappa) ** 2 * var_x2 / lam ** 4 \
        - 6.0 * kappa * cov / lam


def dense_lambda_min(var_p, var_x2, cov, kappa=1.0, n=200001):
    lams = np.geomspace(1e-2, 1e2, n)
    vals = cubic_noise_variance(var_p, var_x2, cov, lams, kappa)
    i = int(np.argmin(vals))
    return lams[i], float(vals[i])


def vacuum_optimum_closed_form():
    """min over lam of lam^2/2 + (9/2)/lam^4, attained at lam^6 = 18."""
    lam = 18.0 ** (1.0 / 6.0)
    return lam, 18.0 ** (1.0 / 3.0) / 2.0 + 4.5 * 18.0 ** (-2.0 / 3.0)


# --- phase space ------------------------------------------------------------

def parity_wigner_origin(rho: np.ndarray) -> float:
    signs = (-1.0) ** np.arange(rho.shape[0])
    return float(np.real(np.sum(signs * np.diag(rho)))) / np.pi


def wigner_laguerre(rho: np.ndarray, xs, ps) -> np.ndarray:
    """W[i, j] = W(xs[i], ps[j]) as sum_mn rho_mn W_mn over every m, n, with
    alpha = (x + ip)/sqrt(2) and the Wigner function of |m><n| in closed form:
    for n >= m, W_mn = (-1)^m / pi sqrt(m!/n!) (2 alpha)^(n-m) exp(-2|alpha|^2)
    L_m^(n-m)(4|alpha|^2), and W_nm = conj(W_mn)."""
    x = np.asarray(xs, dtype=float)[:, None]
    alpha = (x + 1j * np.asarray(ps, dtype=float)[None, :]) / SQRT2
    r = 4.0 * np.abs(alpha) ** 2
    w = np.zeros(alpha.shape, dtype=complex)
    for m in range(rho.shape[0]):
        for n in range(m, rho.shape[0]):
            w_mn = ((-1) ** m / np.pi * math.sqrt(math.factorial(m) / math.factorial(n))
                    * (2.0 * alpha) ** (n - m) * np.exp(-r / 2.0) * eval_genlaguerre(m, n - m, r))
            w += rho[m, n] * w_mn
            if n > m:
                w += rho[n, m] * w_mn.conj()
    return w.real


# --- quadrature distributions ----------------------------------------------

def vacuum_pdf(x):
    return np.exp(-np.asarray(x) ** 2) / np.sqrt(np.pi)


def one_photon_pdf(x):
    x = np.asarray(x)
    return 2.0 * x ** 2 * np.exp(-x ** 2) / np.sqrt(np.pi)


# --- temporal modes ----------------------------------------------------------

def single_pole_inner_product(g1: float, g2: float) -> float:
    return 2.0 * np.sqrt(g1 * g2) / (g1 + g2)


# --- dataset phase folding, with full-size temporaries ----------------------

def fold_dataset(phases, values):
    """(phases folded into [0, pi), values with the folded ones negated),
    by np.where on fresh arrays."""
    folded = np.mod(np.asarray(phases, dtype=float), 2.0 * np.pi)
    folded[folded == 2.0 * np.pi] = 0.0
    flip = folded >= np.pi
    values = np.asarray(values, dtype=float)
    return np.where(flip, folded - np.pi, folded), np.where(flip, -values, values)


# --- homodyne maximum likelihood, einsum reference ---------------------------

def _wavefunctions(dim, x):
    psi = np.empty((dim, x.size))
    psi[0] = np.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    if dim > 1:
        psi[1] = np.sqrt(2.0) * x * psi[0]
    for n in range(1, dim - 1):
        psi[n + 1] = np.sqrt(2.0 / (n + 1)) * x * psi[n] - np.sqrt(n / (n + 1)) * psi[n - 1]
    return psi


def quadrature_pdf_einsum(rho, phase, x):
    """v^dag rho v at every x, as one three-operand einsum, with its bound
    |v|^T |rho| |v| on the magnitude of the terms summed."""
    dim = rho.shape[0]
    v = np.exp(-1j * phase * np.arange(dim))[:, None] * _wavefunctions(dim, x)
    pr = np.einsum("mx,mn,nx->x", v.conj(), rho, v).real
    return np.clip(pr, 0.0, None), np.einsum("mx,mn,nx->x", abs(v), abs(rho), abs(v))


def _einsum_projectors(dim, phase, edges, subdiv):
    n_bins = edges.size - 1
    width = edges[1] - edges[0]
    sub = (np.arange(subdiv) + 0.5) / subdiv
    xs = (edges[:-1, None] + sub[None, :] * width).ravel()
    v = np.exp(-1j * phase * np.arange(dim))[:, None] * _wavefunctions(dim, xs)
    v = v.reshape(dim, n_bins, subdiv)
    return np.einsum("mjs,njs->jmn", v, v.conj()) * (width / subdiv)


def mle_einsum(phases, values, dim, max_iters=2000, tol=1e-9, n_bins=256,
               support=(-6.0, 6.0), subdiv=8, floor=1e-12):
    """The iterated R*rho*R estimate with one np.histogram per phase and
    two einsum contractions per iteration.  Phases must already lie in
    [0, pi).  The gain is tested before each update, so rho is the state
    whose likelihood ends the trace.  Returns (rho, iters, loglik trace,
    converged, warnings)."""
    edges = np.linspace(support[0], support[1], n_bins + 1)
    projectors = []
    counts = []
    dropped = 0
    for phase in np.unique(phases):
        vals = values[phases == phase]
        inside = vals[(vals >= support[0]) & (vals <= support[1])]
        dropped += vals.size - inside.size
        hist, _ = np.histogram(inside, bins=edges)
        keep = hist > 0
        projectors.append(_einsum_projectors(dim, float(phase), edges, subdiv)[keep])
        counts.append(hist[keep].astype(float))
    pi = np.concatenate(projectors, axis=0)
    f = np.concatenate(counts)

    warnings = []
    if dropped:
        warnings.append(f"dropped {dropped} samples outside {support}")
    rho = np.eye(dim, dtype=complex) / dim
    trace = []
    for iters in range(1, max_iters + 1):
        pr = np.einsum("jmn,nm->j", pi, rho).real
        pr = np.clip(pr, floor, None)
        trace.append(float(f @ np.log(pr)))
        converged = len(trace) > 1 and trace[-1] - trace[-2] < tol * abs(trace[-1])
        if converged or iters == max_iters:
            break
        r = np.einsum("j,jmn->mn", f / pr, pi)
        rho = r @ rho @ r
        rho = (rho + rho.conj().T) / 2.0
        rho /= rho.trace().real
    if not converged:
        warnings.append(f"no convergence after {max_iters} iterations")
    if np.linalg.eigvalsh(rho)[0] < 0:
        vals, vecs = np.linalg.eigh(rho)
        rho = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        rho /= rho.trace().real
    if rho[-1, -1].real > 1e-2:
        warnings.append(f"population {rho[-1, -1].real:.3g} on the top level |{dim - 1}> "
                        f"exceeds 0.01: dim {dim} may cut the state off")
    return rho, iters, np.asarray(trace), converged, tuple(warnings)


# --- ancilla start grid, one lambda at a time ---------------------------------

def ancilla_grid_per_lambda(y_terms, y2_terms, n=33, span=4.0):
    """(log lambdas, m grid, lowest eigenvalues) of the ancilla search's
    start grid, one lambda per loop step.  Each term set is (powers k,
    blocks A_k) of sum_k e^(k s) A_k; row i takes n values of m across the
    spectrum of Y at s_i and the lowest eigenvalue of Y^2 - 2 m Y + m^2."""
    log_lams = np.linspace(-math.log(span), math.log(span), n)
    ms = np.empty((n, n))
    vals = np.empty((n, n))
    for i, s in enumerate(log_lams):
        y, y2 = (np.tensordot(np.exp(k * s), a, axes=1) for k, a in (y_terms, y2_terms))
        spectrum = np.linalg.eigvalsh(y)
        ms[i] = np.linspace(spectrum[0], spectrum[-1], n)
        eye = np.eye(len(y))
        vals[i] = [np.linalg.eigvalsh(y2 - 2.0 * m * y + m * m * eye)[0] for m in ms[i]]
    return log_lams, ms, vals


def grid_local_minima(vals):
    """Cells (i, j) of a 2-D grid no larger than any of their up to 8
    neighbours, in row-major order."""
    rows, cols = vals.shape
    return [(i, j) for i in range(rows) for j in range(cols)
            if all(vals[i, j] <= vals[a, b]
                   for a in range(max(i - 1, 0), min(i + 2, rows))
                   for b in range(max(j - 1, 0), min(j + 2, cols)))]


# --- homodyne traces, one-shot reference -------------------------------------

def traces_one_shot(quadrature_cdf, f, dt, n_events, phases, seed):
    """Homodyne records q*f(t) + vacuum noise orthogonal to f, with all the
    uniforms of the noise drawn in one call.  `quadrature_cdf(phase)` gives
    the (x, cdf) table the quadratures are drawn from by inverse transform.
    Each row of n bins takes 2m uniforms, m = ceil(n/2): Box-Muller radii of
    variance 1/dt per pair from the first m (float64, then float32), float32
    angles from the last m, the cosines in bins [0, m) and the sines of the
    first n - m angles after them.  Each row's float64 projection on f,
    minus q, is removed along f in float32.  Returns the float32 traces
    (n_events, f.size)."""
    phase_per_event = np.resize(np.asarray(phases, dtype=float), n_events)
    rng_q, rng_noise = (np.random.default_rng(c)
                        for c in np.random.SeedSequence(seed).spawn(2))
    u = rng_q.random(n_events)
    q = np.empty(n_events)
    for phase in np.unique(phase_per_event):
        idx = np.flatnonzero(phase_per_event == phase)
        x, cdf = quadrature_cdf(float(phase))
        q[idx] = np.interp(u[idx], cdf, x)
    m = (f.size + 1) // 2
    u = rng_noise.random((n_events, 2 * m))
    radius = np.sqrt(-np.log(1.0 - u[:, :m]) / dt).astype(np.float32)
    angle = (2.0 * np.pi * u[:, m:]).astype(np.float32)
    x = np.hstack([radius * np.cos(angle), radius * np.sin(angle)])[:, :f.size]
    coef = x @ f * dt - q
    return x - np.outer(coef.astype(np.float32), f.astype(np.float32))


# --- PCA ---------------------------------------------------------------------

def centred_covariance(traces, keep):
    """(covariance minus the vacuum floor 1/(2 dt), traces) of the bins
    `keep`, from a centred float64 copy of the traces."""
    x = traces.traces[:, keep].astype(np.float64)
    centred = x - x.mean(axis=0)
    cov = centred.T @ centred / traces.n_events
    cov[np.diag_indices_from(cov)] -= 1.0 / (2.0 * traces.dt)
    return cov, x


# --- Gaussian test states in closed form -------------------------------------

def _pure(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """|alpha><alpha| cut at `dim` levels and renormalised: amplitudes
    alpha^n / sqrt(n!)."""
    return _pure([alpha ** n / math.sqrt(math.factorial(n)) for n in range(dim)])


def squeezed_vacuum(r: float, dim: int) -> np.ndarray:
    """S(r)|0><0|S(r)^dag, Var(x) = exp(-2r)/2, cut at `dim` levels and
    renormalised: amplitude (-tanh r)^n sqrt(C(2n, n)) / 2^n on |2n>."""
    psi = np.zeros(dim)
    for n in range((dim + 1) // 2):
        psi[2 * n] = (-math.tanh(r)) ** n * math.sqrt(math.comb(2 * n, n)) / 2 ** n
    return _pure(psi)


def displace(rho: np.ndarray, alpha: complex) -> np.ndarray:
    """D(alpha) rho D(alpha)^dag on the cutoff of `rho`, with D the matrix
    exponential of alpha a^dag - alpha* a on twice as many levels, so that
    the cut of the generator does not reach the kept block."""
    dim = rho.shape[0]
    a = np.diag(np.sqrt(np.arange(1.0, 2 * dim)), k=1)
    d = scipy.linalg.expm(alpha * a.T - np.conj(alpha) * a)[:dim, :dim]
    return d @ rho @ d.conj().T


# --- dataset CSV, one row at a time -------------------------------------------

def write_dataset_csv_rows(phases, values, fh):
    """The `phase_deg,quadrature` file written row by row: the phase in
    degrees and the value, each as the repr of a Python float."""
    fh.write("phase_deg,quadrature\n")
    for phase, value in zip(phases, values):
        fh.write(f"{math.degrees(phase)!r},{float(value)!r}\n")


def read_dataset_csv_rows(fh):
    """(phases in radians, values) parsed row by row with Python's float();
    blank and whitespace-only lines are skipped."""
    header = fh.readline().strip()
    if header != "phase_deg,quadrature":
        raise ValueError(f"unexpected dataset header {header!r}")
    phases = []
    values = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        a, b = line.split(",")
        phases.append(math.radians(float(a)))
        values.append(float(b))
    return np.asarray(phases, dtype=float), np.asarray(values, dtype=float)
