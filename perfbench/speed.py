"""Machine-speed reference: time a fixed kernel next to the program's work.

On a shared two-core host the same pass of the same inputs runs up to about
1.5 times slower for seconds at a time, in CPU time as much as in wall time,
and whole minutes can be mostly slow or mostly fast.  That drift moves a
run's median pass time by more than any bound a benchmark could hold.  The
harness therefore times `kernel()` (benchmark code only, so no change to the
program moves it) just before and just after every timed segment, and scales
the segment's time by REFERENCE_S over the mean of the two kernel times: the
time the segment would have taken at the speed the kernel reads
REFERENCE_S.  Segments are whole passes or, where a workload marks them, the
steps of a pass, so a slow spell that starts mid-pass is seen.  A kernel run
between two steps slows the step after it a little: characterize passes with
their six marks took 3.6 s against 3.47 s timed whole (medians of 8 each), the
same on every commit since the kernel is fixed.

The kernel mixes what the workloads spend their time on: interpreted Python
(the lambda searches and the CLI), many numpy calls on few-by-few matrices
(states, moments), and vector and BLAS work on arrays of tens of thousands of
elements (filter design, traces, PCA).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Kernel time, in seconds, that normalised times are scaled to: about its
#: time on an idle core of the Xeon (Sapphire Rapids) the benchmark was
#: tuned on, so normalised times read close to the seconds of a quiet machine.
REFERENCE_S = 0.02

_rng = np.random.default_rng(20201130)
_SMALL = _rng.standard_normal((5, 5)) + 1j * _rng.standard_normal((5, 5))
_SMALL = _SMALL @ _SMALL.conj().T
_VEC = _rng.standard_normal(40000)
_MAT = _rng.standard_normal((120, 120))


def _python(n: int) -> float:
    acc, table = 0.0, {}
    for k in range(n):
        table[k & 63] = acc
        acc = acc * 0.999 + (k % 7) * 0.5 - table.get((k + 1) & 63, 0.0) * 1e-3
    return acc


def _small_numpy(n: int) -> float:
    acc = 0.0
    for _ in range(n):
        w = np.linalg.eigvalsh(_SMALL)
        acc += float(np.trace(_SMALL @ _SMALL).real) + float(w[0])
    return acc


def _arrays(n: int) -> float:
    acc = 0.0
    for _ in range(n):
        y = np.exp(-np.abs(_VEC)) * np.cos(_VEC)
        acc += float(np.dot(y, _VEC)) + float((_MAT @ _MAT)[0, 0])
    return acc


def kernel() -> float:
    """Run the reference kernel once and return its wall time in seconds."""
    start = perf_counter()
    _python(30000)
    _small_numpy(360)
    _arrays(9)
    return perf_counter() - start


class Meter:
    """Times segments of work, each between two kernel samples.

    `start()` opens a segment, `mark()` closes it and opens the next, and
    `stop()` closes the last.  The kernel's own time is outside every
    segment.  `raw_s` and `normalised_s` sum the segments since the last
    `start()`.
    """

    def __init__(self):
        kernel()  # first call pays for page faults and BLAS warm-up
        self.samples: list[float] = []
        self.raw_s = 0.0
        self.normalised_s = 0.0
        self._ref = None
        self._t0 = None

    def sample(self) -> float:
        """Run the kernel, keep its time and return it."""
        ref = kernel()
        self.samples.append(ref)
        return ref

    @staticmethod
    def normalise(seconds: float, before: float, after: float) -> float:
        """`seconds` scaled by the mean of the kernel times around it."""
        return seconds * REFERENCE_S / (0.5 * (before + after))

    def start(self) -> None:
        self.raw_s = self.normalised_s = 0.0
        self._ref = self.sample()
        self._t0 = perf_counter()

    def mark(self) -> None:
        elapsed = perf_counter() - self._t0
        ref = self.sample()
        self.raw_s += elapsed
        self.normalised_s += self.normalise(elapsed, self._ref, ref)
        self._ref = ref
        self._t0 = perf_counter()

    def stop(self) -> tuple[float, float]:
        """Close the last segment; return (raw, normalised) seconds."""
        self.mark()
        self._t0 = None
        return self.raw_s, self.normalised_s
