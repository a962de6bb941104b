"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import nlsqlab as nl


@st.composite
def psd_states(draw, dims=st.integers(2, 12)):
    """rho = G G^dag / Tr(G G^dag) for a random complex G of random rank,
    so pure and mixed states both occur."""
    dim = draw(dims)
    rank = draw(st.integers(1, dim))
    g = draw(hnp.arrays(np.float64, (2, dim, rank), elements=st.floats(-1.0, 1.0)))
    g = g[0] + 1j * g[1]
    rho = g @ g.conj().T
    norm = np.trace(rho).real
    # tiny entries underflow in G G^dag
    assume(norm > 1e-6)
    return nl.QuantumState(rho / norm)
