"""Property tests of the numeric capacity solver over generated Hermitian H."""
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cohgen.capacity as capacity
from cohgen import (
    SolverConfig,
    capacity_numeric,
    coherence_derivative,
    hs_norm,
    max_surprisal_variance,
)

CFG = SolverConfig(restarts=4, seed=0)


@st.composite
def hermitian_matrices(draw):
    d = draw(st.integers(2, 6))
    entries = st.floats(-1.0, 1.0, allow_subnormal=False)
    parts = draw(st.lists(entries, min_size=2 * d * d, max_size=2 * d * d))
    g = np.reshape(parts[: d * d], (d, d)) + 1j * np.reshape(parts[d * d:], (d, d))
    return (g + g.conj().T) / 2


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(h=hermitian_matrices(), k=st.integers(-2, 2))
def test_capacity_numeric_properties(h, k):
    res = capacity_numeric(h, CFG)  # converged or not, the same laws hold
    d = h.shape[0]
    # Hölder: the rate is Tr(H M) with ‖M‖₂ ≤ sqrt(2 f_max(d)); the proven
    # ceiling drops the diagonal of H from that norm, so it is no larger
    holder = hs_norm(h) * max_surprisal_variance(d).capacity_bound
    assert 0.0 <= res.value <= holder + 1e-9
    assert res.value <= res.upper_bound * (1 + 1e-12)
    assert res.upper_bound <= holder
    assert abs(coherence_derivative(h, res.argmax_state) - res.value) <= 1e-9
    # Capacity is homogeneous of degree one in H.  Scaling H by c = 2**k
    # together with the first step by 1/c and the gradient tolerance by c
    # makes every candidate the same point, so the solver must return exactly
    # c times the value.  (With the step left alone, H and cH can end in
    # different local maxima.)  The patch sits in the body: a function-scoped
    # fixture would trip hypothesis's health check.
    c = 2.0 ** k
    with (mock.patch.object(capacity, "_STEP_INIT", capacity._STEP_INIT / c),
          mock.patch.object(capacity, "_GRAD_TOL", capacity._GRAD_TOL * c)):
        scaled = capacity_numeric(c * h, CFG)
    assert abs(scaled.value - c * res.value) <= 1e-9 * max(1.0, c * res.value)
    assert scaled.upper_bound == c * res.upper_bound  # c is a power of 2
