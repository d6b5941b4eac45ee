"""Property tests: the numeric capacity solver over generated Hermitian H,
and a typed error from every validating entry point on malformed input."""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cohgen.capacity as capacity
from cohgen import (
    SolverConfig,
    capacity_bound_equality,
    capacity_numeric,
    capacity_qubit,
    coherence_derivative,
    eig_hermitian,
    entropy_derivative_check,
    evolve,
    fd_derivative,
    hs_inner,
    hs_norm,
    max_surprisal_variance,
    optimal_hamiltonian,
    optimal_state,
    random_density,
    run_checks,
    simplex_grid_oracle,
    trajectory,
    unitary_exp,
    validate_density,
    validate_hermitian,
    validate_pure_state,
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
    # together with the first step by 1/c and the gradient tolerance
    # _GRAD_TOL·max(1, ‖H‖₂) by c makes every candidate the same point, so
    # the solver must return c times the value.  (With the step left alone,
    # H and cH can end in different local maxima.)  The patch sits in the
    # body: a function-scoped fixture would trip hypothesis's health check.
    c = 2.0 ** k
    norm = hs_norm(h)
    tol_factor = c * max(1.0, norm) / max(1.0, c * norm)
    with (mock.patch.object(capacity, "_STEP_INIT", capacity._STEP_INIT / c),
          mock.patch.object(capacity, "_GRAD_TOL", capacity._GRAD_TOL * tol_factor)):
        scaled = capacity_numeric(c * h, CFG)
    assert abs(scaled.value - c * res.value) <= 1e-9 * max(1.0, c * res.value)
    assert scaled.upper_bound == c * res.upper_bound  # c is a power of 2


# ---------------------------------------------------------------------------
# Malformed input raises a typed error at every validating entry point: a
# ValueError subclass, never numpy's LinAlgError (itself a ValueError), a
# TypeError or an IndexError.  The functions the README lists as assuming
# validated input are not fed.

RHO = np.eye(2) / 2
H = np.array([[0.0, 1.0], [1.0, 0.0]])
ONE_RESTART = SolverConfig(restarts=1)
TYPED = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# each call takes the malformed matrix in one operand slot; the second
# field says whether a stack, shape (..., d, d), is a valid operand there
MATRIX_SLOTS = {
    "validate_hermitian": (validate_hermitian, False),
    "validate_density": (validate_density, True),
    "eig_hermitian": (eig_hermitian, True),
    "unitary_exp": (lambda m: unitary_exp(m, 0.5), False),
    "hs_norm": (hs_norm, True),
    "hs_inner first": (lambda m: hs_inner(m, H), True),
    "hs_inner second": (lambda m: hs_inner(H, m), True),
    "capacity_numeric": (lambda m: capacity_numeric(m, ONE_RESTART), False),
    "capacity_qubit": (capacity_qubit, False),
    "evolve state": (lambda m: evolve(m, H, 0.5), False),
    "evolve hamiltonian": (lambda m: evolve(RHO, m, 0.5), False),
    "trajectory state": (lambda m: trajectory(m, H, [0.0, 1.0]), False),
    "trajectory hamiltonian": (lambda m: trajectory(RHO, m, [0.0, 1.0]), False),
    "fd_derivative state": (lambda m: fd_derivative(m, H, 1e-3), True),
    "fd_derivative hamiltonian": (lambda m: fd_derivative(RHO, m, 1e-3), True),
    "entropy_derivative_check state": (lambda m: entropy_derivative_check(m, H), True),
    "entropy_derivative_check hamiltonian": (lambda m: entropy_derivative_check(RHO, m), True),
}

# integer slots: the call and the valid range [low, high]; only values
# outside it are fed, so no call allocates a large problem
INTEGER_SLOTS = {
    "max_surprisal_variance d": (max_surprisal_variance, 2, None),
    "optimal_state d": (lambda k: optimal_state(k, 0.3), 2, None),
    "optimal_hamiltonian d": (optimal_hamiltonian, 2, None),
    "capacity_bound_equality d": (capacity_bound_equality, 2, None),
    "simplex_grid_oracle d": (lambda k: simplex_grid_oracle(k, 10), 2, 3),
    "simplex_grid_oracle resolution": (lambda k: simplex_grid_oracle(2, k), 1, 400),
    "random_density rank": (lambda k: random_density(3, np.random.default_rng(0), rank=k), 1, 3),
    "random_density d, rank by default": (lambda k: random_density(k, np.random.default_rng(0)), 1, None),
    "random_density d, with a rank": (lambda k: random_density(k, np.random.default_rng(0), rank=1), 1, None),
    "SolverConfig restarts": (lambda k: capacity_numeric(H, SolverConfig(restarts=k)), 1, None),
    "SolverConfig seed": (lambda k: capacity_numeric(H, SolverConfig(seed=k)), 0, None),
    "run_checks seed": (lambda k: run_checks("fast", k), 0, None),
}
# None selects the default of these integer parameters; every other slot rejects it
NONE_IS_DEFAULT = {"random_density rank"}

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# no real number: a str, None, a bool or a complex number
NOT_REAL = st.sampled_from(["x", "0.05", None, True, False, 0.05 + 0j])

# real-valued parameters and the values outside their range or type
SCALAR_SLOTS = {
    "evolve t": (lambda x: evolve(RHO, H, x), st.one_of(NON_FINITE, NOT_REAL)),
    "trajectory grid": (lambda x: trajectory(RHO, H, [0.0, x]), NON_FINITE),
    "fd_derivative step": (
        lambda x: fd_derivative(RHO, H, x),
        st.one_of(NON_FINITE, NOT_REAL, st.floats(max_value=0.0),
                  st.floats(min_value=0.1, exclude_min=True)),
    ),
    "optimal_state gamma": (
        lambda x: optimal_state(3, x),
        st.one_of(NON_FINITE, NOT_REAL, st.floats(max_value=0.0), st.floats(min_value=1.0)),
    ),
    "random_density mix": (
        lambda x: random_density(3, np.random.default_rng(0), mix=x),
        st.one_of(NON_FINITE, NOT_REAL, st.floats(max_value=0.0, exclude_max=True),
                  st.floats(min_value=1.0, exclude_min=True)),
    ),
}


def _raises_typed(call, arg):
    with pytest.raises(ValueError) as exc:
        call(arg)
    assert not isinstance(exc.value, np.linalg.LinAlgError), exc.value


@st.composite
def malformed_matrices(draw, stack_ok):
    """An array of the wrong ndim, a non-square or empty matrix, or a square
    matrix with a NaN or infinite entry."""
    kind = draw(st.sampled_from(["ndim", "non-square", "non-finite"]))
    if kind == "ndim":
        ndim = draw(st.sampled_from([0, 1] if stack_ok else [0, 1, 3]))
        shape = tuple(draw(st.lists(st.integers(0, 3), min_size=ndim, max_size=ndim)))
    elif kind == "non-square":
        shape = draw(st.tuples(st.integers(0, 4), st.integers(0, 4))
                     .filter(lambda s: s[0] != s[1] or s[0] == 0))
    else:
        d = draw(st.integers(1, 4))
        shape = (d, d)
    m = draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    if kind == "non-finite":
        m[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[0] - 1))] = draw(NON_FINITE)
    return m


@pytest.mark.parametrize("slot", sorted(MATRIX_SLOTS))
@TYPED
@given(data=st.data())
def test_malformed_matrices_raise_typed_errors(slot, data):
    call, stack_ok = MATRIX_SLOTS[slot]
    _raises_typed(call, data.draw(malformed_matrices(stack_ok)))


@TYPED
@given(psi=st.one_of(
    arrays(np.float64, st.sampled_from([(), (2, 2), (1, 2, 2)]), elements=st.floats(-1.0, 1.0)),
    arrays(np.float64, st.integers(0, 4), elements=NON_FINITE),
))
def test_malformed_pure_states_raise_typed_errors(psi):
    # a vector of the wrong ndim, or one with no finite entry
    _raises_typed(validate_pure_state, psi)


def _not_integers(low, high, none_is_default):
    """Values an integer parameter with range [low, high] must reject."""
    outside = [st.integers(max_value=low - 1)]
    if high is not None:
        outside.append(st.integers(min_value=high + 1))
    if not none_is_default:
        outside.append(st.none())
    return st.one_of(st.booleans(), st.floats(), st.text(max_size=3), *outside)


@pytest.mark.parametrize("slot", sorted(INTEGER_SLOTS))
@TYPED
@given(data=st.data())
def test_malformed_integers_raise_typed_errors(slot, data):
    call, low, high = INTEGER_SLOTS[slot]
    _raises_typed(call, data.draw(_not_integers(low, high, slot in NONE_IS_DEFAULT)))


@pytest.mark.parametrize("slot", sorted(SCALAR_SLOTS))
@TYPED
@given(data=st.data())
def test_out_of_range_parameters_raise_typed_errors(slot, data):
    call, values = SCALAR_SLOTS[slot]
    _raises_typed(call, data.draw(values))
