"""Hypothesis fuzz of the library's public constructors and kernels.

Every input below either builds a value that satisfies the documented
invariants or is refused with a ``QrsError`` or ``ValueError`` -- never a
numpy error, and never a silent acceptance of non-finite or overflowing
numbers.  Special values (NaN, +-inf, 1e308) are drawn often on purpose.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qrs_sim import (
    CorrelationTable,
    DensityOperator,
    ExperimentConfig,
    JointDistribution,
    Operator,
    QrsError,
    SpaceRegistry,
    StateVector,
    basis_state,
    partial_trace,
)

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, 1.0, -1.0, 0.5, 2**-0.5, 1e-320])
REALS = st.one_of(SPECIAL, st.floats(allow_nan=True, allow_infinity=True))
COMPLEX = st.builds(complex, REALS, st.one_of(st.just(0.0), REALS))
SPACE = SpaceRegistry([("A", 2), ("B", 3)])
FUZZ = settings(max_examples=100, deadline=None)
#: seeds and draw counts: negative, bool, float and huge; a count between
#: 3000 and 2**62 is left out because it may allocate gigabytes before
#: anything refuses it, where 2**62 and more cannot be shaped at all
SAMPLER_ARGUMENTS = st.one_of(
    st.integers(-3, 3000),
    st.sampled_from([2**62, 2**63, 2**64, 10**30]),
    st.booleans(),
    REALS,
)
SAMPLER_SEEDS = st.one_of(SAMPLER_ARGUMENTS, st.integers(-(2**70), 2**70))


def refused(call):
    """Run ``call``; return None if it raised one of the allowed errors."""
    try:
        return call()
    except (QrsError, ValueError):
        return None


def entries(shape):
    return st.lists(COMPLEX, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda values: np.array(values, dtype=complex).reshape(shape)
    )


def batch_shapes(core):
    return st.one_of(st.just(core), st.integers(1, 3).map(lambda b: (b,) + core))


def assert_valid_state(state):
    assert np.all(np.isfinite(state.amplitudes))
    assert np.all(np.abs(np.atleast_1d(state.norm()) - 1.0) <= 1e-12)


class TestLibraryFuzz:
    @FUZZ
    @given(data=st.data(), shape=batch_shapes((6,)), normalize=st.booleans())
    def test_state_vector(self, data, shape, normalize):
        amps = data.draw(entries(shape))
        state = refused(lambda: StateVector(SPACE, amps, normalize=normalize))
        if state is not None:
            assert_valid_state(state)
            assert state.batch == (shape[0] if len(shape) == 2 else None)

    @FUZZ
    @given(data=st.data(), op_shape=batch_shapes((2, 2)), state_batch=st.booleans())
    def test_operator_apply(self, data, op_shape, state_batch):
        matrix = data.draw(entries(op_shape))
        op = Operator(SpaceRegistry([("A", 2)]), matrix)
        start = np.eye(6)[: (op_shape[0] if state_batch and len(op_shape) == 3 else 1)]
        state = StateVector(SPACE, start if state_batch else start[0])
        moved = refused(lambda: op.apply(state))
        if moved is not None:
            assert_valid_state(moved)

    @FUZZ
    @given(data=st.data(), shape=batch_shapes((3, 3)))
    def test_density_operator_and_partial_trace(self, data, shape):
        matrix = data.draw(entries(shape))
        rho = refused(lambda: DensityOperator(SpaceRegistry([("C", 3)]), matrix))
        if rho is not None:
            assert np.all(np.isfinite(rho.matrix))
            assert np.all(np.abs(np.atleast_1d(rho.trace()) - 1.0) <= 1e-12)
        amps = data.draw(entries((6,)))
        state = refused(lambda: StateVector(SPACE, amps, normalize=True))
        keep = data.draw(st.sampled_from([["A"], ["B"], ["A", "B"], ["Z"], []]))
        if state is not None:
            for source in (state, state.density()):
                reduced = refused(lambda: partial_trace(source, keep))
                if reduced is not None:
                    assert np.all(np.isfinite(reduced.matrix))

    @FUZZ
    @given(
        index=st.one_of(
            st.integers(-10, 10),
            REALS,
            st.tuples(st.integers(-3, 4), st.integers(-3, 4)),
            st.tuples(REALS, st.integers(0, 2)),
            st.lists(st.integers(0, 2), max_size=3),
        )
    )
    def test_basis_state(self, index):
        state = refused(lambda: basis_state(SPACE, index))
        if state is not None:
            assert_valid_state(state)
            assert np.count_nonzero(state.amplitudes) == 1

    @FUZZ
    @given(
        a=COMPLEX,
        b=COMPLEX,
        theta1=st.one_of(REALS, st.lists(REALS, max_size=3), st.lists(st.lists(REALS, max_size=2), max_size=2)),
        theta2=st.one_of(REALS, st.lists(REALS, max_size=3)),
    )
    def test_experiment_config(self, a, b, theta1, theta2):
        config = refused(lambda: ExperimentConfig(a=a, b=b, theta1=theta1, theta2=theta2))
        if config is not None:
            assert abs(abs(config.a) ** 2 + abs(config.b) ** 2 - 1.0) <= 1e-12
            assert np.all(np.isfinite(config.theta1)) and np.all(np.isfinite(config.theta2))

    @FUZZ
    @given(data=st.data(), shape=batch_shapes((2, 2)))
    def test_tables(self, data, shape):
        values = data.draw(st.lists(REALS, min_size=math.prod(shape), max_size=math.prod(shape)))
        table = np.array(values).reshape(shape)
        dist = refused(lambda: JointDistribution(((("A",), 2), (("B",), 2)), table))
        correlation = refused(lambda: CorrelationTable((0.0, 0.0), table, "direct"))
        for accepted in (dist and dist.probabilities, correlation and correlation.table):
            if accepted is not None:
                assert np.all(np.isfinite(accepted))
                assert np.all(np.abs(accepted.sum(axis=(-2, -1)) - 1.0) <= 1e-10)

    @FUZZ
    @given(seed=SAMPLER_SEEDS, n=SAMPLER_ARGUMENTS)
    def test_sampler_arguments(self, seed, n):
        dist = JointDistribution(((("A",), 2), (("B",), 3)), np.array([[0.1, 0.0, 0.2], [0.3, 0.4, 0.0]]))
        draws = refused(lambda: dist.sample(seed, n))
        freq = refused(lambda: dist.frequencies(seed, n))
        valid = all(type(value) is int and value >= 0 for value in (seed, n))
        if not valid or n >= 2**62:
            assert draws is None and freq is None
            return
        assert len(draws) == n and all(dist.probabilities[index] > 0 for index in draws)
        if n == 0:
            assert freq is None
        else:
            assert freq.shape == (2, 3) and abs(freq.sum() - 1.0) <= 1e-12
            counts = np.array([[draws.count((j, k)) for k in range(3)] for j in range(2)])
            assert np.array_equal(freq, counts / n)
