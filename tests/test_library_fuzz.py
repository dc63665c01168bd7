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
    DensityOperator,
    ExperimentConfig,
    JointDistribution,
    Operator,
    QrsError,
    ReferenceSystem,
    SpaceRegistry,
    StateVector,
    basis_state,
    internal_state_candidates,
    joint_distribution,
    joint_probability,
    partial_trace,
)
from qrs_sim.bell import DEVICE_AXES

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
#: candidate indices and table axes: only a plain or numpy integer (not a
#: bool) is an index, whatever int() would make of the rest
INDICES = st.one_of(st.integers(-3, 4), REALS, st.booleans(), st.text(max_size=2))
#: values that are not iterable, drawn where a sequence is expected
NON_ITERABLES = st.one_of(st.none(), st.integers(-3, 4), REALS, st.booleans(), st.builds(object))
#: rank 2 on (A: 2, B: 3), so each of A and B has two spectral candidates
RANK_TWO = ReferenceSystem(StateVector(SPACE, np.arange(1.0, 7.0), normalize=True), isolated=True)


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


def first_fault(indices, count):
    """The error the first bad index raises, None if all are good: indices
    are checked axis by axis, each for its type, then for its range."""
    for index in indices:
        if type(index) is not int:
            return ValueError
        if not 0 <= index < count:
            return IndexError
    return None


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
            st.booleans(),
            st.text(max_size=2),
            st.tuples(st.booleans(), st.integers(0, 2)),
            NON_ITERABLES,
            st.lists(NON_ITERABLES, max_size=2),
        )
    )
    def test_basis_state(self, index):
        state = refused(lambda: basis_state(SPACE, index))
        if state is not None:
            assert_valid_state(state)
            assert np.count_nonzero(state.amplitudes) == 1
            assert all(type(i) is int for i in (index if isinstance(index, (tuple, list)) else [index]))

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
        # the device-device correlation tables are JointDistributions on DEVICE_AXES
        dist = refused(lambda: JointDistribution(DEVICE_AXES, table))
        if dist is not None:
            assert np.all(np.isfinite(dist.probabilities))
            assert np.all(np.abs(dist.probabilities.sum(axis=(-2, -1)) - 1.0) <= 1e-10)

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

    @FUZZ
    @given(first=INDICES, second=INDICES)
    def test_candidate_indices(self, first, second):
        reference = RANK_TWO
        table = joint_distribution(["A", "B"], reference).probabilities
        assert table.shape == (2, 2)
        fault = first_fault((first, second), 2)
        try:
            p = refused(lambda: joint_probability([("A", first), ("B", second)], reference))
        except IndexError:
            assert fault is IndexError
            return
        if fault is None:
            assert p == float(table[first, second])
        else:
            assert fault is ValueError and p is None

    @FUZZ
    @given(
        assignment=st.one_of(
            NON_ITERABLES,
            st.lists(
                st.one_of(
                    NON_ITERABLES,
                    st.text(max_size=3),
                    st.tuples(st.sampled_from(["A", "B", ("A",)]), st.integers(0, 1)),
                    st.tuples(st.one_of(NON_ITERABLES, st.lists(NON_ITERABLES, max_size=2)), st.integers(0, 1)),
                    st.tuples(st.just("A"), st.just(0), st.just(1)),
                ),
                max_size=3,
            ),
        )
    )
    def test_assignment_argument(self, assignment):
        p = refused(lambda: joint_probability(assignment, RANK_TWO))
        if p is not None:
            assert 0.0 <= p <= 1.0

    @FUZZ
    @given(
        systems=st.one_of(
            NON_ITERABLES,
            st.lists(
                st.one_of(st.sampled_from(["A", "B", ("A",), ("A", "B")]), NON_ITERABLES, st.lists(NON_ITERABLES, max_size=2)),
                max_size=3,
            ),
        )
    )
    def test_systems_argument(self, systems):
        dist = refused(lambda: joint_distribution(systems, RANK_TWO))
        if dist is not None:
            assert abs(dist.probabilities.sum() - 1.0) <= 1e-10

    @FUZZ
    @given(data=st.data())
    def test_candidates_argument(self, data):
        spectral = [internal_state_candidates(label, RANK_TWO).states for label in ("A", "B")]
        batched = StateVector(spectral[0][0].space, [spectral[0][0].amplitudes] * 2)
        entries = st.one_of(NON_ITERABLES, st.sampled_from([*spectral[0], *spectral[1], batched]))
        lists = st.one_of(NON_ITERABLES, st.lists(entries, max_size=3), st.sampled_from(spectral))
        candidates = data.draw(st.one_of(NON_ITERABLES, st.lists(lists, max_size=3)))
        dist = refused(lambda: joint_distribution(["A", "B"], RANK_TWO, candidates=candidates))
        if dist is not None:
            # only the two spectral candidates of each system, in some
            # order, are orthonormal eigenstates that fill the table
            assert dist.probabilities.shape == (2, 2)
            assert abs(dist.probabilities.sum() - 1.0) <= 1e-10

    @FUZZ
    @given(keep=st.one_of(st.lists(INDICES, max_size=3), NON_ITERABLES))
    def test_marginal_axes(self, keep):
        dist = JointDistribution(((("A",), 2), (("B",), 3)), np.array([[0.1, 0.0, 0.2], [0.3, 0.4, 0.0]]))
        marginal = refused(lambda: dist.marginal(keep))
        if isinstance(keep, list) and keep and all(type(i) is int and 0 <= i < 2 for i in keep):
            kept = sorted(set(keep))
            assert marginal.axes == tuple(dist.axes[i] for i in kept)
            assert marginal.probabilities.shape == tuple(count for _, count in marginal.axes)
        else:
            assert marginal is None
