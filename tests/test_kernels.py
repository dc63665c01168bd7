"""One 2-D product per shared operand, and placed start states, give the
bytes of the routes they replaced (kept in ``oracles``): applying an
operator batch to a single state, contracting joint tables, the controlled
swaps, the closed-form tables and the experiment's start states.  A placed
start state differs from the multiplied-out one only in the sign of some
zero amplitudes, so it is compared by value; the evolved experiment state
is compared by bytes, and the ancilla state by value and its tables by
bytes."""

import functools
import itertools

import numpy as np
import pytest

from qrs_sim import bell
from qrs_sim.bell import (
    A1,
    A2,
    M1,
    M2,
    ExperimentConfig,
    ancilla_experiment,
    correlation_entangled,
    correlation_factorized,
    evolve_experiment,
    pointer_outcome_states,
    pointer_tables,
)
from qrs_sim.linalg import Operator, SpaceRegistry, StateVector
from qrs_sim.reference import ReferenceSystem, joint_distribution

import library_corpus
from oracles import (
    ancilla_chi_by_einsum,
    ancilla_experiment_by_products,
    ancilla_start_by_products,
    apply_stacked,
    closed_tables_stacked,
    controlled_swap_by_einsum,
    evolve_by_products,
    experiment_start_by_products,
    joint_table_by_tensordot,
)

SPACE = SpaceRegistry([("A", 2), ("B", 3), ("C", 3), ("D", 2)])
#: operator labels of each dimension d, placed so that the axes must move
OPERATOR_LABELS = {2: ("D",), 3: ("C",), 6: ("C", "A"), 18: ("B", "D", "C")}
#: (operator batch, state batch) pairs: a single operator and state, then each batch size
APPLY_BATCHES = [(None, None)] + [case for b in (1, 7, 100, 4000) for case in ((b, None), (b, b), (None, b))]
TABLES = [[("A",)], [("B",), ("D",)], [("C", "A"), ("B",)], [("A",), ("B",), ("C",), ("D",)]]


def same_bytes(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def unitaries(rng, d, batch):
    shape = (d, d) if batch is None else (batch, d, d)
    return np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]


def states(rng, space, batch):
    shape = (space.dim,) if batch is None else (batch, space.dim)
    return StateVector(space, rng.normal(size=shape) + 1j * rng.normal(size=shape), normalize=True)


def configs(rng, count, batch=None):
    """Seeded configs with complex or signed real coefficients; batched
    angles when ``batch`` is set."""
    for _ in range(count):
        parts = rng.normal(size=4) * (1.0, rng.integers(2), 1.0, rng.integers(2))
        a, b = complex(parts[0], parts[1]), complex(parts[2], parts[3])
        norm = abs(complex(abs(a), abs(b)))
        thetas = rng.uniform(-7, 7, size=2 if batch is None else (2, batch))
        yield ExperimentConfig(a / norm, b / norm, *(t if batch is None else tuple(t) for t in thetas.tolist()))


@pytest.mark.parametrize("d", sorted(OPERATOR_LABELS))
@pytest.mark.parametrize("op_batch, state_batch", APPLY_BATCHES)
def test_apply_matches_stacked_products(d, op_batch, state_batch):
    rng = np.random.default_rng([d, op_batch or 0, state_batch or 0])
    sub = SpaceRegistry((label, SPACE.dims[SPACE.axis(label)]) for label in OPERATOR_LABELS[d])
    op = Operator(sub, unitaries(rng, d, op_batch))
    psi = states(rng, SPACE, state_batch)
    assert same_bytes(op.apply(psi).amplitudes, apply_stacked(op, psi).amplitudes)


def schmidt_reference(rng, batch):
    """A state sum_i w_i |a_i b_i c_i d_i> over two branches, with each
    label's branch vectors the columns of its own fixed unitary (weights
    per member for a batch), and each label's candidates: every product of
    those columns, an orthonormal eigenbasis of each system's reduced state."""
    bases = {label: unitaries(rng, dim, None) for label, dim in SPACE.entries}
    weights = rng.normal(size=(batch or 1, 2)) + 1j * rng.normal(size=(batch or 1, 2))
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)
    branches = [functools.reduce(np.kron, (bases[label][:, i] for label in SPACE.labels)) for i in range(2)]
    amps = weights @ np.array(branches)
    state = StateVector(SPACE, amps if batch else amps[0])

    def candidates(system):
        labels = SPACE.resolve(system)
        columns = itertools.product(*(bases[label].T for label in labels))
        return [StateVector(SPACE.restrict(labels), functools.reduce(np.kron, picks)) for picks in columns]

    return ReferenceSystem(state, isolated=True), candidates


@pytest.mark.parametrize("systems", TABLES, ids=lambda systems: ",".join("+".join(s) for s in systems))
@pytest.mark.parametrize("batch", [None, 5])
def test_contraction_matches_tensordot_with_supplied_candidates(systems, batch):
    reference, candidates = schmidt_reference(np.random.default_rng([len(systems), batch or 0]), batch)
    supplied = [candidates(system) for system in systems]
    table = joint_distribution(systems, reference, candidates=supplied).probabilities
    assert same_bytes(table, joint_table_by_tensordot(systems, reference, candidates=supplied))


@pytest.mark.parametrize("systems", TABLES, ids=lambda systems: ",".join("+".join(s) for s in systems))
def test_contraction_matches_tensordot_with_spectral_candidates(systems):
    reference = ReferenceSystem(states(np.random.default_rng(len(systems)), SPACE, None), isolated=True)
    assert same_bytes(joint_distribution(systems, reference).probabilities, joint_table_by_tensordot(systems, reference))


@pytest.mark.parametrize("batch", [None, 1, 100])
def test_measurement_swaps_match_einsum(batch):
    theta = np.random.default_rng(batch or 0).uniform(-7, 7, size=batch)
    rows = bell._spin_rows(theta if batch else float(theta))
    assert same_bytes(bell._controlled_swap(rows), controlled_swap_by_einsum(rows))


@pytest.mark.parametrize("batch", [None, 1, 100])
def test_ancilla_swaps_match_einsum(batch):
    rng = np.random.default_rng(6 if batch is None else [6, batch])
    for config in configs(rng, 20, batch):
        for which in (1, 2):
            chi = bell._ancilla_chi(config, which)
            assert same_bytes(chi, ancilla_chi_by_einsum(config, which))
            assert same_bytes(bell._controlled_swap(chi, complete=True), controlled_swap_by_einsum(chi, complete=True))
    # complex control rows, with and without the complement
    for _ in range(20):
        rows = unitaries(rng, 6, batch)[..., :2, :]
        for complete in (False, True):
            assert same_bytes(bell._controlled_swap(rows, complete), controlled_swap_by_einsum(rows, complete))


@pytest.mark.parametrize("batch", [None, 1, 100, 4000])
@pytest.mark.parametrize("single_theta2", [False, True])
def test_closed_forms_match_stacked_products(batch, single_theta2):
    for config in configs(np.random.default_rng([batch or 0, single_theta2]), 5, batch):
        if single_theta2:
            config = ExperimentConfig(config.a, config.b, config.theta1, 0.3)
        entangled, factorized = closed_tables_stacked(config)
        assert same_bytes(correlation_entangled(config).probabilities, entangled)
        assert same_bytes(correlation_factorized(config).probabilities, factorized)


def applied_states(monkeypatch) -> list:
    """The states handed to ``Operator.apply`` from now on, in call order."""
    seen, apply = [], Operator.apply
    monkeypatch.setattr(Operator, "apply", lambda op, state: seen.append(state) or apply(op, state))
    return seen


@pytest.mark.parametrize("batch", [None, 100])
def test_experiment_start_and_state_match_products(batch, monkeypatch):
    seen = applied_states(monkeypatch)
    for config in configs(np.random.default_rng(batch or 0), 20, batch):
        seen.clear()
        final = evolve_experiment(config)
        start, expected = seen[0], experiment_start_by_products(config)
        assert start.space == expected.space and np.array_equal(start.amplitudes, expected.amplitudes)
        assert same_bytes(final.amplitudes, evolve_by_products(config).amplitudes)


def test_ancilla_start_matches_products_by_value_and_tables_by_bytes(monkeypatch):
    seen = applied_states(monkeypatch)
    pointers = [pointer_outcome_states(pointer) for pointer in (A1, A2, M1, M2)]
    for config in configs(np.random.default_rng(17), 30):
        seen.clear()
        final = ancilla_experiment(config)
        start, expected = seen[2], ancilla_start_by_products(evolve_experiment(config))
        assert start.space == expected.space and np.array_equal(start.amplitudes, expected.amplitudes)
        old = ancilla_experiment_by_products(config)
        assert np.array_equal(final.amplitudes, old.amplitudes)
        four, device = pointer_tables(final, (A1, A2, M1, M2), (M1, M2))
        reference = ReferenceSystem(old, isolated=True)
        assert same_bytes(four.probabilities, joint_table_by_tensordot([(A1,), (A2,), (M1,), (M2,)], reference, candidates=pointers))
        assert same_bytes(device.probabilities, joint_table_by_tensordot([(M1,), (M2,)], reference, candidates=pointers[2:]))


def test_library_corpus_is_repeatable(capsys):
    # the byte-identity check between two trees relies on a run of the
    # corpus script printing the same lines every time
    outputs, runs = [], 2 * len(library_corpus.KINDS)
    for _ in range(2):
        assert library_corpus.main([str(runs)]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1] and len(outputs[0]) == runs + 1
    assert outputs[0][-1].endswith(f"({', '.join(f'{kind} x 2' for kind in sorted(library_corpus.KINDS))})")
