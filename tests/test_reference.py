import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrs_sim import (
    JointDistribution,
    NonDisjointSystems,
    NotIsolated,
    QrsError,
    ReferenceSystem,
    SpaceRegistry,
    StateVector,
    UnknownLabel,
    basis_state,
    internal_state_candidates,
    joint_distribution,
    joint_distributions,
    joint_probability,
    sample_assignment,
    state_of,
    tensor_product,
)
from qrs_sim.bell import (
    ExperimentConfig,
    ancilla_candidate_states,
    ancilla_experiment,
    entangled_pair_state,
    evolve_experiment,
    particle_candidate_states,
    pointer_outcome_states,
    pointer_ready_state,
    pointer_space,
)
from qrs_sim import reference as reference_module
from qrs_sim.linalg import Operator, _pure_reduced
from qrs_sim.reference import _candidate_kets, _normalized_systems

from oracles import candidate_kets_by_system, count_draws, joint_distribution_by_projectors, orthonormal_uncached, sample_by_picks


def post_measurement_system(alpha=0.6, beta=0.8):
    """alpha |up>|m_up> + beta |down>|m_down> on a 2x2 registry."""
    space = SpaceRegistry([("P", 2), ("M", 2)])
    return ReferenceSystem(StateVector(space, [alpha, 0.0, 0.0, beta]), isolated=True)


def pair_system(a=0.6, b=0.8):
    return ReferenceSystem(entangled_pair_state(ExperimentConfig(a=a, b=b)), isolated=True)


_EVOLVED_CACHE = {}


def _generic_evolved_system():
    """Evolved four-factor state with non-degenerate reduced spectra."""
    if "ref" not in _EVOLVED_CACHE:
        config = ExperimentConfig(a=0.6, b=0.8, theta1=0.4, theta2=1.3)
        _EVOLVED_CACHE["ref"] = ReferenceSystem(evolve_experiment(config), isolated=True)
    return _EVOLVED_CACHE["ref"]


@pytest.fixture
def rng():
    return np.random.default_rng(911)


class TestStateOf:
    def test_whole_system_is_its_own_pure_state(self):
        ref = post_measurement_system()
        rho = state_of(("P", "M"), ref)
        psi = ref.state.amplitudes
        assert_allclose(rho.matrix, np.outer(psi, psi.conj()), atol=1e-12)

    def test_device_after_measurement(self):
        rho = state_of("M", post_measurement_system())
        assert_allclose(rho.matrix, np.diag([0.36, 0.64]), atol=1e-12)

    def test_product_state(self, rng):
        u = StateVector(SpaceRegistry([("A", 2)]), rng.normal(size=2), normalize=True)
        v = StateVector(SpaceRegistry([("B", 3)]), rng.normal(size=3), normalize=True)
        ref = ReferenceSystem(tensor_product(u, v), isolated=True)
        assert_allclose(
            state_of("A", ref).matrix, np.outer(u.amplitudes, u.amplitudes.conj()), atol=1e-12
        )

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            state_of("Z", post_measurement_system())


class TestInternalStateCandidates:
    def test_device_candidates_and_weights(self):
        spectrum = internal_state_candidates("M", post_measurement_system())
        assert_allclose(spectrum.eigenvalues, [0.64, 0.36])
        assert_allclose(spectrum.states[0].amplitudes, [0, 1], atol=1e-12)
        assert_allclose(spectrum.states[1].amplitudes, [1, 0], atol=1e-12)
        assert not spectrum.degenerate

    def test_pure_reduced_state_single_candidate(self, rng):
        u = StateVector(SpaceRegistry([("A", 2)]), rng.normal(size=2), normalize=True)
        v = StateVector(SpaceRegistry([("B", 2)]), rng.normal(size=2), normalize=True)
        ref = ReferenceSystem(tensor_product(u, v), isolated=True)
        spectrum = internal_state_candidates("A", ref)
        assert len(spectrum) == 1
        assert_allclose(spectrum.eigenvalues, [1.0], atol=1e-12)
        overlap = abs(np.vdot(spectrum.states[0].amplitudes, u.amplitudes))
        assert abs(overlap - 1.0) < 1e-12

    def test_singlet_is_degenerate(self):
        spectrum = internal_state_candidates("P1", pair_system(a=2**-0.5, b=2**-0.5))
        assert len(spectrum) == 2
        assert_allclose(spectrum.eigenvalues, [0.5, 0.5], atol=1e-12)
        assert spectrum.degenerate

    def test_zero_weight_candidates_dropped(self):
        # rank-1 reduced state in a 3-level factor: one candidate, no flag
        space = SpaceRegistry([("A", 3), ("B", 2)])
        amps = np.zeros(6)
        amps[0] = 1.0
        ref = ReferenceSystem(StateVector(space, amps), isolated=True)
        spectrum = internal_state_candidates("A", ref)
        assert len(spectrum) == 1
        assert not spectrum.degenerate

    def test_requires_isolated(self):
        ref = ReferenceSystem(post_measurement_system().state, isolated=False)
        with pytest.raises(NotIsolated):
            internal_state_candidates("M", ref)


class TestJointProbability:
    def test_pair_probabilities_diagonal(self):
        # spectral candidates (weights 0.64 > 0.36) pair up diagonally:
        # candidate 0 of P1 is |down> exactly when candidate 0 of P2 is |up>
        ref = pair_system()
        table = np.array(
            [
                [joint_probability([("P1", j), ("P2", k)], ref) for k in range(2)]
                for j in range(2)
            ]
        )
        assert_allclose(table, np.diag([0.64, 0.36]), atol=1e-12)

    def test_injected_candidates_follow_given_order(self):
        ref = pair_system()
        cands = [particle_candidate_states(1), particle_candidate_states(2)]
        table = np.array(
            [
                [
                    joint_probability([("P1", j), ("P2", k)], ref, candidates=cands)
                    for k in range(2)
                ]
                for j in range(2)
            ]
        )
        assert_allclose(table, np.diag([0.36, 0.64]), atol=1e-12)

    def test_single_system_gives_eigenvalue_weight(self):
        ref = post_measurement_system()
        assert abs(joint_probability([("M", 0)], ref) - 0.64) < 1e-12
        assert abs(joint_probability([("M", 1)], ref) - 0.36) < 1e-12

    def test_permutation_invariant(self):
        ref = ReferenceSystem(evolve_experiment(ExperimentConfig(theta1=0.3, theta2=1.1)), isolated=True)
        forward = joint_probability([("M1", 0), ("M2", 1)], ref)
        backward = joint_probability([("M2", 1), ("M1", 0)], ref)
        assert abs(forward - backward) < 1e-12

    def test_overlapping_systems_rejected(self):
        ref = ReferenceSystem(evolve_experiment(ExperimentConfig()), isolated=True)
        with pytest.raises(NonDisjointSystems) as excinfo:
            joint_probability([(("P1", "M1"), 0), (("M1",), 0)], ref)
        assert excinfo.value.overlap == ("M1",)

    def test_candidate_index_out_of_range(self):
        for index in (5, -1):
            with pytest.raises(IndexError):
                joint_probability([("M", index)], post_measurement_system())

    def test_requires_isolated(self):
        ref = ReferenceSystem(post_measurement_system().state, isolated=False)
        with pytest.raises(NotIsolated):
            joint_probability([("M", 0)], ref)

    def test_assignment_pairs(self):
        # a subsystem may be named by a bare label or by a tuple of labels
        assert abs(joint_probability([("P1", 0), (("P2",), 0)], pair_system()) - 0.64) < 1e-12
        assert abs(joint_probability([(("P2",), 1), ("P1", 1)], pair_system()) - 0.36) < 1e-12

    def test_rejects_non_eigenstate_candidates(self):
        ref = pair_system()
        space = SpaceRegistry([("P1", 2)])
        tilted = StateVector(space, [0.6, 0.8])
        other = StateVector(space, [0.8, -0.6])
        with pytest.raises(ValueError, match="eigenstate"):
            joint_probability(
                [("P1", 0), ("P2", 0)],
                ref,
                candidates=[(tilted, other), particle_candidate_states(2)],
            )

    def test_rejects_non_orthogonal_candidates(self):
        # degenerate reduced state: every unit vector is an eigenstate, so
        # only orthogonality can fail
        ref = pair_system(a=2**-0.5, b=2**-0.5)
        space = SpaceRegistry([("P1", 2)])
        one = StateVector(space, [1.0, 0.0])
        tilted = StateVector(space, [0.8, 0.6])
        with pytest.raises(ValueError, match="^candidates for P1 are not orthogonal$"):
            joint_probability(
                [("P1", 0), ("P2", 0)],
                ref,
                candidates=[(one, tilted), particle_candidate_states(2)],
            )

    def test_rejects_candidates_on_wrong_space(self):
        ref = pair_system()
        wrong = basis_state(SpaceRegistry([("P2", 2)]), 0)
        expected = r"^candidate 0 for P1 is on SpaceRegistry\(P2:2\), expected one state on SpaceRegistry\(P1:2\)$"
        with pytest.raises(ValueError, match=expected):
            joint_probability(
                [("P1", 0), ("P2", 0)],
                ref,
                candidates=[(wrong, wrong), particle_candidate_states(2)],
            )

    def test_rejects_empty_candidate_list(self):
        with pytest.raises(ValueError, match="no candidates"):
            joint_distribution(
                [("P1",), ("P2",)], pair_system(), candidates=[(), particle_candidate_states(2)]
            )


class TestJointDistribution:
    def test_pair_table(self):
        dist = joint_distribution([("P1",), ("P2",)], pair_system())
        assert dist.axes == ((("P1",), 2), (("P2",), 2))
        assert_allclose(dist.probabilities, np.diag([0.64, 0.36]), atol=1e-12)

    def test_normalization(self):
        ref = ReferenceSystem(evolve_experiment(ExperimentConfig(a=0.6, b=0.8, theta1=0.4, theta2=2.0)), isolated=True)
        dist = joint_distribution([("M1",), ("M2",)], ref)
        assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-10

    def test_single_system_matches_candidates(self):
        ref = post_measurement_system()
        dist = joint_distribution([("M",)], ref)
        spectrum = internal_state_candidates("M", ref)
        assert_allclose(dist.probabilities, spectrum.eigenvalues, atol=1e-12)

    def test_marginal_matches_direct_computation(self):
        config = ExperimentConfig(a=0.6, b=0.8, theta1=0.7, theta2=1.9)
        ref = ReferenceSystem(evolve_experiment(config), isolated=True)
        cands = [pointer_outcome_states("M1"), pointer_outcome_states("M2")]
        both = joint_distribution([("M1",), ("M2",)], ref, candidates=cands)
        second_only = joint_distribution([("M2",)], ref, candidates=[cands[1]])
        assert_allclose(
            both.marginal([1]).probabilities, second_only.probabilities, atol=1e-10
        )

    def test_table_invariants_enforced(self):
        with pytest.raises(ValueError):
            JointDistribution(axes=((("A",), 2),), probabilities=np.array([0.9, 0.3]))
        with pytest.raises(ValueError):
            JointDistribution(axes=((("A",), 2),), probabilities=np.array([1.1, -0.1]))
        with pytest.raises(ValueError):
            JointDistribution(axes=((("A",), 2),), probabilities=np.array([np.nan, np.nan]))
        pair = ((("A",), 2), (("B",), 2))
        cases = (
            (np.full((2, 2), 0.25 + 1e-10), "table sums to"),
            (np.array([[1.0, 1e-11], [-1e-11, 0.0]]), "negative probability -1.000e-11 below -1e-12"),
            ([np.eye(2) / 2, np.full((2, 2), np.nan)], "batch member 1: probability nan is not finite"),
            (np.array([[0.5, -np.inf], [np.nan, 0.5]]), "probability -inf is not finite"),
            (np.full((2, 2), 1e308), "table sums to inf"),
            ([np.eye(2) / 2, np.eye(2) / 2, np.eye(2)], "batch member 2: table sums to 2.0"),
            (np.full((2, 3), 1 / 6), r"table shape \(2, 3\) matches neither axes \(2, 2\)"),
        )
        for table, message in cases:
            with pytest.raises(ValueError, match=message):
                JointDistribution(axes=pair, probabilities=table)

    @settings(max_examples=60, deadline=None)
    @given(
        left=st.sets(st.sampled_from(["P1", "M1", "P2", "M2"]), min_size=1),
        right=st.sets(st.sampled_from(["P1", "M1", "P2", "M2"]), min_size=1),
    )
    def test_any_overlap_raises(self, left, right):
        ref = _generic_evolved_system()
        if left & right:
            with pytest.raises(NonDisjointSystems) as excinfo:
                joint_distribution([tuple(left), tuple(right)], ref)
            assert set(excinfo.value.overlap) == left & right
        else:
            dist = joint_distribution([tuple(left), tuple(right)], ref)
            assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-10


class TestContractionMatchesProjectorRoute:
    """The one-contraction table equals the projector-product trace."""

    def assert_routes_agree(self, systems, ref, candidates=None):
        got = joint_distribution(systems, ref, candidates=candidates)
        expected = joint_distribution_by_projectors(systems, ref, candidates=candidates)
        assert got.axes == expected.axes
        assert_allclose(got.probabilities, expected.probabilities, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "systems",
        [
            [("M1",), ("M2",)],
            [("M2",), ("M1",)],
            [("P1", "M1"), ("M2",)],
            [("M2", "P2"), ("P1",)],
            [("P1",), ("M1",), ("P2",), ("M2",)],
        ],
    )
    def test_spectral_candidates(self, systems):
        self.assert_routes_agree(systems, _generic_evolved_system())

    def test_supplied_candidates(self):
        ref = _generic_evolved_system()
        cands = [pointer_outcome_states("M2"), pointer_outcome_states("M1")]
        self.assert_routes_agree([("M2",), ("M1",)], ref, cands)

    def test_four_system_ancilla_table(self):
        config = ExperimentConfig(a=0.6, b=0.8j, theta1=0.9, theta2=-2.3)
        ref = ReferenceSystem(ancilla_experiment(config), isolated=True)
        pointers = ("A1", "A2", "M1", "M2")
        cands = [pointer_outcome_states(label) for label in pointers]
        self.assert_routes_agree([(label,) for label in pointers], ref, cands)
        self.assert_routes_agree([("P1", "M1"), ("A1",), ("M2",), ("A2",)], ref)

    def test_random_states(self, rng):
        space = SpaceRegistry([("A", 2), ("B", 3), ("C", 2), ("D", 2)])
        for _ in range(5):
            amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
            ref = ReferenceSystem(StateVector(space, amps, normalize=True), isolated=True)
            self.assert_routes_agree([("C", "A"), ("D",)], ref)
            self.assert_routes_agree([("B",), ("D",), ("A",)], ref)


def _ancilla_table():
    state = ancilla_experiment(ExperimentConfig(a=0.6, b=0.8j, theta1=0.9, theta2=-2.3))
    pointers = ("A1", "A2", "M1", "M2")
    cands = [pointer_outcome_states(label) for label in pointers]
    return joint_distribution([(label,) for label in pointers], ReferenceSystem(state, isolated=True), candidates=cands)


def _table(*values):
    table = np.array(values)
    axes = tuple(((label,), count) for label, count in zip("ABCD", table.shape))
    return JointDistribution(axes, table)


#: 1-, 2- and 4-axis tables with zero cells (one just below zero, which the
#: sampler clips), and a table concentrated on its last cell
SAMPLING_TABLES = {
    "1-axis": lambda: _table(0.2, 0.0, 0.8),
    "2-axis": lambda: _table([0.0, 0.3, -1e-13], [0.25, 0.0, 0.45 + 1e-13]),
    "4-axis": _ancilla_table,
    "concentrated": lambda: _table([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
}


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        ref = pair_system()
        first = sample_assignment([("P1",), ("P2",)], ref, seed=123)
        second = sample_assignment([("P1",), ("P2",)], ref, seed=123)
        assert first == second

    def test_concentrated_table_always_hits_it(self):
        space = SpaceRegistry([("A", 2), ("B", 2)])
        amps = np.zeros(4)
        amps[3] = 1.0
        ref = ReferenceSystem(StateVector(space, amps), isolated=True)
        for seed in range(20):
            assert sample_assignment([("A",), ("B",)], ref, seed=seed) == (0, 0)

    def test_frequency_matches_distribution_over_seeds(self):
        # one draw per seed; the (0, 0) cell of the maximally entangled pair
        # carries probability 1/2
        dist = joint_distribution(
            [("P1",), ("P2",)],
            pair_system(a=2**-0.5, b=2**-0.5),
            candidates=[particle_candidate_states(1), particle_candidate_states(2)],
        )
        n = 20000
        hits = sum(1 for seed in range(n) if dist.sample(seed)[0] == (0, 0))
        assert abs(hits / n - 0.5) < 0.01

    def test_batched_draws_reproducible(self):
        dist = joint_distribution([("P1",), ("P2",)], pair_system())
        assert dist.sample(7, 200) == dist.sample(7, 200)

    @pytest.mark.parametrize("name", sorted(SAMPLING_TABLES))
    def test_views_match_per_pick_oracle(self, name):
        dist = SAMPLING_TABLES[name]()
        shape = dist.probabilities.shape
        for seed in range(50):
            for n in (1, 2, 999, 4000):
                draws = sample_by_picks(dist, seed, n)
                assert dist.sample(seed, n) == draws
                assert np.array_equal(dist.frequencies(seed, n), count_draws(draws, shape, n))

    def test_arguments_checked(self):
        dist = SAMPLING_TABLES["2-axis"]()
        assert dist.sample(1, 0) == []
        assert dist.sample(np.int64(3), np.uint16(4)) == dist.sample(3, 4)
        for seed, n, name in ((-1, 5, "seed"), (1, -1, "n"), (1, 2.7, "n"), (1.5, 3, "seed"),
                              (True, 3, "seed"), (1, False, "n"), (None, 3, "seed"), (1, "5", "n")):
            for call in (dist.sample, dist.frequencies):
                with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer \\(not a bool\\)"):
                    call(seed, n)
        with pytest.raises(ValueError, match="n must be at least 1"):
            dist.frequencies(1, 0)


def evolved_batch(rng, n=6):
    """One evolved (P1, M1, P2, M2) state per random setting, as a batch."""
    a, b = 0.6, 0.8j
    config = ExperimentConfig(a=a, b=b, theta1=tuple(rng.uniform(-3, 3, n)), theta2=tuple(rng.uniform(-3, 3, n)))
    return evolve_experiment(config)


class TestBatchedJointDistribution:
    def test_members_match_projector_oracle(self, rng):
        batch = evolved_batch(rng)
        ref = ReferenceSystem(batch, isolated=True)
        for systems in ([("M1",), ("M2",)], [("M2",), ("M1",)], [("M1",)]):
            cands = [pointer_outcome_states(labels[0]) for labels in systems]
            dist = joint_distribution(systems, ref, candidates=cands)
            assert dist.batch == batch.batch and dist.probabilities.shape == (batch.batch,) + (2,) * len(systems)
            for i, amps in enumerate(batch.amplitudes):
                member = ReferenceSystem(StateVector(batch.space, amps), isolated=True)
                expected = joint_distribution_by_projectors(systems, member, candidates=cands)
                assert dist.axes == expected.axes
                assert_allclose(dist.probabilities[i], expected.probabilities, rtol=0, atol=1e-12)

    def test_four_system_batch_matches_oracle(self):
        angles = ((0.9, -2.3), (0.0, 1.5), (2.2, 0.4))
        configs = [ExperimentConfig(a=0.6, b=0.8j, theta1=t1, theta2=t2) for t1, t2 in angles]
        states = [ancilla_experiment(config) for config in configs]
        batch = ReferenceSystem(StateVector(states[0].space, [s.amplitudes for s in states]), isolated=True)
        pointers = ("A1", "A2", "M1", "M2")
        cands = [pointer_outcome_states(label) for label in pointers]
        dist = joint_distribution([(label,) for label in pointers], batch, candidates=cands)
        for i, state in enumerate(states):
            expected = joint_distribution_by_projectors(
                [(label,) for label in pointers], ReferenceSystem(state, isolated=True), candidates=cands
            )
            assert_allclose(dist.probabilities[i], expected.probabilities, rtol=0, atol=1e-12)

    def test_member_without_the_candidate_eigenbasis_is_named(self, rng):
        good = evolved_batch(rng, n=3)
        space = good.space
        tilted = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        amps = np.array(good.amplitudes)
        amps[2] = tilted / np.linalg.norm(tilted)
        ref = ReferenceSystem(StateVector(space, amps), isolated=True)
        with pytest.raises(ValueError, match="batch member 2: candidate 0 for M1 is not an eigenstate"):
            joint_distribution(
                [("M1",), ("M2",)], ref, candidates=[pointer_outcome_states("M1"), pointer_outcome_states("M2")]
            )

    def test_table_checks_name_the_member(self):
        axes = ((("A",), 2),)
        assert JointDistribution(axes, np.array([[0.5, 0.5], [1.0, 0.0]])).batch == 2
        for bad in ([0.9, 0.3], [1.1, -0.1], [np.nan, np.nan]):
            with pytest.raises(ValueError, match="batch member 1"):
                JointDistribution(axes, np.array([[0.5, 0.5], bad]))
        with pytest.raises(ValueError, match="shape"):
            JointDistribution(axes, np.zeros((2, 2, 2)))

    def test_single_state_operations_reject_batches(self, rng):
        ref = ReferenceSystem(evolved_batch(rng, n=2), isolated=True)
        dist = joint_distribution(
            [("M1",), ("M2",)], ref, candidates=[pointer_outcome_states("M1"), pointer_outcome_states("M2")]
        )
        calls = [
            ("internal_state_candidates", lambda: internal_state_candidates("M1", ref)),
            ("internal_state_candidates", lambda: joint_distribution([("M1",), ("M2",)], ref)),
            ("joint_probability", lambda: joint_probability([("M1", 0)], ref)),
            ("sample_assignment", lambda: sample_assignment([("M1",)], ref, seed=1)),
            ("JointDistribution.marginal", lambda: dist.marginal([0])),
            ("JointDistribution.sample", lambda: dist.sample(1)),
            ("JointDistribution.frequencies", lambda: dist.frequencies(1, 5)),
        ]
        for name, call in calls:
            with pytest.raises(ValueError, match=f"{name} takes a single value, not a batch of 2"):
                call()
        # supplied candidates are single states even for a batched reference
        m1 = pointer_outcome_states("M1")
        stacked = StateVector(m1[0].space, [m1[0].amplitudes, m1[0].amplitudes])
        with pytest.raises(ValueError, match="expected one state"):
            joint_distribution([("M1",)], ref, candidates=[(stacked, m1[1])])


def stacked(states):
    """An isolated reference system whose state batches single states on
    one registry."""
    return ReferenceSystem(StateVector(states[0].space, [state.amplitudes for state in states]), isolated=True)


def turned_outcomes(label, angle):
    """The outcome states of pointer ``label`` turned by ``angle`` within
    the outcome slots: orthonormal, and, unless the device's two outcomes
    are equally likely, eigenstates of its reduced state only at angle 0."""
    c, s = np.cos(angle), np.sin(angle)
    space = pointer_space(label)
    return StateVector(space, [0.0, c, s]), StateVector(space, [0.0, -s, c])


def supplied_candidate_cases():
    """``(name, systems, reference, candidates, refusal)`` cases, where
    ``refusal`` is the message the call must raise, None if it is accepted."""
    angles = ((0.4, 1.3), (-2.1, 0.7), (2.9, -1.2))
    configs = [ExperimentConfig(a=0.6, b=0.8j, theta1=t1, theta2=t2) for t1, t2 in angles]
    evolved = [evolve_experiment(config) for config in configs]
    single = ReferenceSystem(evolved[0], isolated=True)
    pointers = [("M1",), ("M2",)]
    outcomes = [pointer_outcome_states("M1"), pointer_outcome_states("M2")]
    pair_basis = [particle_candidate_states(1), particle_candidate_states(2)]
    # equal settings, different pairs: the chi states fit every member
    coefficients = ((0.6, 0.8j), (0.8, -0.6), (2**-0.5, 2**-0.5))
    same_angles = [ExperimentConfig(a=a, b=b, theta1=0.4, theta2=1.3) for a, b in coefficients]
    chi = [ancilla_candidate_states(configs[0], 1), ancilla_candidate_states(configs[0], 2)]
    # pointers still ready: every pointer basis state is an eigenstate, so
    # the 3-dim group mixes three candidates with two (each list holds the
    # ready state, so the table sums to 1)
    ready = [
        tensor_product(entangled_pair_state(config), pointer_ready_state("M1"), pointer_ready_state("M2"))
        for config in same_angles
    ]
    mixed = [("P1",), ("M1",), ("P2",), ("M2",)]
    mixed_candidates = [
        pair_basis[0], (pointer_ready_state("M1"), *outcomes[0]), pair_basis[1], (outcomes[1][1], pointer_ready_state("M2"))
    ]
    # member 2 turns M2 inside its outcome slots, which leaves M1 as it was
    c, s = np.cos(0.3), np.sin(0.3)
    turn = Operator(pointer_space("M2"), [[1, 0, 0], [0, c, -s], [0, s, c]])
    one_bad_member = stacked(evolved[:2] + [turn.apply(evolved[2])])
    e = 1e-9
    return [
        ("pointers, single", pointers, single, outcomes, None),
        ("pointers, batch", pointers, stacked(evolved), outcomes, None),
        ("pointers, reversed", pointers[::-1], stacked(evolved), outcomes[::-1], None),
        ("four pointers", [("A1",), ("A2",), ("M1",), ("M2",)],
         ReferenceSystem(ancilla_experiment(configs[1]), isolated=True),
         [pointer_outcome_states(label) for label in ("A1", "A2", "M1", "M2")], None),
        ("pair, single", [("P1",), ("P2",)], pair_system(), pair_basis, None),
        ("pair, batch", [("P1",), ("P2",)], stacked([entangled_pair_state(c) for c in same_angles]), pair_basis, None),
        ("chi, single", [("P1", "M1"), ("P2", "M2")], single, chi, None),
        ("chi, batch", [("P1", "M1"), ("P2", "M2")], stacked([evolve_experiment(c) for c in same_angles]), chi, None),
        ("dims 2 and 3, single", mixed, ReferenceSystem(ready[0], isolated=True), mixed_candidates, None),
        ("dims 2 and 3, batch", mixed, stacked(ready), mixed_candidates, None),
        ("not orthogonal", pointers, single,
         [(outcomes[0][0], StateVector(pointer_space("M1"), [0.0, 1.0, 1.0], normalize=True)), outcomes[1]],
         "candidates for M1 are not orthogonal"),
        ("wrong registry", pointers, single, [outcomes[1], outcomes[1]],
         "candidate 0 for M1 is on SpaceRegistry(M2:3), expected one state on SpaceRegistry(M1:3)"),
        ("member 2 of M2", pointers, one_bad_member, outcomes,
         "batch member 2: candidate 0 for M2 is not an eigenstate"),
        ("turned by 1e-9", pointers, single, [turned_outcomes("M1", e), outcomes[1]],
         "candidate 0 for M1 is not an eigenstate"),
        ("one off by 1e-9", pointers, single,
         [(StateVector(pointer_space("M1"), [0.0, np.cos(e), np.sin(e)]), outcomes[0][1]), outcomes[1]],
         "candidates for M1 are not orthogonal"),
        ("turned by 1e-13", pointers, stacked(evolved), [turned_outcomes("M1", 1e-13), outcomes[1]], None),
    ]


def checked(call):
    """The kets' shapes, dtypes and bytes, or the refusal's type and text."""
    try:
        return [(kets.shape, kets.dtype, kets.tobytes()) for kets in call()]
    except (QrsError, ValueError) as error:
        return type(error), str(error)


class TestSuppliedCandidates:
    @pytest.mark.parametrize("case", supplied_candidate_cases(), ids=lambda case: case[0])
    def test_stacked_pass_matches_per_system_oracle(self, case):
        _, systems, reference, candidates, refusal = case
        systems = _normalized_systems(systems, reference)
        got = checked(lambda: _candidate_kets(systems, reference, candidates))
        assert got == checked(lambda: candidate_kets_by_system(systems, reference, candidates))
        assert got == ((ValueError, refusal) if refusal else got)
        if refusal is None:
            assert isinstance(got, list) and len(got) == len(systems)

    @pytest.mark.parametrize("fault", ["hermiticity", "trace", "negative eigenvalue"])
    def test_density_faults_match_per_system_oracle(self, monkeypatch, fault):
        # a reduced state of a StateVector meets the density rules, so the
        # fault is put into one system's reduced state, in one member, on
        # the kernel both routes share
        def faulty(target, member):
            def reduced(state, systems, dim):
                out = _pure_reduced(state, systems, dim).copy()
                for row, kept in enumerate(systems):
                    if tuple(kept) == target:
                        k = row * (state.batch or 1) + member
                        if fault == "hermiticity":
                            out[k, 0, 1] += 1e-6
                        elif fault == "trace":
                            out[k] *= 1.5
                        else:
                            out[k] = np.diag([1.5, -0.5] + [0.0] * (dim - 2))
                return out
            return reduced

        for name, systems, reference, candidates, refusal in supplied_candidate_cases():
            if refusal is None:
                systems = _normalized_systems(systems, reference)
                for target in systems:
                    for member in sorted({0, (reference.state.batch or 1) - 1}):
                        monkeypatch.setattr("qrs_sim.linalg._pure_reduced", faulty(target, member))
                        monkeypatch.setattr("qrs_sim.reference._pure_reduced", faulty(target, member))
                        got = checked(lambda: _candidate_kets(systems, reference, candidates))
                        assert isinstance(got, tuple) and fault in got[1].lower(), (name, target, member)
                        assert got == checked(lambda: candidate_kets_by_system(systems, reference, candidates))

    def test_one_reduced_state_pass_per_ket_shape(self, monkeypatch):
        # systems share a pass when their kets share a shape (d, n); the
        # mixed cases hold a 3-dim system with three candidates and one
        # with two, so they take three passes
        calls = []

        def counted(state, systems, dim):
            calls.append(sorted(tuple(system) for system in systems))
            return _pure_reduced(state, systems, dim)

        monkeypatch.setattr("qrs_sim.reference._pure_reduced", counted)
        for name, systems, reference, candidates, refusal in supplied_candidate_cases():
            if refusal is None:
                calls.clear()
                joint_distribution(systems, reference, candidates=candidates)
                systems = _normalized_systems(systems, reference)
                shapes = {}
                for system, states in zip(systems, candidates):
                    shapes.setdefault((reference.space.restrict(system).dim, len(states)), []).append(system)
                assert sorted(calls) == sorted(sorted(group) for group in shapes.values()), name
                assert len(calls) == (3 if name.startswith("dims 2 and 3") else 1), name

    def test_gram_verdict_matches_the_uncached_product(self, monkeypatch):
        # every ket stack the cases validate, orthonormal or not, is judged
        # by the cached verdict, which equals the Gram product taken afresh
        stacks, verdict = [], reference_module._orthonormal
        monkeypatch.setattr(reference_module, "_orthonormal", lambda bits, shape: stacks.append((bits, shape)) or verdict(bits, shape))
        for _, systems, reference, candidates, _ in supplied_candidate_cases():
            checked(lambda: _candidate_kets(_normalized_systems(systems, reference), reference, candidates))
        verdicts = set()
        for bits, shape in stacks:
            expected = orthonormal_uncached(np.frombuffer(bits, dtype=complex).reshape(shape).copy())
            assert verdict(bits, shape) == expected
            verdicts.update(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("offset", [0.0, 1e-13, 1e-9, 1.0], ids=str)
    def test_gram_verdict_of_random_stacks(self, offset, rng):
        # three (4, 2) stacks, the middle one off from orthonormal by offset
        stack = np.array([np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0] for _ in range(3)])
        stack[1, 0, 0] += offset
        cached = reference_module._orthonormal(stack.tobytes(), stack.shape)
        assert cached == orthonormal_uncached(stack) and cached == (True, offset < 1e-10, True)
        assert reference_module._orthonormal(stack.tobytes(), stack.shape) is cached

    def test_bad_arguments_are_named(self):
        ref = pair_system()
        calls = [
            ("basis index None", lambda: basis_state(SpaceRegistry([("A", 2)]), None)),
            (r"assignment must list \(labels, index\) pairs, got \[5\]", lambda: joint_probability([5], ref)),
            ("assignment must list", lambda: joint_probability(None, ref)),
            ("keep_axes None", lambda: joint_distribution(["P1", "P2"], ref).marginal(None)),
            ("systems must be an iterable, got None", lambda: joint_distribution(None, ref)),
            ("candidates must be an iterable, got 5", lambda: joint_distribution(["P1"], ref, candidates=5)),
            ("candidates for P1 must be an iterable, got 5", lambda: joint_distribution(["P1"], ref, candidates=[5])),
            ("candidate 0 for P1 must be a StateVector, got 5", lambda: joint_distribution(["P1"], ref, candidates=[[5]])),
        ]
        for message, call in calls:
            with pytest.raises(ValueError, match=message):
                call()
        with pytest.raises(UnknownLabel, match="labels must be a label or an iterable of labels, got 5"):
            joint_distribution([5], ref)
        with pytest.raises(UnknownLabel, match=r"label \['P1'\] not in space"):
            joint_distribution([[["P1"]]], ref)


def table_bits(dist):
    return dist.axes, dist.probabilities.shape, dist.probabilities.tobytes()


def several_table_cases():
    """``(name, tables, reference, candidates)``: tables on one state whose
    systems recur across tables; ``candidates`` align with the distinct
    systems in order of first appearance, or are None for spectral ones."""
    angles = ((0.4, 1.3), (-2.1, 0.7), (2.9, -1.2))
    evolved = [evolve_experiment(ExperimentConfig(a=0.6, b=0.8j, theta1=t1, theta2=t2)) for t1, t2 in angles]
    ancilla = ReferenceSystem(ancilla_experiment(ExperimentConfig(a=0.6, b=0.8j, theta1=0.9, theta2=-2.3)), isolated=True)
    pointers = [[("A1",), ("A2",), ("M1",), ("M2",)], [("M1",), ("M2",)]]
    rng = np.random.default_rng(11)
    space = SpaceRegistry([("A", 2), ("B", 3), ("C", 2), ("D", 2)])
    generic = ReferenceSystem(StateVector(space, rng.normal(size=24) + 1j * rng.normal(size=24), normalize=True), isolated=True)
    return [
        ("ancilla pointers, single", pointers, ancilla, [pointer_outcome_states(label) for label in ("A1", "A2", "M1", "M2")]),
        ("pointers, batch", [[("M1",), ("M2",)], [("M2",)], [("M1",)]], stacked(evolved),
         [pointer_outcome_states("M1"), pointer_outcome_states("M2")]),
        ("spectral, joint system and its parts", [[("A", "B"), ("C",)], [("B",), ("A",)], [("D",)]], generic, None),
    ]


class TestSeveralTables:
    """``joint_distributions``: one validation of the distinct systems,
    then each table contracted as a call of its own would."""

    @pytest.mark.parametrize("case", several_table_cases(), ids=lambda case: case[0])
    def test_bytes_match_separate_calls(self, case):
        _, tables, reference, candidates = case
        distinct = list(dict.fromkeys(system for systems in tables for system in systems))
        got = joint_distributions(tables, reference, candidates=candidates)
        assert len(got) == len(tables)
        for systems, dist in zip(tables, got):
            own = None if candidates is None else [candidates[distinct.index(system)] for system in systems]
            assert table_bits(dist) == table_bits(joint_distribution(systems, reference, candidates=own))

    def test_one_validation_pass(self, monkeypatch):
        calls, reduced = [], []
        check, kernel = reference_module._check_supplied, reference_module._pure_reduced
        monkeypatch.setattr(reference_module, "_check_supplied", lambda *args: calls.append(args[0]) or check(*args))
        monkeypatch.setattr(reference_module, "_pure_reduced", lambda state, systems, dim: reduced.append(len(systems)) or kernel(state, systems, dim))
        _, tables, reference, candidates = several_table_cases()[0]
        joint_distributions(tables, reference, candidates=candidates)
        assert calls == [[("A1",), ("A2",), ("M1",), ("M2",)]] and sum(reduced) == 4

    def test_overlap_is_a_rule_per_table(self):
        ref = _generic_evolved_system()
        joint, parts = joint_distributions([[("M1", "M2")], [("M1",), ("M2",)]], ref)
        assert joint.axes[0][0] == ("M1", "M2") and len(parts.axes) == 2
        within = [("M1", "P2"), ("P2",)]
        with pytest.raises(NonDisjointSystems) as alone:
            joint_distribution(within, ref)
        with pytest.raises(NonDisjointSystems) as among:
            joint_distributions([[("M1",)], within], ref)
        assert str(among.value) == str(alone.value) and among.value.overlap == ("P2",)

    @pytest.mark.parametrize(
        "case", [case for case in supplied_candidate_cases() if case[4]], ids=lambda case: case[0]
    )
    def test_refusals_match_the_single_table_call(self, case):
        _, systems, reference, candidates, refusal = case

        def refused(call):
            with pytest.raises(ValueError) as error:
                call()
            return type(error.value), str(error.value)

        alone = refused(lambda: joint_distribution(systems, reference, candidates=candidates))
        again = refused(lambda: joint_distributions([systems, systems[::-1], systems[:1]], reference, candidates=candidates))
        assert alone == again == (ValueError, refusal)

    def test_argument_checks(self):
        ref = pair_system()
        with pytest.raises(ValueError, match="tables must be an iterable, got None"):
            joint_distributions(None, ref)
        with pytest.raises(ValueError, match="at least one subsystem is required"):
            joint_distributions([[("P1",)], []], ref)
        with pytest.raises(ValueError, match="candidates must align one list per system"):
            joint_distributions([[("P1",)], [("P2",)]], ref, candidates=[particle_candidate_states(1)])
        with pytest.raises(NotIsolated):
            joint_distributions([[("P1",)]], ReferenceSystem(ref.state))
