import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrs_sim import (
    CandidateAssignment,
    JointDistribution,
    NonDisjointSystems,
    NotIsolated,
    ReferenceSystem,
    SpaceRegistry,
    StateVector,
    UnknownLabel,
    basis_state,
    internal_state_candidates,
    joint_distribution,
    joint_probability,
    sample_assignment,
    state_of,
    tensor_product,
)
from qrs_sim.bell import (
    ExperimentConfig,
    ancilla_experiment,
    entangled_pair_state,
    evolve_experiment,
    particle_candidate_states,
    pointer_outcome_states,
)

from oracles import count_draws, joint_distribution_by_projectors, sample_by_picks


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

    def test_assignment_type_roundtrip(self):
        assignment = CandidateAssignment.of(("P1", 0), ("P2", 0))
        assert assignment.systems == (("P1",), ("P2",))
        assert assignment.indices == (0, 0)
        assert abs(joint_probability(assignment, pair_system()) - 0.64) < 1e-12

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
        with pytest.raises(ValueError, match="orthogonal"):
            joint_probability(
                [("P1", 0), ("P2", 0)],
                ref,
                candidates=[(one, tilted), particle_candidate_states(2)],
            )

    def test_rejects_candidates_on_wrong_space(self):
        ref = pair_system()
        wrong = basis_state(SpaceRegistry([("P2", 2)]), 0)
        with pytest.raises(ValueError, match="on"):
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
