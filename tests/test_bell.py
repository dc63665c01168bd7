import contextlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrs_sim import (
    JointDistribution,
    NonDisjointSystems,
    NotNormalized,
    ReferenceSystem,
    bell,
    cli,
    joint_probability,
    partial_trace,
)
from qrs_sim.bell import (
    DEVICE_AXES,
    ExperimentConfig,
    ancilla_candidate_states,
    ancilla_device_table,
    ancilla_experiment,
    ancilla_joint_distribution,
    ancilla_recording_unitary,
    chsh,
    correlation_entangled,
    correlation_factorized,
    correlation_direct,
    correlator,
    device_marginal,
    entangled_pair_state,
    evolve_experiment,
    intuitive_joint,
    measurement_unitary,
    outcome_overlaps,
    particle_candidate_states,
    pointer_tables,
    spin_eigenstates,
)
from qrs_sim.linalg import Operator, SpaceRegistry, StateVector, basis_state

from oracles import ancilla_chi_by_einsum, chsh_value_by_correlator, embed_operator, measurement_swap_uncached

ROOT_HALF = 2**-0.5


def same_bytes(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def random_config(rng, real=False, theta_span=2 * math.pi):
    parts = rng.normal(size=2 if real else 4)
    if real:
        a, b = parts
    else:
        a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return ExperimentConfig(
        a=a / norm,
        b=b / norm,
        theta1=float(rng.uniform(0, theta_span)),
        theta2=float(rng.uniform(0, theta_span)),
    )


# --------------------------------------------------------------------------- #
# oracles: closed-form correlators and direct state constructions, written    #
# from scratch so they share nothing with the module under test               #
# --------------------------------------------------------------------------- #


def xi_rows(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, s], [-s, c]])


def overlap_matrix(theta, which):
    cols = (0, 1) if which == 1 else (1, 0)
    return xi_rows(theta)[:, list(cols)]


def evolved_oracle(config):
    """sum_{jk} (sum_l c_l <xi1_j|phi1_l><xi2_k|phi2_l>) |xi1_j, m_j, xi2_k, m_k>."""
    o1 = overlap_matrix(config.theta1, 1)
    o2 = overlap_matrix(config.theta2, 2)
    c = config.coefficients
    amp = np.zeros(36, dtype=complex)
    for j in range(2):
        for k in range(2):
            weight = sum(c[l] * o1[j, l] * o2[k, l] for l in range(2))
            m1 = np.zeros(3)
            m1[j + 1] = 1.0
            m2 = np.zeros(3)
            m2[k + 1] = 1.0
            branch = np.kron(
                np.kron(np.kron(xi_rows(config.theta1)[j], m1), xi_rows(config.theta2)[k]), m2
            )
            amp += weight * branch
    return amp


def chi_oracle(theta, which, l):
    """sum_j <xi_j|phi_l> |xi_j>|m_j> as a bare 6-vector on (particle, pointer)."""
    rows = xi_rows(theta)
    o = overlap_matrix(theta, which)
    out = np.zeros(6, dtype=complex)
    for j in range(2):
        pointer = np.zeros(3)
        pointer[j + 1] = 1.0
        out += o[j, l] * np.kron(rows[j], pointer)
    return out


def ancilla_oracle(config):
    """sum_l c_l chi1_l chi2_l |anc_l anc_l> on (P1, M1, P2, M2, A1, A2)."""
    amp = np.zeros(324, dtype=complex)
    for l in range(2):
        slot = np.zeros(3)
        slot[l + 1] = 1.0
        term = np.kron(
            np.kron(np.kron(chi_oracle(config.theta1, 1, l), chi_oracle(config.theta2, 2, l)), slot),
            slot,
        )
        # built in (P1, M1, P2, M2, A1, A2) order already
        amp += config.coefficients[l] * term
    return amp


def singlet_entangled_correlator(theta1, theta2):
    return -math.cos(theta1 - theta2)


def singlet_factorized_correlator(theta1, theta2):
    return -math.cos(theta1) * math.cos(theta2)


# --------------------------------------------------------------------------- #


class TestExperimentConfig:
    def test_rejects_unnormalized(self):
        for a, b in ((1.0, 1.0), (float("nan"), ROOT_HALF), (1e200, ROOT_HALF)):
            with pytest.raises(NotNormalized):
                ExperimentConfig(a=a, b=b)

    def test_coefficient_convention(self):
        config = ExperimentConfig(a=0.6, b=0.8)
        assert config.coefficients == (0.6 + 0j, -0.8 + 0j)


class TestCorrelationTable:
    """A device-device correlation table is a JointDistribution over
    DEVICE_AXES, refused by that class's one table check."""

    def test_rejects_invalid_tables(self):
        cases = (
            (np.full((2, 2), 0.5), "table sums to 2.0, off from 1 by over 1e-10"),
            (np.diag([1.5, -0.5]), "negative probability -5.000e-01 below -1e-12"),
            (np.full((2, 2), np.nan), "probability nan is not finite"),
            (np.full((2, 3), 1 / 6), r"table shape \(2, 3\) matches neither axes \(2, 2\) nor a batch of them"),
            (np.full((1, 1, 2, 2), 0.25), "table shape"),
            (np.zeros((0, 2, 2)), "table shape"),
        )
        for table, message in cases:
            with pytest.raises(ValueError, match=message):
                JointDistribution(DEVICE_AXES, table)

    def test_correlator_takes_two_axes_of_two_outcomes(self):
        # a batch axis is not a table axis: a single four-way table is not
        # read as a batch of device tables
        single = ExperimentConfig(theta1=0.3, theta2=1.1)
        batched = ExperimentConfig(theta1=(0.3, 0.7), theta2=1.1)
        four_way = "((('A1',), 2), (('A2',), 2), (('M1',), 2), (('M2',), 2))"
        cases = (
            (ancilla_joint_distribution(single), four_way),
            (ancilla_joint_distribution(batched), four_way),
            (JointDistribution(((("M1",), 3), (("M2",), 2)), np.full((3, 2), 1 / 6)), "((('M1',), 3), (('M2',), 2))"),
            (JointDistribution(((("M1",), 2),), np.full((3, 2), 0.5)), "((('M1',), 2),)"),
        )
        for table, axes in cases:
            with pytest.raises(ValueError) as excinfo:
                correlator(table)
            assert str(excinfo.value) == f"a correlator takes two axes of two outcomes each, got axes {axes}"
        # device tables over two axes of two outcomes, single or batched, are read
        assert correlator(ancilla_device_table(single)) == correlator(ancilla_device_table(batched))[0]

    def test_routes_return_device_joint_distributions(self, monkeypatch):
        single = ExperimentConfig(a=0.6, b=0.8, theta1=0.3, theta2=1.1)
        batched = ExperimentConfig(a=0.6, b=0.8, theta1=(0.3, 0.7, 2.0), theta2=1.1)
        routes = (correlation_entangled, correlation_factorized, correlation_direct)
        for config, shape in ((single, (2, 2)), (batched, (3, 2, 2))):
            for route in routes:
                table = route(config)
                assert type(table) is JointDistribution and table.axes == DEVICE_AXES
                assert table.probabilities.shape == shape
        table = ancilla_device_table(single)
        assert type(table) is JointDistribution and table.axes == DEVICE_AXES
        # the direct table is built, and so checked, once
        built, check = [], JointDistribution.__post_init__

        def counted(dist):
            built.append(dist.axes)
            check(dist)

        monkeypatch.setattr(JointDistribution, "__post_init__", counted)
        for config in (single, batched):
            built.clear()
            correlation_direct(config)
            assert len(built) == 1


class TestEntangledPairState:
    def test_product_limit(self):
        state = entangled_pair_state(ExperimentConfig(a=1.0, b=0.0))
        assert_allclose(state.amplitudes, [0, 1, 0, 0], atol=1e-15)  # |up, down>

    def test_singlet_amplitudes(self):
        state = entangled_pair_state(ExperimentConfig(a=ROOT_HALF, b=ROOT_HALF))
        assert_allclose(state.amplitudes, np.array([0, 1, -1, 0]) / math.sqrt(2), atol=1e-15)

    def test_reduced_state_by_hand(self):
        state = entangled_pair_state(ExperimentConfig(a=0.6, b=0.8))
        rho = partial_trace(state, "P1")
        assert_allclose(rho.matrix, np.diag([0.36, 0.64]), atol=1e-12)


class TestSpinEigenstates:
    def test_z_axis(self):
        one, two = spin_eigenstates(0.0)
        assert_allclose(one.amplitudes, [1, 0], atol=1e-15)
        assert_allclose(two.amplitudes, [0, 1], atol=1e-15)

    def test_x_axis(self):
        one, two = spin_eigenstates(math.pi / 2)
        assert_allclose(one.amplitudes, np.array([1, 1]) / math.sqrt(2), atol=1e-15)
        assert_allclose(two.amplitudes, np.array([-1, 1]) / math.sqrt(2), atol=1e-15)

    @pytest.mark.parametrize("theta", [0.1, 1.0, 2.2, -0.7, 5.5])
    def test_orthonormal(self, theta):
        one, two = spin_eigenstates(theta)
        assert abs(one.overlap(two)) < 1e-14
        assert abs(one.norm() - 1) < 1e-14


class TestMeasurementUnitary:
    def test_records_eigenstate(self):
        theta = 0.9
        u = measurement_unitary(theta, "P", "M")
        one, _ = spin_eigenstates(theta, "P")
        start = np.kron(one.amplitudes, [1, 0, 0])
        expected = np.kron(one.amplitudes, [0, 1, 0])
        assert_allclose(u.matrix @ start, expected, atol=1e-12)

    def test_superposition_expands_over_outcomes(self):
        theta = 1.3
        alpha, beta = 0.6, 0.8j
        u = measurement_unitary(theta, "P", "M")
        start = np.kron([alpha, beta], [1, 0, 0])
        xi = spin_eigenstates(theta, "P")
        expected = np.zeros(6, dtype=complex)
        for j, state in enumerate(xi, start=1):
            weight = np.vdot(state.amplitudes, [alpha, beta])
            pointer = np.zeros(3)
            pointer[j] = 1.0
            expected += weight * np.kron(state.amplitudes, pointer)
        assert_allclose(u.matrix @ start, expected, atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.4, 1.7, 3.0, 4.9])
    def test_unitary(self, theta):
        u = measurement_unitary(theta, "P", "M").matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-12


class TestEvolveExperiment:
    def test_eigenstate_input_is_deterministic(self):
        final = evolve_experiment(ExperimentConfig(a=1.0, b=0.0, theta1=0.0, theta2=0.0))
        expected = np.zeros(36)
        # |up>, pointer 1, |down>, pointer 2 -> flat index via (2,3,2,3) strides
        expected[np.ravel_multi_index((0, 1, 1, 2), (2, 3, 2, 3))] = 1.0
        assert_allclose(final.amplitudes, expected, atol=1e-12)

    def test_unit_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            final = evolve_experiment(random_config(rng))
            assert abs(final.norm() - 1.0) < 1e-12

    def test_matches_branch_expansion_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            config = random_config(rng)
            assert_allclose(
                evolve_experiment(config).amplitudes, evolved_oracle(config), atol=1e-12
            )

    def test_local_evolutions_commute(self):
        from qrs_sim.bell import experiment_space

        config = ExperimentConfig(a=0.6, b=0.8, theta1=0.5, theta2=2.1)
        space = experiment_space()
        u1 = embed_operator(measurement_unitary(config.theta1, "P1", "M1"), space).matrix
        u2 = embed_operator(measurement_unitary(config.theta2, "P2", "M2"), space).matrix
        assert np.max(np.abs(u1 @ u2 - u2 @ u1)) < 1e-12

    def test_factorizes_into_local_evolutions(self):
        # evolving each particle+device pair on its own and tensoring the
        # branches reproduces the full evolution
        rng = np.random.default_rng(23)
        config = random_config(rng)
        u1 = measurement_unitary(config.theta1, "P1", "M1").matrix
        u2 = measurement_unitary(config.theta2, "P2", "M2").matrix
        pair_basis = {1: (0, 1), 2: (1, 0)}
        expected = np.zeros(36, dtype=complex)
        for l in range(2):
            spin1 = np.zeros(2)
            spin1[pair_basis[1][l]] = 1.0
            spin2 = np.zeros(2)
            spin2[pair_basis[2][l]] = 1.0
            side1 = u1 @ np.kron(spin1, [1, 0, 0])
            side2 = u2 @ np.kron(spin2, [1, 0, 0])
            expected += config.coefficients[l] * np.kron(side1, side2)
        assert_allclose(evolve_experiment(config).amplitudes, expected, atol=1e-12)


class TestDeviceMarginal:
    def test_maximally_entangled_is_unbiased(self):
        for theta in (0.0, 0.7, 2.5):
            final = evolve_experiment(ExperimentConfig(theta1=theta, theta2=1.1))
            assert_allclose(device_marginal(final, 1), [0.5, 0.5], atol=1e-12)

    def test_product_state_follows_born_rule(self):
        theta = 1.1
        final = evolve_experiment(ExperimentConfig(a=1.0, b=0.0, theta1=theta, theta2=0.3))
        expected = [math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2]
        assert_allclose(device_marginal(final, 1), expected, atol=1e-12)

    def test_independent_of_remote_setting(self):
        rng = np.random.default_rng(7)
        config = random_config(rng)
        base = device_marginal(evolve_experiment(config), 1)
        for theta2 in (0.0, 0.9, 2.8):
            other = ExperimentConfig(
                a=config.a, b=config.b, theta1=config.theta1, theta2=theta2
            )
            assert_allclose(device_marginal(evolve_experiment(other), 1), base, atol=1e-12)


class TestCorrelationTables:
    def test_singlet_equal_settings_anticorrelate(self):
        table = correlation_entangled(ExperimentConfig(theta1=0.8, theta2=0.8)).probabilities
        assert_allclose(table, [[0, 0.5], [0.5, 0]], atol=1e-12)

    def test_singlet_correlator_curve(self):
        for theta1 in np.linspace(0, 2 * math.pi, 9):
            for theta2 in np.linspace(0, 2 * math.pi, 9):
                config = ExperimentConfig(theta1=float(theta1), theta2=float(theta2))
                e = correlator(correlation_entangled(config))
                assert abs(e - singlet_entangled_correlator(theta1, theta2)) < 1e-12

    def test_singlet_factorized_correlator_curve(self):
        for theta1 in np.linspace(0, 2 * math.pi, 9):
            for theta2 in np.linspace(0, 2 * math.pi, 9):
                config = ExperimentConfig(theta1=float(theta1), theta2=float(theta2))
                e = correlator(correlation_factorized(config))
                assert abs(e - singlet_factorized_correlator(theta1, theta2)) < 1e-12

    def test_product_pair_has_no_interference(self):
        config = ExperimentConfig(a=1.0, b=0.0, theta1=0.6, theta2=1.9)
        assert_allclose(
            correlation_entangled(config).probabilities,
            correlation_factorized(config).probabilities,
            atol=1e-12,
        )

    def test_equal_z_settings_make_routes_agree(self):
        config = ExperimentConfig(a=0.6, b=0.8, theta1=0.0, theta2=0.0)
        assert_allclose(
            correlation_entangled(config).probabilities,
            correlation_factorized(config).probabilities,
            atol=1e-12,
        )

    def test_factorized_marginals_match_device(self):
        rng = np.random.default_rng(8)
        config = random_config(rng)
        table = correlation_factorized(config).probabilities
        final = evolve_experiment(config)
        assert_allclose(table.sum(axis=1), device_marginal(final, 1), atol=1e-12)
        assert_allclose(table.sum(axis=0), device_marginal(final, 2), atol=1e-12)

    def test_closed_form_matches_machinery_route(self):
        rng = np.random.default_rng(9)
        configs = [random_config(rng) for _ in range(4)]
        configs.append(ExperimentConfig())  # degenerate spectra, injected basis
        for config in configs:
            assert_allclose(
                correlation_entangled(config).probabilities,
                correlation_direct(config).probabilities,
                atol=1e-12,
            )

    def test_swapping_sides_transposes_tables(self):
        rng = np.random.default_rng(10)
        for _ in range(4):
            config = random_config(rng)
            swapped = ExperimentConfig(
                a=-config.b, b=-config.a, theta1=config.theta2, theta2=config.theta1
            )
            for route in (correlation_entangled, correlation_factorized):
                assert_allclose(route(swapped).probabilities, route(config).probabilities.T, atol=1e-12)


class TestIntuitiveJoint:
    def test_normalized(self):
        rng = np.random.default_rng(11)
        table = intuitive_joint(random_config(rng))
        assert abs(table.sum() - 1.0) < 1e-12

    def test_mismatched_candidate_indices_vanish(self):
        rng = np.random.default_rng(12)
        table = intuitive_joint(random_config(rng))
        assert np.max(np.abs(table[0, 1])) == 0.0
        assert np.max(np.abs(table[1, 0])) == 0.0

    def test_outcome_marginal_is_factorized_table(self):
        rng = np.random.default_rng(13)
        config = random_config(rng)
        table = intuitive_joint(config)
        assert_allclose(table.sum(axis=(0, 1)), correlation_factorized(config).probabilities, atol=1e-12)

    def test_candidate_marginal_is_coefficient_table(self):
        rng = np.random.default_rng(14)
        config = random_config(rng)
        table = intuitive_joint(config)
        weights = np.abs(np.array(config.coefficients)) ** 2
        assert_allclose(table.sum(axis=(2, 3)), np.diag(weights), atol=1e-12)


class TestAncillaExperiment:
    def test_state_matches_direct_construction(self):
        rng = np.random.default_rng(15)
        for config in (ExperimentConfig(), random_config(rng), random_config(rng)):
            assert_allclose(
                ancilla_experiment(config).amplitudes, ancilla_oracle(config), atol=1e-12
            )

    def test_candidate_states_orthonormal(self):
        rng = np.random.default_rng(16)
        for which in (1, 2):
            chi1, chi2 = ancilla_candidate_states(random_config(rng), which)
            assert abs(chi1.norm() - 1) < 1e-12
            assert abs(chi2.norm() - 1) < 1e-12
            assert abs(chi1.overlap(chi2)) < 1e-12

    def test_candidate_states_check_each_chi_once(self, monkeypatch):
        # one checked batch per chi state; the recording route keeps its own check
        config = ExperimentConfig(theta1=(0.3, 1.0, -2.0), theta2=-1.1)
        checked = []
        own = StateVector._own
        monkeypatch.setattr(StateVector, "_own", lambda self, *rest: checked.append(1) or own(self, *rest))
        chi = ancilla_candidate_states(config, 1)
        assert len(checked) == 2 and [state.batch for state in chi] == [3, 3]

    def test_recording_unitary_is_unitary(self):
        rng = np.random.default_rng(17)
        u = ancilla_recording_unitary(random_config(rng), 1).matrix
        assert np.max(np.abs(u.conj().T @ u - np.eye(18))) < 1e-12

    def test_recording_contraction_matches_embedding(self):
        # the 18x18 recording unitary applied inside the 6-factor space
        rng = np.random.default_rng(24)
        config = random_config(rng)
        space = SpaceRegistry([("P1", 2), ("M1", 3), ("P2", 2), ("M2", 3), ("A1", 3), ("A2", 3)])
        amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        psi = StateVector(space, amps, normalize=True)
        for which in (1, 2):
            w = ancilla_recording_unitary(config, which)
            assert_allclose(
                w.apply(psi).amplitudes, embed_operator(w, space).apply(psi).amplitudes, atol=1e-12
            )

    def test_recording_leaves_candidates_untouched(self):
        config = ExperimentConfig(theta1=0.9, theta2=1.7)
        u = ancilla_recording_unitary(config, 1).matrix
        chi1, _ = ancilla_candidate_states(config, 1)
        start = np.kron(chi1.amplitudes, [1, 0, 0])
        moved = u @ start
        expected = np.kron(chi1.amplitudes, [0, 1, 0])
        assert_allclose(moved, expected, atol=1e-12)

    def test_four_way_joint_equals_intuitive_table(self):
        rng = np.random.default_rng(18)
        for config in (ExperimentConfig(), random_config(rng)):
            dist = ancilla_joint_distribution(config)
            assert_allclose(dist.probabilities, intuitive_joint(config), atol=1e-12)

    def test_device_table_collapses_to_factorized(self):
        rng = np.random.default_rng(19)
        for config in (ExperimentConfig(), random_config(rng)):
            assert_allclose(
                ancilla_device_table(config).probabilities,
                correlation_factorized(config).probabilities,
                atol=1e-12,
            )

    def test_recordings_change_the_correlations(self):
        # grid-search the singlet for the settings with the widest gap
        # between the with- and without-ancilla device tables
        grid = np.linspace(0.0, math.pi, 25)
        best, best_settings = 0.0, None
        for theta1 in grid:
            for theta2 in grid:
                config = ExperimentConfig(theta1=float(theta1), theta2=float(theta2))
                gap = float(
                    np.max(
                        np.abs(
                            correlation_entangled(config).probabilities
                            - correlation_factorized(config).probabilities
                        )
                    )
                )
                if gap > best:
                    best, best_settings = gap, (float(theta1), float(theta2))
        assert best >= 0.2, f"largest interference gap on the grid is only {best}"
        config = ExperimentConfig(theta1=best_settings[0], theta2=best_settings[1])
        with_ancilla = ancilla_device_table(config).probabilities
        without = correlation_entangled(config).probabilities
        assert float(np.max(np.abs(with_ancilla - without))) >= 0.2

    def test_comparison_queries_are_rejected(self):
        ref = ReferenceSystem(ancilla_experiment(ExperimentConfig()), isolated=True)
        with pytest.raises(NonDisjointSystems):
            joint_probability([(("P1", "M1"), 0), (("M1",), 0)], ref)


class TestChsh:
    def test_singlet_optimal_quadruple(self):
        angles = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        oracle = (
            singlet_entangled_correlator(angles[0], angles[2])
            - singlet_entangled_correlator(angles[0], angles[3])
            + singlet_entangled_correlator(angles[1], angles[2])
            + singlet_entangled_correlator(angles[1], angles[3])
        )
        value = chsh("entangled", angles)
        assert abs(oracle - (-2 * math.sqrt(2))) < 1e-12
        assert abs(value - oracle) < 1e-9
        assert abs(abs(value) - 2 * math.sqrt(2)) < 1e-9

    def test_factorized_never_violates(self):
        rng = np.random.default_rng(20)
        for _ in range(1500):
            config = random_config(rng)
            angles = tuple(rng.uniform(0, 2 * math.pi, size=4))
            value = chsh("factorized", angles, config.a, config.b)
            assert abs(value) <= 2.0 + 1e-9

    def test_product_pair_never_violates(self):
        # one (1500, 4) draw holds the numbers of 1500 successive size-4 draws
        angles = np.random.default_rng(21).uniform(0, 2 * math.pi, size=(1500, 4))
        values = chsh("entangled", angles.T, 1.0, 0.0)
        assert values.shape == (1500,) and np.all(np.abs(values) <= 2.0 + 1e-9)
        value = chsh("entangled", tuple(angles[0]), 1.0, 0.0)
        assert isinstance(value, float) and abs(value) <= 2.0 + 1e-9
        assert abs(value - values[0]) <= 1e-12

    def test_direct_route_agrees(self):
        angles = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
        assert abs(chsh("direct", angles) - chsh("entangled", angles)) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            chsh("classical", (0, 0, 0, 0))


class TestBatchedSettings:
    """A config whose angles are tuples runs each route over all settings in
    one call; every member equals the single-setting evaluation."""

    @pytest.fixture
    def rng(self):
        return np.random.default_rng(25)

    def batch_config(self, rng, n=12):
        config = random_config(rng)
        theta1 = tuple(rng.uniform(-2 * math.pi, 2 * math.pi, n))
        theta2 = tuple(rng.uniform(-2 * math.pi, 2 * math.pi, n))
        return ExperimentConfig(a=config.a, b=config.b, theta1=theta1, theta2=theta2)

    def members(self, config):
        return [
            ExperimentConfig(a=config.a, b=config.b, theta1=t1, theta2=t2)
            for t1, t2 in zip(*np.broadcast_arrays(config.theta1, config.theta2))
        ]

    def test_config_stores_batches_as_tuples(self):
        config = ExperimentConfig(theta1=np.array([0.1, 0.2]), theta2=0.3)
        assert config.theta1 == (0.1, 0.2) and config.theta2 == 0.3 and config.batch == 2
        assert hash(config) == hash(ExperimentConfig(theta1=(0.1, 0.2), theta2=0.3))
        assert ExperimentConfig().batch is None

    def test_closed_forms_match_per_point_exactly(self, rng):
        config = self.batch_config(rng)
        broadcast = ExperimentConfig(a=config.a, b=config.b, theta1=config.theta1[0], theta2=config.theta2)
        for route in (correlation_entangled, correlation_factorized):
            for batch in (config, broadcast):
                tables = route(batch).probabilities
                assert tables.shape == (12, 2, 2)
                for table, member in zip(tables, self.members(batch)):
                    assert np.array_equal(table, route(member).probabilities)
        # the per-point loop on the oracle overlaps, one setting at a time
        c = np.diag(config.coefficients)
        for table, member in zip(correlation_entangled(config).probabilities, self.members(config)):
            o1, o2 = overlap_matrix(member.theta1, 1), overlap_matrix(member.theta2, 2)
            assert_allclose(table, np.abs(o1 @ c @ o2.T) ** 2, rtol=0, atol=1e-15)

    def test_direct_route_matches_per_point(self, rng):
        config = self.batch_config(rng)
        direct = correlation_direct(config).probabilities
        closed = correlation_entangled(config).probabilities
        for i, member in enumerate(self.members(config)):
            assert_allclose(direct[i], correlation_direct(member).probabilities, rtol=0, atol=2e-15)
        assert_allclose(direct, closed, rtol=0, atol=1e-12)

    def test_states_unitaries_and_marginals_match_per_point(self, rng):
        config = self.batch_config(rng, n=5)
        final = evolve_experiment(config)
        unitaries = measurement_unitary(config.theta1, "P1", "M1").matrix
        marginals = device_marginal(final, 2)
        intuitive = intuitive_joint(config)
        correlators = correlator(correlation_entangled(config))
        for i, member in enumerate(self.members(config)):
            single = evolve_experiment(member)
            assert_allclose(final.amplitudes[i], single.amplitudes, rtol=0, atol=1e-15)
            assert np.array_equal(unitaries[i], measurement_unitary(member.theta1, "P1", "M1").matrix)
            assert_allclose(marginals[i], device_marginal(single, 2), rtol=0, atol=1e-15)
            assert np.array_equal(intuitive[i], intuitive_joint(member))
            assert correlators[i] == correlator(correlation_entangled(member))

    def test_chsh_batch_matches_per_point(self, rng):
        config = random_config(rng)
        quads = rng.uniform(-2 * math.pi, 2 * math.pi, size=(4, 15))
        s = {kind: chsh(kind, tuple(quads), config.a, config.b) for kind in ("entangled", "factorized", "direct")}
        for j in range(15):
            quad = tuple(float(x) for x in quads[:, j])
            for kind in ("entangled", "factorized"):
                assert s[kind][j] == chsh(kind, quad, config.a, config.b)
            assert abs(s["direct"][j] - chsh("direct", quad, config.a, config.b)) <= 2e-15
        assert np.max(np.abs(s["direct"] - s["entangled"])) <= 1e-12
        # scalar angles give a float, a mix of scalars and arrays broadcasts
        assert isinstance(chsh("entangled", (0.0, 1.0, 2.0, 3.0)), float)
        mixed = chsh("entangled", (0.0, 1.0, quads[2], quads[3]))
        assert mixed.shape == (15,)
        with pytest.raises(ValueError):
            chsh("entangled", (0.0, 1.0, np.zeros((2, 2)), 0.0))

    @pytest.mark.parametrize(
        "kwargs,named",
        [
            ({"theta1": float("nan")}, "theta1 = nan"),
            ({"theta2": float("inf")}, "theta2 = inf"),
            ({"theta1": (0.1, float("-inf"), 0.2)}, "batch member 1: theta1 = -inf"),
            ({"theta1": (0.1, 0.2), "theta2": (0.1, 0.2, 0.3)}, "differ in length"),
            ({"theta2": ()}, "theta2"),
            ({"theta1": [[0.1, 0.2]]}, "theta1"),
            ({"theta1": [0.1, [0.2, 0.3]]}, "theta1"),
            ({"theta2": "up"}, "theta2"),
        ],
    )
    def test_config_rejects_bad_angles(self, kwargs, named):
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig(**kwargs)
        assert named in str(excinfo.value)

    def test_correlation_table_checks_name_the_member(self):
        good = np.full((2, 2), 0.25)
        with pytest.raises(ValueError, match="batch member 2"):
            JointDistribution(DEVICE_AXES, [good, good, np.diag([1.5, -0.5])])
        with pytest.raises(ValueError, match="batch member 0"):
            JointDistribution(DEVICE_AXES, [np.full((2, 2), np.nan)])

    @pytest.mark.parametrize("both_batched", [False, True], ids=["tuple-float", "two-tuples"])
    def test_ancilla_functions_match_per_point_exactly(self, rng, both_batched):
        config = self.batch_config(rng, n=7)
        if not both_batched:
            config = ExperimentConfig(a=config.a, b=config.b, theta1=config.theta1, theta2=0.3)
        final = ancilla_experiment(config)
        four_way, device = ancilla_joint_distribution(config), ancilla_device_table(config)
        sides = {which: (ancilla_candidate_states(config, which), ancilla_recording_unitary(config, which)) for which in (1, 2)}
        assert final.batch == four_way.batch == device.batch == 7
        for i, member in enumerate(self.members(config)):
            assert same_bytes(final.amplitudes[i], ancilla_experiment(member).amplitudes)
            assert same_bytes(four_way.probabilities[i], ancilla_joint_distribution(member).probabilities)
            assert same_bytes(device.probabilities[i], ancilla_device_table(member).probabilities)
            for which, (chi, unitary) in sides.items():
                assert [state.batch for state in chi] == [7, 7] and unitary.batch == 7
                single = ancilla_candidate_states(member, which)
                assert all(same_bytes(b.amplitudes[i], s.amplitudes) for b, s in zip(chi, single))
                assert same_bytes(unitary.matrix[i], ancilla_recording_unitary(member, which).matrix)

    def test_ancilla_route_stays_within_its_memory_budget(self):
        # the README's budget: the peak measured before this test existed
        # (29.53 MB, numpy 2.4) rounded up to 0.1 MB
        grid = np.linspace(0.0, 2.0 * math.pi, 25)
        theta1, theta2 = (tuple(t.ravel()) for t in np.meshgrid(grid, grid, indexing="ij"))

        def route(config):
            return pointer_tables(ancilla_experiment(config), ("A1", "A2", "M1", "M2"), ("M1", "M2"))

        route(ExperimentConfig(theta1=(0.1, 0.2), theta2=0.3))
        config = ExperimentConfig(theta1=theta1, theta2=theta2)
        tracemalloc.start()
        try:
            route(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 29.6e6


#: the ``cli.build_spec`` values of one run per scenario that evaluates a config
DERIVING_RUNS = {
    "chsh-scan": {"scenario": "chsh-scan", "grid": "0,3.14,25"},
    "bell-ancilla": {"scenario": "bell-ancilla", "theta1": "0.4", "theta2": "-1.3"},
    "bell": {"scenario": "bell"},
}


class TestDerivedRows:
    """Each side's spin rows depend on that side's angles alone, so a
    config derives them once and every route reads them from there."""

    @pytest.mark.parametrize("scenario", DERIVING_RUNS)
    def test_each_side_is_derived_once_per_run(self, monkeypatch, scenario):
        # re-derived by every route from the angles, a chsh-scan run took
        # 6 derivations, a bell-ancilla run 12 and a bell run 6; the angle
        # cache serves an identical second run without any
        calls, spin_rows = [], bell._spin_rows
        monkeypatch.setattr(bell, "_spin_rows", lambda theta: calls.append(theta) or spin_rows(theta))
        bell._angle_work.cache_clear()
        cli.run(cli.build_spec(dict(DERIVING_RUNS[scenario])))
        assert len(calls) == 2
        cli.run(cli.build_spec(dict(DERIVING_RUNS[scenario])))
        assert len(calls) == 2

    def test_intro_derives_its_side_once(self, monkeypatch):
        # measurement_unitary and spin_eigenstates each derived theta1's rows
        calls, spin_rows = [], bell._spin_rows
        monkeypatch.setattr(bell, "_spin_rows", lambda theta: calls.append(theta) or spin_rows(theta))
        bell._angle_work.cache_clear()
        cli.run(cli.build_spec({"scenario": "intro-measurement", "theta1": "0.9"}))
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "thetas",
        [(0.7, -2.2), ((0.7, 1.9, -3.1), (-2.2, 0.4, 5.0)), ((0.7, 1.9, -3.1), -2.2), (0.7, (-2.2, 0.4, 5.0))],
        ids=["floats", "tuples", "tuple-float", "float-tuple"],
    )
    def test_derived_rows_match_the_per_theta_functions(self, monkeypatch, thetas):
        config = ExperimentConfig(0.6, 0.8j, *thetas)
        couplings, apply = [], Operator.apply
        monkeypatch.setattr(Operator, "apply", lambda op, state: couplings.append(op) or apply(op, state))
        evolve_experiment(config)
        for side, theta, rows, coupling in zip((1, 2), thetas, config._rows, couplings):
            particle, pointer, _ = bell._SIDE_LABELS[side]
            one, two = spin_eigenstates(theta, particle)
            assert same_bytes(rows.astype(complex), np.stack([one.amplitudes, two.amplitudes], axis=-2))
            overlaps = bell._overlaps(rows, side)
            assert same_bytes(overlaps, outcome_overlaps(theta, side)) and np.shares_memory(overlaps, rows)
            assert same_bytes(coupling.matrix, measurement_unitary(theta, particle, pointer).matrix)
            # a float side's chi broadcasts over the other side's batch
            assert same_bytes(bell._ancilla_chi(config, side), ancilla_chi_by_einsum(config, side))

    def test_derived_rows_leave_equality_and_hash(self):
        derived, fresh = (ExperimentConfig(0.6, 0.8, (0.1, 0.2), 0.3) for _ in range(2))
        correlation_factorized(derived)
        assert "_sides" in vars(derived) and "_sides" not in vars(fresh)
        assert derived == fresh and hash(derived) == hash(fresh) and repr(derived) == repr(fresh)
        assert derived != ExperimentConfig(0.6, 0.8, (0.1, 0.2), 0.4)


class TestAngleCache:
    """Each side's coupling depends on that side's angles alone, so one
    bounded cache keyed on those angles serves every config and call that
    measures at them."""

    @pytest.mark.parametrize(
        "theta", [0.0, -0.0, 0.3, (0.3,), (0.0, -0.0, 2.5), np.linspace(-7.0, 7.0, 12)], ids=str
    )
    def test_outputs_match_the_uncached_oracle(self, theta):
        bell._angle_work.cache_clear()
        swap, rows = measurement_swap_uncached(theta), bell._spin_rows(theta)
        for _ in range(2):  # the miss, then the hit
            assert same_bytes(measurement_unitary(theta, "P", "M").matrix, Operator(SpaceRegistry([("P", 2), ("M", 3)]), swap).matrix)
            one, two = spin_eigenstates(theta)
            assert same_bytes(np.stack([one.amplitudes, two.amplitudes], axis=-2), rows.astype(complex))
            assert same_bytes(outcome_overlaps(theta, 2), rows[..., ::-1])
        assert bell._angle_work.cache_info()[:2] == (5, 1)

    @pytest.mark.parametrize("pair", [(0.0, -0.0), (0.3, (0.3,))], ids=["signed-zero", "float-tuple"])
    def test_equal_valued_angles_of_other_bytes_or_shape_are_distinct_keys(self, pair):
        bell._angle_work.cache_clear()
        for theta in pair:
            assert same_bytes(measurement_unitary(theta, "P", "M").matrix, measurement_unitary(theta, "P", "M").matrix)
            assert same_bytes(outcome_overlaps(theta, 1), bell._spin_rows(theta))
        info = bell._angle_work.cache_info()
        assert (info.misses, info.currsize) == (2, 2)

    def test_cached_arrays_are_read_only(self):
        config = ExperimentConfig(theta1=(0.1, 0.2), theta2=-0.4)
        evolve_experiment(config)
        entry = config._sides[0]
        for array in (*config._rows, entry.rows, entry.swap, outcome_overlaps(0.1, 1)):
            with pytest.raises(ValueError, match="read-only"):
                array[..., 0, 0] = 1.0
        assert same_bytes(entry.swap, measurement_swap_uncached((0.1, 0.2)))

    def test_repeated_scans_hit_and_the_cache_stays_bounded(self):
        bell._angle_work.cache_clear()
        scan = cli.build_spec({"scenario": "chsh-scan", "grid": "0,3.14,25"})
        cli.run(scan)
        cold = bell._angle_work.cache_info()
        cli.run(scan)
        warm = bell._angle_work.cache_info()
        assert warm.hits > cold.hits and warm.misses == cold.misses == 2
        for stop in range(10):
            cli.run(cli.build_spec({"scenario": "chsh-scan", "grid": f"0,{1 + stop / 2},25"}))
            assert bell._angle_work.cache_info().currsize <= bell._angle_work.cache_info().maxsize

    def test_config_rules_run_before_the_cache(self, monkeypatch):
        # refused configs after a valid one leave the cache's entries as they
        # were, so the valid config then hits on both sides; no refusal
        # reaches the cache or any cos or sin of its angles
        bell._angle_work.cache_clear()
        valid = (0.6, 0.8, (0.1, 0.2, 0.3), -0.4)
        evolve_experiment(ExperimentConfig(*valid))
        before = bell._angle_work.cache_info()
        touched, lookup, spin_rows = [], bell._angle_work, bell._spin_rows
        monkeypatch.setattr(bell, "_angle_work", lambda key: touched.append(key) or lookup(key))
        monkeypatch.setattr(bell, "_spin_rows", lambda theta: touched.append(theta) or spin_rows(theta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for theta1, theta2 in (([[0.1]], 0.0), ([], 0.0), (math.nan, 0.0), (0.2, -math.inf), ((0.1, 0.2), (0.3, 0.4, 0.5))):
                with pytest.raises(ValueError):
                    ExperimentConfig(0.6, 0.8, theta1, theta2)
        assert touched == [] and lookup.cache_info() == before and before.currsize == 2
        evolve_experiment(ExperimentConfig(*valid))
        after = lookup.cache_info()
        assert (after.hits - before.hits, after.misses, after.currsize) == (2, before.misses, 2)

    @pytest.mark.parametrize(
        "make, theta",
        [(spin_eigenstates, math.nan), (lambda theta: measurement_unitary(theta, "P", "M"), math.inf), (spin_eigenstates, (0.1, -math.inf))],
        ids=["nan-eigenstates", "inf-unitary", "batch-eigenstates"],
    )
    def test_entries_made_outside_a_config_stay_unchecked(self, make, theta):
        # an entry the public functions made holds rows of angles no config
        # accepts; a config at those bytes still meets the rules, before any
        # cos and without touching the cache
        bell._angle_work.cache_clear()
        with pytest.raises(ValueError, match="is not finite") as fresh:
            ExperimentConfig(theta1=theta)
        bell._angle_work.cache_clear()
        # spin_eigenstates refuses its states of NaN amplitudes once the entry holds their rows
        with np.errstate(invalid="ignore"), contextlib.suppress(NotNormalized):
            make(theta)
        assert bell._angle_work.cache_info().currsize == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            before = bell._angle_work.cache_info()
            for _ in range(2):
                with pytest.raises(ValueError) as cached:
                    ExperimentConfig(theta1=theta)
                assert str(cached.value) == str(fresh.value)
        assert bell._angle_work.cache_info() == before


class TestCoefficientFreeWork:
    """What no pair coefficient changes is built once and shared."""

    def test_particle_candidates_are_built_once(self):
        for side in (1, 2):
            states = particle_candidate_states(side)
            assert particle_candidate_states(side) is states
            space = bell.particle_space(bell._SIDE_LABELS[side][0])
            for state, index in zip(states, bell.PAIR_BASIS[side]):
                assert state.space == space and same_bytes(state.amplitudes, basis_state(space, index).amplitudes)

    @pytest.mark.parametrize("side", [0, 3, "1", [1], None], ids=str)
    def test_a_bad_side_is_refused_before_the_cache(self, side):
        with pytest.raises(ValueError, match=f"side must be 1 or 2, got {re.escape(repr(side))}"):
            particle_candidate_states(side)

    @pytest.mark.parametrize("scalar", [True, False])
    def test_one_chsh_pass_matches_a_correlator_per_route(self, scalar):
        angles = (0.1, 0.7, -1.0, 2.0) if scalar else (0.1, 0.7, np.linspace(-1.0, 2.0, 5), np.linspace(0.0, 3.0, 5))
        config = ExperimentConfig(0.6, 0.8j, *bell._chsh_angles(angles)[:2])
        tables = [route(config) for route in (correlation_entangled, correlation_factorized, correlation_direct)]
        for s, table in zip(bell._chsh_value(tables, scalar), tables):
            expected = chsh_value_by_correlator(table, scalar)
            assert type(s) is type(expected) and same_bytes(s, expected)
