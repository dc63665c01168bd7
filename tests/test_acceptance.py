"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS/FAIL lines as they happen).
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qrs_sim import (
    DensityOperator,
    NonDisjointSystems,
    ReferenceSystem,
    SpaceRegistry,
    StateVector,
    basis_state,
    eig_hermitian,
    joint_distribution,
    joint_probability,
    state_of,
    tensor_product,
)
from qrs_sim.bell import (
    ExperimentConfig,
    ancilla_device_table,
    ancilla_experiment,
    ancilla_joint_distribution,
    chsh,
    correlation_entangled,
    correlation_factorized,
    correlation_direct,
    device_marginal,
    evolve_experiment,
    intuitive_joint,
    measurement_unitary,
    pair_distribution,
    particle_space,
    pointer_outcome_states,
    pointer_space,
)
from qrs_sim.cli import build_spec, emit, run

GRID = np.linspace(0.0, 2.0 * math.pi, 25)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def random_coefficients(rng):
    parts = rng.normal(size=4)
    a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


def test_criterion_1_reduced_device_state():
    with criterion(1, "reduced device state"):
        spin = StateVector(particle_space("P"), [0.6, 0.8])
        start = tensor_product(spin, basis_state(pointer_space("M"), 0))
        final = measurement_unitary(0.0, "P", "M").apply(start)
        rho = state_of("M", ReferenceSystem(final, isolated=True))
        expected = np.diag([0.0, 0.36, 0.64])
        assert np.max(np.abs(rho.matrix - expected)) <= 1e-12


def test_criterion_2_pair_correlations():
    with criterion(2, "pair correlations"):
        rng = np.random.default_rng(210)
        for _ in range(100):
            a, b = random_coefficients(rng)
            dist = pair_distribution(ExperimentConfig(a=a, b=b))
            expected = np.diag([abs(a) ** 2, abs(b) ** 2])
            assert np.max(np.abs(dist.probabilities - expected)) <= 1e-12


# every (theta1, theta2) pair of the grid, theta1 slowest: one batched config
# per coefficient pair evaluates the whole 25 x 25 grid in one call
THETA1, THETA2 = (tuple(t.ravel()) for t in np.meshgrid(GRID, GRID, indexing="ij"))


def test_criterion_3_route_equivalence():
    with criterion(3, "route equivalence"):
        rng = np.random.default_rng(37)
        coefficients = [random_coefficients(rng) for _ in range(20)]
        worst = 0.0
        for a, b in coefficients:
            config = ExperimentConfig(a=a, b=b, theta1=THETA1, theta2=THETA2)
            closed = correlation_entangled(config).table
            direct = correlation_direct(config).table
            worst = max(worst, float(np.max(np.abs(closed - direct))))
        assert worst <= 1e-12, f"worst route residual {worst:.3e}"


def test_criterion_4_marginal_locality():
    with criterion(4, "marginal locality"):
        rng = np.random.default_rng(44)
        coefficients = [random_coefficients(rng) for _ in range(20)]
        worst = 0.0
        for a, b in coefficients:
            config = ExperimentConfig(a=a, b=b, theta1=THETA1, theta2=THETA2)
            # (theta1, theta2, outcome); each row must equal its first entry
            marginal = device_marginal(evolve_experiment(config), 1).reshape(len(GRID), len(GRID), 2)
            worst = max(worst, float(np.max(np.abs(marginal - marginal[:, :1]))))
        assert worst <= 1e-12, f"worst marginal drift {worst:.3e}"


def test_criterion_5_chsh():
    with criterion(5, "CHSH violation and classical bound"):
        angles = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)

        def oracle_e(theta1, theta2):
            return -math.cos(theta1 - theta2)

        oracle_s = (
            oracle_e(angles[0], angles[2])
            - oracle_e(angles[0], angles[3])
            + oracle_e(angles[1], angles[2])
            + oracle_e(angles[1], angles[3])
        )
        s_entangled = chsh("entangled", angles)
        assert abs(s_entangled - oracle_s) <= 1e-9
        assert abs(abs(s_entangled) - 2.0 * math.sqrt(2.0)) <= 1e-9

        rng = np.random.default_rng(55)
        for _ in range(10_000):
            a, b = random_coefficients(rng)
            quad = tuple(rng.uniform(0.0, 2.0 * math.pi, size=4))
            assert abs(chsh("factorized", quad, a, b)) <= 2.0 + 1e-9


def test_criterion_6_ancilla_collapse():
    with criterion(6, "ancilla recordings change the correlations"):
        # the nominal settings (0, pi/2) show no gap between the two closed
        # forms (they agree cellwise there), so locate the discriminating
        # settings by grid search first, as the criterion instructs
        search = np.linspace(0.0, math.pi, 25)
        best_gap, best = 0.0, None
        for theta1 in search:
            for theta2 in search:
                config = ExperimentConfig(theta1=float(theta1), theta2=float(theta2))
                gap = float(
                    np.max(np.abs(correlation_entangled(config).table - correlation_factorized(config).table))
                )
                if gap > best_gap:
                    best_gap, best = gap, config
        assert best_gap >= 0.1, "no discriminating settings found on the grid"
        assert best_gap >= 0.2, f"largest gap on the grid is only {best_gap}"

        for config in (best, ExperimentConfig()):  # located settings and (0, pi/2)
            four_way = ancilla_joint_distribution(config)
            assert np.max(np.abs(four_way.probabilities - intuitive_joint(config))) <= 1e-12
            collapsed = ancilla_device_table(config).table
            assert np.max(np.abs(collapsed - correlation_factorized(config).table)) <= 1e-12

        disagreement = float(
            np.max(np.abs(ancilla_device_table(best).table - correlation_entangled(best).table))
        )
        assert disagreement >= 0.2


def test_criterion_7_non_comparability():
    with criterion(7, "comparison queries are rejected"):
        final = evolve_experiment(ExperimentConfig())
        reference = ReferenceSystem(final, isolated=True)
        with pytest.raises(NonDisjointSystems):
            joint_probability([(("P1", "M1"), 0), (("M1",), 0)], reference)


def test_criterion_8_numerical_hygiene():
    with criterion(8, "numerical hygiene"):
        # every probability table a scenario run emits sums to 1
        probability_kinds = {
            "device_marginal",
            "device_state_diagonal",
            "candidate_weights",
            "pair_table",
            "entangled",
            "factorized",
            "direct",
            "ancilla_joint",
            "empirical",
        }
        specs = [
            {"scenario": "intro-measurement", "a": "0.6", "b": "0.8"},
            {"scenario": "pair-correlations", "samples": "2000"},
            {"scenario": "bell", "theta1": "0.3", "theta2": "1.2"},
            {"scenario": "bell-ancilla"},
        ]
        for values in specs:
            report = run(build_spec(values))
            tables = list(report.tables) + ([report.empirical] if report.empirical else [])
            for table in tables:
                if table.kind in probability_kinds and table.kind != "candidate_weights":
                    assert abs(float(table.values.sum()) - 1.0) <= 1e-10, table.kind

        # evolved states keep unit norm
        rng = np.random.default_rng(88)
        for _ in range(50):
            a, b = random_coefficients(rng)
            config = ExperimentConfig(
                a=a, b=b, theta1=float(rng.uniform(0, 2 * math.pi)), theta2=float(rng.uniform(0, 2 * math.pi))
            )
            assert abs(evolve_experiment(config).norm() - 1.0) <= 1e-12
        for _ in range(5):
            a, b = random_coefficients(rng)
            assert abs(ancilla_experiment(ExperimentConfig(a=a, b=b)).norm() - 1.0) <= 1e-12

        # eigendecomposition reconstructs random density operators
        for _ in range(1000):
            dim = int(rng.integers(2, 33))
            space = SpaceRegistry([("X", dim)])
            factors = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            raw = factors @ factors.conj().T
            rho = DensityOperator(space, raw / np.trace(raw))
            spectrum = eig_hermitian(rho)
            vectors = np.column_stack([s.amplitudes for s in spectrum.states])
            rebuilt = (vectors * spectrum.eigenvalues) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-10


def test_criterion_9_sampling(tmp_path):
    with criterion(9, "sampling frequencies and reproducibility"):
        final = evolve_experiment(ExperimentConfig())
        reference = ReferenceSystem(final, isolated=True)
        dist = joint_distribution(
            [("M1",), ("M2",)],
            reference,
            candidates=[pointer_outcome_states("M1"), pointer_outcome_states("M2")],
        )
        n = 100_000
        draws = dist.sample(seed=2026, n=n)
        counts = np.zeros(dist.probabilities.shape)
        for index in draws:
            counts[index] += 1.0
        frequencies = counts / n
        sigma = np.sqrt(dist.probabilities * (1.0 - dist.probabilities) / n)
        assert np.all(np.abs(frequencies - dist.probabilities) <= 3.0 * sigma + 1e-15)

        # identical draws for the same seed, and byte-identical reports
        assert dist.sample(seed=2026, n=1000) == dist.sample(seed=2026, n=1000)
        spec = build_spec({"scenario": "bell", "samples": "5000", "seed": "11"})
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        emit(run(spec), "json", str(first))
        emit(run(spec), "json", str(second))
        assert first.read_bytes() == second.read_bytes()
