"""The package's public surface: the names ``from qrs_sim import *`` binds."""

import qrs_sim

PUBLIC = (
    "ConfigError",
    "DensityOperator",
    "ExperimentConfig",
    "JointDistribution",
    "LabelCollision",
    "NonDisjointSystems",
    "NotHermitian",
    "NotIsolated",
    "NotNormalized",
    "Operator",
    "QrsError",
    "ReferenceSystem",
    "SpaceRegistry",
    "Spectrum",
    "StateVector",
    "UnknownLabel",
    "__version__",
    "ancilla_device_table",
    "ancilla_experiment",
    "ancilla_joint_distribution",
    "basis_state",
    "chsh",
    "correlation_direct",
    "correlation_entangled",
    "correlation_factorized",
    "correlator",
    "device_marginal",
    "eig_hermitian",
    "entangled_pair_state",
    "evolve_experiment",
    "internal_state_candidates",
    "intuitive_joint",
    "joint_distribution",
    "joint_distributions",
    "joint_probability",
    "measurement_unitary",
    "pair_distribution",
    "partial_trace",
    "sample_assignment",
    "spin_eigenstates",
    "state_of",
    "tensor_product",
)


def test_public_names_are_pinned():
    assert sorted(qrs_sim.__all__) == list(PUBLIC)


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from qrs_sim import *", namespace)
    assert not {"errors", "linalg", "reference", "bell", "cli"} & namespace.keys()
    assert sorted(namespace.keys() - {"__builtins__"}) == list(PUBLIC)
