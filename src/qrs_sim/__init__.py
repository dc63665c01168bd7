"""Relative-state quantum simulator.

Labeled tensor-factor linear algebra, joint outcome statistics over
disjoint subsystems, and the two-particle spin-correlation experiment with
its CHSH harness.  Entry points: the classes and functions re-exported
below, and the ``qrs-sim`` command line (see :mod:`qrs_sim.cli`).
"""

from .errors import (
    ConfigError,
    LabelCollision,
    NonDisjointSystems,
    NotHermitian,
    NotIsolated,
    NotNormalized,
    QrsError,
    UnknownLabel,
)
from .linalg import (
    DensityOperator,
    Operator,
    SpaceRegistry,
    Spectrum,
    StateVector,
    basis_state,
    eig_hermitian,
    partial_trace,
    tensor_product,
)
from .reference import (
    CandidateAssignment,
    JointDistribution,
    ReferenceSystem,
    internal_state_candidates,
    joint_distribution,
    joint_probability,
    sample_assignment,
    state_of,
)
from .bell import (
    CorrelationTable,
    ExperimentConfig,
    ancilla_device_table,
    ancilla_experiment,
    ancilla_joint_distribution,
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
    pair_distribution,
    spin_eigenstates,
)

__version__ = "0.1.0"

__all__ = [
    "QrsError",
    "LabelCollision",
    "UnknownLabel",
    "NotNormalized",
    "NotHermitian",
    "NotIsolated",
    "NonDisjointSystems",
    "ConfigError",
    "SpaceRegistry",
    "StateVector",
    "DensityOperator",
    "Operator",
    "Spectrum",
    "tensor_product",
    "partial_trace",
    "eig_hermitian",
    "basis_state",
    "ReferenceSystem",
    "CandidateAssignment",
    "JointDistribution",
    "state_of",
    "internal_state_candidates",
    "joint_probability",
    "joint_distribution",
    "sample_assignment",
    "ExperimentConfig",
    "CorrelationTable",
    "entangled_pair_state",
    "spin_eigenstates",
    "measurement_unitary",
    "evolve_experiment",
    "device_marginal",
    "correlation_entangled",
    "correlation_factorized",
    "correlation_direct",
    "pair_distribution",
    "intuitive_joint",
    "ancilla_experiment",
    "ancilla_joint_distribution",
    "ancilla_device_table",
    "correlator",
    "chsh",
    "__version__",
]
