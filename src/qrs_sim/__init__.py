"""Relative-state quantum simulator.

Labeled tensor-factor linear algebra, joint outcome statistics over
disjoint subsystems, and the two-particle spin-correlation experiment with
its CHSH harness.  Entry points: the classes and functions re-exported
below, and the ``qrs-sim`` command line (see :mod:`qrs_sim.cli`).
"""

from types import ModuleType as _ModuleType

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
    JointDistribution,
    ReferenceSystem,
    internal_state_candidates,
    joint_distribution,
    joint_distributions,
    joint_probability,
    state_of,
)
from .bell import (
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

#: every name imported above (the submodules those imports bind aside),
#: plus the version
__all__ = [name for name, value in dict(globals()).items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
