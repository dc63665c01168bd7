"""Full-space reference routes the contraction kernel is checked against.

The package applies local operators and takes joint tables by contracting
axes of the pure-state amplitude tensor.  The routes below do the same work
the long way: an operator is widened to the full space by the identity on
every other factor, and a joint table is the trace of a product of embedded
candidate projectors against the reduced state of the union of the systems.
"""

import numpy as np

from qrs_sim.errors import NotIsolated, UnknownLabel
from qrs_sim.linalg import Operator, SpaceRegistry, StateVector
from qrs_sim.reference import (
    JointDistribution,
    ReferenceSystem,
    _check_disjoint,
    _normalized_systems,
    internal_state_candidates,
    state_of,
)


def embed_operator(op: Operator, full_space: SpaceRegistry) -> Operator:
    """Extend an operator by the identity on all labels of ``full_space``
    it does not act on, producing a matrix in the full space's layout.

    The sub-operator's labels may sit anywhere (and in any order) inside
    the full registry; dimensions must agree label by label.
    """
    sub = op.space
    for label, dim in sub.entries:
        if label not in full_space:
            raise UnknownLabel(f"label {label!r} not in space {full_space.labels}")
        if full_space.entries[full_space.axis(label)][1] != dim:
            raise ValueError(f"dimension mismatch for label {label!r}")
    comp_entries = tuple(e for e in full_space.entries if e[0] not in sub)
    if not comp_entries:
        if sub.labels == full_space.labels:
            return Operator(full_space, op.matrix)
        arranged_labels = sub.labels
        arranged_dims = sub.dims
        big = op.matrix
    else:
        comp_dim = int(np.prod([d for _, d in comp_entries]))
        big = np.kron(op.matrix, np.eye(comp_dim))
        arranged_labels = sub.labels + tuple(label for label, _ in comp_entries)
        arranged_dims = sub.dims + tuple(d for _, d in comp_entries)
    n = len(arranged_labels)
    position = {label: i for i, label in enumerate(arranged_labels)}
    perm = [position[label] for label in full_space.labels]
    tensor = big.reshape(arranged_dims + arranged_dims)
    tensor = tensor.transpose(perm + [p + n for p in perm])
    return Operator(full_space, np.ascontiguousarray(tensor).reshape(full_space.dim, full_space.dim))


def projector(phi: StateVector, full_space: SpaceRegistry) -> Operator:
    """|phi><phi| tensored with the identity on the complement of phi's
    labels, laid out in ``full_space`` order.  Idempotent and Hermitian;
    its trace equals the complement dimension."""
    small = Operator(phi.space, np.outer(phi.amplitudes, phi.amplitudes.conj()))
    return embed_operator(small, full_space)


def joint_distribution_by_projectors(systems, reference: ReferenceSystem, *, candidates=None) -> JointDistribution:
    """The joint table as one projector-product trace per cell against the
    reduced state of the union of the systems."""
    if not reference.isolated:
        raise NotIsolated("joint probabilities are defined only for isolated reference systems")
    systems = _normalized_systems(systems, reference)
    if not systems:
        raise ValueError("at least one subsystem is required")
    _check_disjoint(systems)
    if candidates is None:
        candidates = [internal_state_candidates(system, reference).states for system in systems]
    states = [tuple(options) for options in candidates]
    union = reference.space.resolve([label for system in systems for label in system])
    rho_union = state_of(union, reference)
    space = rho_union.space
    projectors = [[projector(phi, space).matrix for phi in options] for options in states]
    shape = tuple(len(options) for options in states)
    table = np.empty(shape, dtype=float)
    for index in np.ndindex(shape):
        product = projectors[0][index[0]]
        for axis in range(1, len(index)):
            product = product @ projectors[axis][index[axis]]
        table[index] = float(np.trace(product @ rho_union.matrix).real)
    table = np.clip(table, 0.0, 1.0)
    axes = tuple((system, n) for system, n in zip(systems, shape))
    return JointDistribution(axes=axes, probabilities=table)
