"""Relative states and joint outcome statistics for labeled subsystems.

A :class:`ReferenceSystem` is a composite system whose own (pure) state is
known; the state it assigns to a subsystem ``S`` is the partial trace of
that pure state over everything outside ``S``.  For an *isolated* reference
system the eigenstates of that reduced operator are the candidate internal
states of ``S``, and the joint probability that several pairwise-disjoint
subsystems sit in given candidates is the trace of the corresponding
projector product against the reduced state of their union.  Because the
reference state is pure, that trace is evaluated as one contraction of the
amplitude tensor with the candidate bras, ``sum_r |(<phi_1| ... <phi_k|)
psi_r|^2`` over the remaining factors ``r``.  Disjointness is enforced:
overlapping subsystems raise :class:`NonDisjointSystems` because no joint
probability is defined for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonDisjointSystems, NotIsolated, UnknownLabel
from .linalg import (
    DensityOperator,
    Spectrum,
    SpaceRegistry,
    StateVector,
    eig_hermitian,
    partial_trace,
    _as_label_tuple,
)

CANDIDATE_CUTOFF = 1e-12
PROB_CLAMP = 1e-12
TABLE_SUM_TOL = 1e-10
EIGENSTATE_TOL = 1e-10


@dataclass(frozen=True)
class ReferenceSystem:
    """A composite system with a known pure state.

    ``isolated`` is declared by whoever constructs the scenario: it records
    that the system has never interacted with anything outside its labels.
    It cannot be inferred from the state itself, and the candidate/joint
    operations below are only defined when it is true.
    """

    state: StateVector
    isolated: bool = False

    @property
    def labels(self) -> tuple[str, ...]:
        return self.state.space.labels

    @property
    def space(self) -> SpaceRegistry:
        return self.state.space


@dataclass(frozen=True)
class CandidateAssignment:
    """One candidate index per subsystem, for a joint-probability query."""

    entries: tuple[tuple[tuple[str, ...], int], ...]

    @classmethod
    def of(cls, *pairs) -> "CandidateAssignment":
        return cls(tuple((_as_label_tuple(labels), int(index)) for labels, index in pairs))

    @property
    def systems(self) -> tuple[tuple[str, ...], ...]:
        return tuple(labels for labels, _ in self.entries)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(index for _, index in self.entries)


@dataclass(frozen=True)
class JointDistribution:
    """Dense probability table over candidate indices of several subsystems.

    ``axes`` pairs each subsystem's labels with its candidate count; the
    table axis order matches.  Entries are >= -1e-12 and sum to 1 within
    1e-10 (checked at construction).
    """

    axes: tuple[tuple[tuple[str, ...], int], ...]
    probabilities: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.probabilities, dtype=float)
        expected = tuple(count for _, count in self.axes)
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} does not match axes {expected}")
        # written so that NaN fails both guards
        low = float(table.min())
        if not low >= -PROB_CLAMP:
            raise ValueError(f"negative probability {low:.3e} below -{PROB_CLAMP}")
        total = float(table.sum())
        if not abs(total - 1.0) <= TABLE_SUM_TOL:
            raise ValueError(f"table sums to {total!r}, off from 1 by more than {TABLE_SUM_TOL}")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "probabilities", table)

    def marginal(self, keep_axes: Sequence[int]) -> "JointDistribution":
        """Sum out every axis not listed; kept axes stay in ascending order."""
        keep = sorted(set(int(i) for i in keep_axes))
        if not keep or any(i < 0 or i >= len(self.axes) for i in keep):
            raise ValueError(f"keep_axes {keep_axes} invalid for {len(self.axes)} axes")
        drop = tuple(i for i in range(len(self.axes)) if i not in keep)
        table = self.probabilities.sum(axis=drop) if drop else self.probabilities
        return JointDistribution(tuple(self.axes[i] for i in keep), table)

    def sample(self, seed: int, n: int = 1) -> list[tuple[int, ...]]:
        """Draw ``n`` index tuples by inverse-CDF sampling; deterministic
        for a fixed seed."""
        flat = np.clip(self.probabilities.reshape(-1), 0.0, None)
        cdf = np.cumsum(flat)
        cdf /= cdf[-1]
        rng = np.random.default_rng(seed)
        picks = np.searchsorted(cdf, rng.random(int(n)), side="right")
        picks = np.minimum(picks, flat.size - 1)
        shape = self.probabilities.shape
        return [tuple(int(i) for i in np.unravel_index(p, shape)) for p in picks]


def state_of(subsystem, reference: ReferenceSystem) -> DensityOperator:
    """Reduced state of ``subsystem`` relative to ``reference``: the partial
    trace of the reference system's pure state over the remaining labels."""
    labels = reference.space.resolve(subsystem)
    return partial_trace(reference.state, labels)


def internal_state_candidates(
    subsystem,
    reference: ReferenceSystem,
    *,
    cutoff: float = CANDIDATE_CUTOFF,
) -> Spectrum:
    """Candidate internal states of ``subsystem``: eigenstates of its
    reduced state with eigenvalue above ``cutoff``, sorted descending.

    Zero-weight eigenstates are dropped (they are never realized and their
    basis is arbitrary in the kernel).  The degeneracy flag covers the
    retained eigenvalues plus the gap down to the largest dropped one, so
    it is set exactly when the retained candidate basis is ambiguous.
    Requires an isolated reference system.
    """
    if not reference.isolated:
        raise NotIsolated("internal-state candidates are defined only for isolated reference systems")
    spectrum = eig_hermitian(state_of(subsystem, reference))
    kept = [(value, state) for value, state in spectrum.pairs if value > cutoff]
    if not kept:
        raise ValueError("reduced state has no eigenvalue above the cutoff")
    values = [value for value, _ in kept]
    gaps = [values[i] - values[i + 1] for i in range(len(values) - 1)]
    dropped = [value for value, _ in spectrum.pairs if value <= cutoff]
    if dropped:
        gaps.append(values[-1] - max(dropped))
    degenerate = bool(gaps and min(gaps) < spectrum.gap_threshold)
    return Spectrum(pairs=tuple(kept), degenerate=degenerate, gap_threshold=spectrum.gap_threshold)


def _normalized_systems(systems, reference: ReferenceSystem) -> list[tuple[str, ...]]:
    out = []
    for system in systems:
        labels = reference.space.resolve(system)
        if not labels:
            raise UnknownLabel("a subsystem must name at least one label")
        out.append(labels)
    return out


def _check_disjoint(systems: list[tuple[str, ...]]) -> None:
    for i in range(len(systems)):
        for j in range(i + 1, len(systems)):
            overlap = sorted(set(systems[i]) & set(systems[j]))
            if overlap:
                raise NonDisjointSystems(
                    f"systems {'+'.join(systems[i])} and {'+'.join(systems[j])} share "
                    f"labels {overlap}; no joint probability is defined for them",
                    overlap=overlap,
                )


def _candidate_states(
    systems: list[tuple[str, ...]],
    reference: ReferenceSystem,
    candidates,
) -> list[tuple[StateVector, ...]]:
    """Candidate state lists per system, either spectral or caller-supplied.

    Supplied candidates must live on the system's labels (registry order),
    be orthonormal, and be eigenstates of the system's reduced state; this
    is how scenario code pins a basis when the spectrum is degenerate.
    """
    if candidates is None:
        return [internal_state_candidates(system, reference).states for system in systems]
    if len(candidates) != len(systems):
        raise ValueError("candidates must align one list per system")
    out = []
    for system, states in zip(systems, candidates):
        sub = reference.space.restrict(system)
        rho = state_of(system, reference).matrix
        states = tuple(states)
        if not states:
            raise ValueError(f"no candidates given for {'+'.join(system)}")
        for m, phi in enumerate(states):
            if phi.space != sub:
                raise ValueError(
                    f"candidate {m} for {'+'.join(system)} is on {phi.space!r}, expected {sub!r}"
                )
            image = rho @ phi.amplitudes
            weight = complex(np.vdot(phi.amplitudes, image))
            if float(np.linalg.norm(image - weight * phi.amplitudes)) > EIGENSTATE_TOL:
                raise ValueError(
                    f"candidate {m} for {'+'.join(system)} is not an eigenstate of the reduced state"
                )
            for other in states[:m]:
                if abs(phi.overlap(other)) > EIGENSTATE_TOL:
                    raise ValueError(f"candidates for {'+'.join(system)} are not orthogonal")
        out.append(states)
    return out


def joint_probability(
    assignment: CandidateAssignment | Sequence,
    reference: ReferenceSystem,
    *,
    candidates=None,
) -> float:
    """Probability that each listed subsystem's internal state is its
    assigned candidate: the trace of the product of candidate projectors
    against the reduced state of the union of the subsystems.

    The subsystems must be pairwise disjoint; any shared label raises
    :class:`NonDisjointSystems`.
    """
    if not isinstance(assignment, CandidateAssignment):
        assignment = CandidateAssignment.of(*assignment)
    dist = joint_distribution(assignment.systems, reference, candidates=candidates)
    for (system, count), index in zip(dist.axes, assignment.indices):
        # numpy would read a negative index from the end of the axis
        if not 0 <= index < count:
            raise IndexError(
                f"candidate index {index} out of range for {'+'.join(system)} ({count} candidates)"
            )
    return float(dist.probabilities[assignment.indices])


def joint_distribution(systems, reference: ReferenceSystem, *, candidates=None) -> JointDistribution:
    """Full probability table over all candidate index tuples of the given
    pairwise-disjoint subsystems.  Sums to 1 within 1e-10."""
    if not reference.isolated:
        raise NotIsolated("joint probabilities are defined only for isolated reference systems")
    systems = _normalized_systems(systems, reference)
    if not systems:
        raise ValueError("at least one subsystem is required")
    _check_disjoint(systems)
    states = _candidate_states(systems, reference, candidates)
    # amplitude tensor as (D_1, ..., D_k, R): system axes first, each
    # system's labels flattened in registry order, the rest last
    space = reference.space
    front = [space.axis(label) for system in systems for label in system]
    rest = [i for i in range(len(space.dims)) if i not in front]
    dims = tuple(options[0].space.dim for options in states)
    tensor = reference.state.amplitudes.reshape(space.dims).transpose(front + rest).reshape(dims + (-1,))
    # contracting the leading axis with each system's bras in turn leaves
    # (R, n_1, ..., n_k)
    for options in states:
        bras = np.array([phi.amplitudes for phi in options]).conj()
        tensor = np.tensordot(tensor, bras, axes=(0, 1))
    table = np.clip(np.sum(np.abs(tensor) ** 2, axis=0), 0.0, 1.0)
    axes = tuple((system, n) for system, n in zip(systems, table.shape))
    return JointDistribution(axes=axes, probabilities=table)


def sample_assignment(
    systems,
    reference: ReferenceSystem,
    seed: int,
    *,
    candidates=None,
) -> tuple[int, ...]:
    """Draw one candidate index tuple from the joint distribution;
    deterministic for a fixed seed."""
    return joint_distribution(systems, reference, candidates=candidates).sample(seed, 1)[0]
