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
probability is defined for them.  A batched reference state gives a batch
of tables; spectral candidates, single joint probabilities and sampling
take a single state and raise ``ValueError`` on a batch.

A table is sampled by one seeded inverse-CDF draw of flat cell indices,
read either as index tuples (:meth:`JointDistribution.sample`) or counted
per cell into empirical frequencies (:meth:`JointDistribution.frequencies`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonDisjointSystems, NotIsolated, UnknownLabel
from .linalg import (
    DEGENERACY_GAP,
    DensityOperator,
    Spectrum,
    SpaceRegistry,
    StateVector,
    eig_hermitian,
    partial_trace,
    _as_label_tuple,
    _check,
    _single,
)

CANDIDATE_CUTOFF = 1e-12
PROB_CLAMP = 1e-12
TABLE_SUM_TOL = 1e-10
EIGENSTATE_TOL = 1e-10


def _probability_table(values, shape: tuple[int, ...]) -> np.ndarray:
    """Read-only float copy of a probability table of ``shape``, or of a
    batch of them (one leading axis), whose entries are finite and >= -1e-12
    and sum to 1 within 1e-10 in every member."""
    table = np.asarray(values, dtype=float)
    batched = table.ndim == len(shape) + 1
    if table.shape[batched:] != shape or not table.size:
        raise ValueError(f"table shape {table.shape} matches neither axes {shape} nor a batch of them")
    # one value per member
    members = tuple(range(batched, table.ndim))
    finite = np.isfinite(table)
    _check(finite.all(axis=members), ValueError, lambda i: f"probability {float(table[i][~finite[i]][0])!r} is not finite")
    with np.errstate(over="ignore"):  # finite entries may still overflow the sum to inf, which fails
        low, total = table.min(axis=members), table.sum(axis=members)
    _check(low >= -PROB_CLAMP, ValueError, lambda i: f"negative probability {low[i]:.3e} below -{PROB_CLAMP}")
    ok = np.abs(total - 1.0) <= TABLE_SUM_TOL
    _check(ok, ValueError, lambda i: f"table sums to {float(total[i])!r}, off from 1 by over {TABLE_SUM_TOL}")
    table = table.copy()
    table.flags.writeable = False
    return table


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
    """Dense probability table over candidate indices of several subsystems,
    or a batch of them (one leading axis).

    ``axes`` pairs each subsystem's labels with its candidate count; the
    table axis order matches.  Entries are >= -1e-12 and sum to 1 within
    1e-10 (checked per member at construction).
    """

    axes: tuple[tuple[tuple[str, ...], int], ...]
    probabilities: np.ndarray

    def __post_init__(self):
        shape = tuple(count for _, count in self.axes)
        object.__setattr__(self, "probabilities", _probability_table(self.probabilities, shape))

    @property
    def batch(self) -> int | None:
        return len(self.probabilities) if self.probabilities.ndim > len(self.axes) else None

    def marginal(self, keep_axes: Sequence[int]) -> "JointDistribution":
        """Sum out every axis not listed; kept axes stay in ascending order."""
        _single("JointDistribution.marginal", self)
        keep = sorted(set(int(i) for i in keep_axes))
        if not keep or any(i < 0 or i >= len(self.axes) for i in keep):
            raise ValueError(f"keep_axes {keep_axes} invalid for {len(self.axes)} axes")
        drop = tuple(i for i in range(len(self.axes)) if i not in keep)
        table = self.probabilities.sum(axis=drop) if drop else self.probabilities
        return JointDistribution(tuple(self.axes[i] for i in keep), table)

    def _draws(self, seed: int, n: int) -> np.ndarray:
        """Flat cell indices of ``n`` inverse-CDF draws; deterministic for a
        fixed seed."""
        for name, value in (("seed", seed), ("n", n)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer (not a bool), got {value!r}")
        flat = np.clip(self.probabilities.reshape(-1), 0.0, None)
        cdf = np.cumsum(flat)
        cdf /= cdf[-1]
        rng = np.random.default_rng(seed)
        picks = np.searchsorted(cdf, rng.random(int(n)), side="right")
        return np.minimum(picks, flat.size - 1)

    def sample(self, seed: int, n: int = 1) -> list[tuple[int, ...]]:
        """Draw ``n`` index tuples by inverse-CDF sampling; deterministic
        for a fixed seed."""
        _single("JointDistribution.sample", self)
        indices = np.unravel_index(self._draws(seed, n), self.probabilities.shape)
        return list(zip(*(axis.tolist() for axis in indices)))

    def frequencies(self, seed: int, n: int) -> np.ndarray:
        """Share of ``n`` draws that land in each cell, a table shaped like
        ``probabilities``; the draws are those of ``sample(seed, n)``,
        counted without building their index tuples."""
        _single("JointDistribution.frequencies", self)
        picks = self._draws(seed, n)
        if not picks.size:
            raise ValueError("n must be at least 1 to take frequencies, got 0")
        counts = np.bincount(picks, minlength=self.probabilities.size)
        return counts.reshape(self.probabilities.shape) / float(n)


def state_of(subsystem, reference: ReferenceSystem) -> DensityOperator:
    """Reduced state of ``subsystem`` relative to ``reference``: the partial
    trace of the reference system's pure state over the remaining labels."""
    labels = reference.space.resolve(subsystem)
    return partial_trace(reference.state, labels)


def internal_state_candidates(subsystem, reference: ReferenceSystem) -> Spectrum:
    """Candidate internal states of ``subsystem``: eigenstates of its
    reduced state with eigenvalue above ``CANDIDATE_CUTOFF``, sorted
    descending.

    Zero-weight eigenstates are dropped (they are never realized and their
    basis is arbitrary in the kernel).  The degeneracy flag covers the
    retained eigenvalues plus the gap down to the largest dropped one, so
    it is set exactly when the retained candidate basis is ambiguous.
    Requires an isolated reference system.
    """
    if not reference.isolated:
        raise NotIsolated("internal-state candidates are defined only for isolated reference systems")
    _single("internal_state_candidates", reference.state)
    spectrum = eig_hermitian(state_of(subsystem, reference))
    kept = [(value, state) for value, state in spectrum.pairs if value > CANDIDATE_CUTOFF]
    if not kept:
        raise ValueError("reduced state has no eigenvalue above the cutoff")
    values = [value for value, _ in kept]
    gaps = [values[i] - values[i + 1] for i in range(len(values) - 1)]
    dropped = [value for value, _ in spectrum.pairs if value <= CANDIDATE_CUTOFF]
    if dropped:
        gaps.append(values[-1] - max(dropped))
    degenerate = bool(gaps and min(gaps) < DEGENERACY_GAP)
    return Spectrum(pairs=tuple(kept), degenerate=degenerate)


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

    Supplied candidates must be single states on the system's labels
    (registry order), be orthonormal, and be eigenstates of the system's
    reduced state in every member; this is how scenario code pins a basis
    when the spectrum is degenerate.
    """
    if candidates is None:
        return [internal_state_candidates(system, reference).states for system in systems]
    if len(candidates) != len(systems):
        raise ValueError("candidates must align one list per system")
    out = []
    for system, states in zip(systems, candidates):
        rho = partial_trace(reference.state, system)
        name = "+".join(system)
        states = tuple(states)
        if not states:
            raise ValueError(f"no candidates given for {name}")
        for k, phi in enumerate(states):
            if phi.space != rho.space or phi.batch is not None:
                raise ValueError(f"candidate {k} for {name} is on {phi.space!r}, expected one state on {rho.space!r}")
        kets = np.array([phi.amplitudes for phi in states]).T
        if not (np.abs(kets.conj().T @ kets - np.eye(len(states))) <= EIGENSTATE_TOL).all():
            raise ValueError(f"candidates for {name} are not orthogonal")
        images = rho.matrix @ kets
        weights = (kets.conj() * images).sum(axis=-2)
        ok = np.linalg.norm(images - weights[..., None, :] * kets, axis=-2) <= EIGENSTATE_TOL
        _check(ok.all(axis=-1), ValueError, lambda i: f"candidate {np.argmin(ok[i])} for {name} is not an eigenstate")
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
    _single("joint_probability", reference.state)
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
    pairwise-disjoint subsystems, ``(B, n_1, ..., n_k)`` for a batched
    reference state.  Sums to 1 within 1e-10."""
    if not reference.isolated:
        raise NotIsolated("joint probabilities are defined only for isolated reference systems")
    systems = _normalized_systems(systems, reference)
    if not systems:
        raise ValueError("at least one subsystem is required")
    _check_disjoint(systems)
    # amplitude tensor as (B, D_1, ..., D_k, R), B = 1 for a single state:
    # system axes first, each system's labels flattened in registry order
    space = reference.space
    front = [space.axis(label) for system in systems for label in system]
    rest = [i for i in range(len(space.dims)) if i not in front]
    tensor = reference.state.amplitudes.reshape(-1, *space.dims).transpose([0] + [1 + i for i in front + rest])
    tensor = tensor.reshape(len(tensor), *(space.restrict(system).dim for system in systems), -1)
    states = _candidate_states(systems, reference, candidates)
    # contracting axis 1 with each system's bras in turn leaves
    # (B, R, n_1, ..., n_k)
    for options in states:
        bras = np.array([phi.amplitudes for phi in options]).conj()
        tensor = np.tensordot(tensor, bras, axes=(1, 1))
    table = np.clip(np.sum(np.abs(tensor) ** 2, axis=1), 0.0, 1.0)
    axes = tuple((system, n) for system, n in zip(systems, table.shape[1:]))
    return JointDistribution(axes=axes, probabilities=table if reference.state.batch else table[0])


def sample_assignment(
    systems,
    reference: ReferenceSystem,
    seed: int,
    *,
    candidates=None,
) -> tuple[int, ...]:
    """Draw one candidate index tuple from the joint distribution;
    deterministic for a fixed seed."""
    _single("sample_assignment", reference.state)
    return joint_distribution(systems, reference, candidates=candidates).sample(seed, 1)[0]
