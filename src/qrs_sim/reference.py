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
from functools import lru_cache
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
    _check,
    _density_rules,
    _grouped,
    _is_index,
    _pure_reduced,
    _single,
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
    def space(self) -> SpaceRegistry:
        return self.state.space


@dataclass(frozen=True)
class JointDistribution:
    """Dense probability table over candidate indices of several subsystems,
    or a batch of them (one leading axis).

    ``axes`` pairs each subsystem's labels with its candidate count; the
    table axis order matches.  Entries are finite and >= -1e-12 and sum to
    1 within 1e-10 (checked per member at construction); ``probabilities``
    is a read-only float copy of the table given.
    """

    axes: tuple[tuple[tuple[str, ...], int], ...]
    probabilities: np.ndarray

    def __post_init__(self):
        shape = tuple(count for _, count in self.axes)
        table = np.asarray(self.probabilities, dtype=float)
        batched = table.ndim == len(shape) + 1
        if table.shape[batched:] != shape or not table.size:
            raise ValueError(f"table shape {table.shape} matches neither axes {shape} nor a batch of them")
        # one value per member; a sum within the tolerance is finite, so
        # every entry is, and the rules are walked only when one fails
        members = tuple(range(batched, table.ndim))
        with np.errstate(over="ignore", invalid="ignore"):  # a sum that is not finite fails
            low, total = table.min(axis=members), table.sum(axis=members)
        nonnegative, unit = low >= -PROB_CLAMP, np.abs(total - 1.0) <= TABLE_SUM_TOL
        if not (nonnegative & unit).all():
            finite = np.isfinite(table)
            _check(finite.all(axis=members), ValueError, lambda i: f"probability {float(table[i][~finite[i]][0])!r} is not finite")
            _check(nonnegative, ValueError, lambda i: f"negative probability {low[i]:.3e} below -{PROB_CLAMP}")
            _check(unit, ValueError, lambda i: f"table sums to {float(total[i])!r}, off from 1 by over {TABLE_SUM_TOL}")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "probabilities", table)

    @property
    def batch(self) -> int | None:
        return len(self.probabilities) if self.probabilities.ndim > len(self.axes) else None

    def marginal(self, keep_axes: Sequence[int]) -> "JointDistribution":
        """Sum out every axis not listed; kept axes stay in ascending order."""
        _single("JointDistribution.marginal", self)
        keep = list(keep_axes) if np.iterable(keep_axes) else None
        if not keep or not all(_is_index(i) and 0 <= i < len(self.axes) for i in keep):
            raise ValueError(f"keep_axes {keep_axes} invalid for {len(self.axes)} axes")
        keep = sorted(set(keep))
        drop = tuple(i for i in range(len(self.axes)) if i not in keep)
        table = self.probabilities.sum(axis=drop) if drop else self.probabilities
        return JointDistribution(tuple(self.axes[i] for i in keep), table)

    def _draws(self, seed: int, n: int) -> np.ndarray:
        """Flat cell indices of ``n`` inverse-CDF draws; deterministic for a
        fixed seed."""
        for name, value in (("seed", seed), ("n", n)):
            if not _is_index(value) or value < 0:
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
    return partial_trace(reference.state, subsystem)


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
    values = spectrum.eigenvalues
    kept = int((values > CANDIDATE_CUTOFF).sum())
    if not kept:
        raise ValueError("reduced state has no eigenvalue above the cutoff")
    # descending order: the kept values and the largest dropped one are a prefix
    gaps = -np.diff(values[: kept + 1])
    return Spectrum(values[:kept], spectrum.states[:kept], bool((gaps < DEGENERACY_GAP).any()))


def _listed(values, name: str) -> tuple:
    """``values`` as a tuple; ``ValueError`` naming ``name`` if it is not iterable."""
    if not np.iterable(values):
        raise ValueError(f"{name} must be an iterable, got {values!r}")
    return tuple(values)


def _normalized_systems(systems, reference: ReferenceSystem) -> list[tuple[str, ...]]:
    out = []
    for system in _listed(systems, "systems"):
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


def _candidate_kets(
    systems: list[tuple[str, ...]],
    reference: ReferenceSystem,
    candidates,
) -> list[np.ndarray]:
    """Candidate kets per system as ``(d, n)`` columns, spectral or caller-supplied.

    Supplied candidates must be single states on the system's labels
    (registry order), be orthonormal, and be eigenstates of the system's
    reduced state in every member; this is how scenario code pins a basis
    when the spectrum is degenerate.  The list checks run first, system by
    system; the rest take one stacked pass per ket shape
    (``_check_supplied``).
    """
    if candidates is None:
        candidates = [internal_state_candidates(system, reference).states for system in systems]
        return [np.array([phi.amplitudes for phi in states]).T for states in candidates]
    candidates = _listed(candidates, "candidates")
    if len(candidates) != len(systems):
        raise ValueError("candidates must align one list per system")
    space, out = reference.space, []
    for system, states in zip(systems, candidates):
        entries = tuple(space.entries[space.axis(label)] for label in system)
        name = "+".join(system)
        states = _listed(states, f"candidates for {name}")
        if not states:
            raise ValueError(f"no candidates given for {name}")
        for k, phi in enumerate(states):
            if not isinstance(phi, StateVector):
                raise ValueError(f"candidate {k} for {name} must be a StateVector, got {phi!r}")
            if phi.space.entries != entries or phi.batch is not None:
                raise ValueError(f"candidate {k} for {name} is on {phi.space!r}, expected one state on {space.restrict(system)!r}")
        out.append(np.array([phi.amplitudes for phi in states]).T)
    _check_supplied(systems, reference.state, out)
    return out


def _check_supplied(systems: list[tuple[str, ...]], state: StateVector, kets: list[np.ndarray]) -> None:
    """Refuse supplied candidate ``kets`` that are not orthonormal
    eigenstates of their system's reduced state in every member.

    All systems whose kets have one shape ``(d, n)`` share one pass on a
    leading system axis: their reduced states over all members come from
    one ``_pure_reduced`` stack and meet the density-operator rules in one
    ``_density_rules`` call; the Gram verdict of their ket stack, which no
    state changes, is taken once per stack (``_orthonormal``), and each
    system's kets meet its reduced state in every member in one product.
    Only when some check fails are the systems walked in the order given,
    reading each one's row of those results: its density rules first, then
    orthogonality, then the eigenstate rule, to raise for the first fault,
    naming the state's batch member that fails.
    """
    lead = (state.batch,) if state.batch else ()
    passed, rows = True, {}
    for d, n in {columns.shape for columns in kets}:
        group = [j for j, columns in enumerate(kets) if columns.shape == (d, n)]
        rho = _pure_reduced(state, [systems[j] for j in group], d).reshape(len(group), *lead, d, d)
        stack = np.array([kets[j] for j in group])
        orthonormal = _orthonormal(stack.tobytes(), stack.shape)
        images = (rho.reshape(len(group), -1, d) @ stack).reshape(*rho.shape[:-1], n)
        stack = stack.reshape(len(group), *(1,) * len(lead), d, n)
        weights = (stack.conj() * images).sum(axis=-2)
        eigen = np.linalg.norm(images - weights[..., None, :] * stack, axis=-2) <= EIGENSTATE_TOL
        density = _density_rules(rho)
        passed &= all(ok.all() for ok, _, _ in density) and all(orthonormal) and eigen.all()
        rows.update((j, (row, density, orthonormal, eigen)) for row, j in enumerate(group))
    if passed:
        return
    for j, system in enumerate(systems):
        row, density, orthonormal, eigen = rows[j]
        name = "+".join(system)
        for ok, error, message in density:
            _check(ok[row], error, lambda i: message((row, i) if lead else row))
        if not orthonormal[row]:
            raise ValueError(f"candidates for {name} are not orthogonal")
        ok = eigen[row]
        _check(ok.all(axis=-1), ValueError, lambda i: f"candidate {np.argmin(ok[i])} for {name} is not an eigenstate")


@lru_cache(maxsize=16)
def _orthonormal(bits: bytes, shape: tuple[int, ...]) -> tuple[bool, ...]:
    """Whether each ``(d, n)`` ket stack of a ``(G, d, n)`` complex array, given
    by its bytes and shape, is orthonormal within ``EIGENSTATE_TOL``."""
    stack = np.frombuffer(bits, dtype=complex).reshape(shape)
    return tuple((np.abs(stack.conj().swapaxes(-1, -2) @ stack - np.eye(shape[-1])) <= EIGENSTATE_TOL).all(axis=(-2, -1)).tolist())


def joint_probability(
    assignment: Sequence,
    reference: ReferenceSystem,
    *,
    candidates=None,
) -> float:
    """Probability that each listed subsystem's internal state is its
    assigned candidate: the trace of the product of candidate projectors
    against the reduced state of the union of the subsystems.

    ``assignment`` lists ``(labels, index)`` pairs, one per subsystem.  The
    subsystems must be pairwise disjoint; any shared label raises
    :class:`NonDisjointSystems`.
    """
    _single("joint_probability", reference.state)
    try:
        pairs = [(labels, index) for labels, index in assignment]
    except (TypeError, ValueError):
        raise ValueError(f"assignment must list (labels, index) pairs, got {assignment!r}") from None
    dist = joint_distribution([labels for labels, _ in pairs], reference, candidates=candidates)
    indices = tuple(index for _, index in pairs)
    for (system, count), index in zip(dist.axes, indices):
        if not _is_index(index):
            raise ValueError(f"candidate index for {'+'.join(system)} must be an integer (not a bool), got {index!r}")
        # numpy would read a negative index from the end of the axis
        if not 0 <= index < count:
            raise IndexError(
                f"candidate index {index} out of range for {'+'.join(system)} ({count} candidates)"
            )
    return float(dist.probabilities[indices])


def joint_distribution(systems, reference: ReferenceSystem, *, candidates=None) -> JointDistribution:
    """Full probability table over all candidate index tuples of the given
    pairwise-disjoint subsystems, ``(B, n_1, ..., n_k)`` for a batched
    reference state.  Sums to 1 within 1e-10."""
    return joint_distributions([systems], reference, candidates=candidates)[0]


def joint_distributions(tables, reference: ReferenceSystem, *, candidates=None) -> list[JointDistribution]:
    """The ``joint_distribution`` of each list of subsystems in ``tables``
    on one reference state.  Disjointness is a rule per table; the distinct
    systems, in order of first appearance, take one list of ``candidates``
    each, built or validated once for all the tables."""
    if not reference.isolated:
        raise NotIsolated("joint probabilities are defined only for isolated reference systems")
    tables = [_normalized_systems(systems, reference) for systems in _listed(tables, "tables")]
    for systems in tables:
        if not systems:
            raise ValueError("at least one subsystem is required")
        _check_disjoint(systems)
    distinct = list(dict.fromkeys(system for systems in tables for system in systems))
    bras_of = {system: kets.conj() for system, kets in zip(distinct, _candidate_kets(distinct, reference, candidates))}
    out = []
    for systems in tables:
        bras = [bras_of[system] for system in systems]
        # amplitude tensor as (B, D_1, ..., D_k, R), B = 1 for a single state:
        # system axes first, each system's labels flattened in registry order
        tensor = _grouped(reference.state, [label for system in systems for label in system])
        tensor = tensor.reshape(len(tensor), *(len(columns) for columns in bras), -1)
        # axis 1 moved last meets each system's bras in one 2-D product,
        # which leaves (B, R, n_1, ..., n_k)
        for columns in bras:
            moved = tensor.transpose(0, *range(2, tensor.ndim), 1)
            tensor = (moved.reshape(-1, len(columns)) @ columns).reshape(*moved.shape[:-1], -1)
        table = np.clip(np.sum(np.abs(tensor) ** 2, axis=1), 0.0, 1.0)
        axes = tuple((system, n) for system, n in zip(systems, table.shape[1:]))
        out.append(JointDistribution(axes=axes, probabilities=table if reference.state.batch else table[0]))
    return out


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
