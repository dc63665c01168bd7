"""Two-particle spin-correlation experiment built on the relative-state
calculus.

The scenario: a spin-1/2 pair prepared as ``a |up,down> - b |down,up>``
flies apart; each side is measured along an axis in the x-z plane tilted by
``theta_i`` from z, by a three-level pointer device (ready slot 0, outcome
slots 1 and 2).  The module produces the outcome-correlation tables through
three routes -- the amplitude-interference closed form, the product/no-
interference closed form, and a direct evaluation through the generic
joint-probability machinery on the evolved composite state -- plus the
ancilla extension in which extra devices record which basis state each
particle+device pair is in, and a CHSH evaluator.

A config whose angles are tuples is a batch of settings: every route, and
so ``chsh`` over a whole grid, evaluates all of them in one call through
batched unitaries, states and tables.  The ancilla functions take one.

Outcome sign convention for correlators: outcome 1 maps to +1, outcome 2
to -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotNormalized
from .linalg import (
    Operator,
    SpaceRegistry,
    StateVector,
    _check,
    _single,
    basis_state,
    partial_trace,
    tensor_product,
)
from .reference import JointDistribution, ReferenceSystem, joint_distribution

ROOT_HALF = 1.0 / math.sqrt(2.0)

P1, M1, P2, M2, A1, A2 = "P1", "M1", "P2", "M2", "A1", "A2"
SPIN_DIM = 2
POINTER_DIM = 3
READY = 0

#: spin basis index assigned to each particle's candidate l = 1, 2:
#: particle 1 uses (up, down), particle 2 uses (down, up)
PAIR_BASIS = {1: (0, 1), 2: (1, 0)}

COEFF_TOL = 1e-12
TABLE_SUM_TOL = 1e-10
ENTRY_TOL = 1e-12

TABLE_KINDS = ("entangled", "factorized", "direct", "empirical")


@lru_cache(maxsize=None)
def particle_space(label: str) -> SpaceRegistry:
    return SpaceRegistry([(label, SPIN_DIM)])


@lru_cache(maxsize=None)
def pointer_space(label: str) -> SpaceRegistry:
    return SpaceRegistry([(label, POINTER_DIM)])


@dataclass(frozen=True)
class ExperimentConfig:
    """Pair coefficients and measurement axes.

    The pair state is ``c_1 |up,down> + c_2 |down,up>`` with ``c_1 = a`` and
    ``c_2 = -b``; ``|a|^2 + |b|^2`` must be 1 within 1e-12.  ``theta1`` and
    ``theta2`` are the measurement-axis angles from z, in radians, axes in
    the x-z plane; either may be a batch (a non-empty 1-D sequence, stored
    as a tuple), batches of equal length, a float pairing with every member.
    Defaults give the maximally entangled pair at (0, pi/2).
    """

    a: complex = ROOT_HALF
    b: complex = ROOT_HALF
    theta1: float | tuple[float, ...] = 0.0
    theta2: float | tuple[float, ...] = math.pi / 2

    def __post_init__(self):
        try:
            total = abs(self.a) ** 2 + abs(self.b) ** 2
        except OverflowError:
            raise NotNormalized(
                f"|a|^2 + |b|^2 overflows for a = {self.a!r}, b = {self.b!r}"
            ) from None
        if not abs(total - 1.0) <= COEFF_TOL:
            raise NotNormalized(f"|a|^2 + |b|^2 = {total!r} deviates from 1 by more than {COEFF_TOL}")
        for name in ("theta1", "theta2"):
            value = getattr(self, name)
            try:
                angles = np.array(value, dtype=float)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a float or a 1-D sequence of floats, got {value!r}") from None
            if angles.ndim > 1 or not angles.size:
                raise ValueError(f"{name} must be a float or a non-empty 1-D sequence, got shape {angles.shape}")
            _check(np.isfinite(angles), ValueError, lambda i: f"{name} = {float(angles[i])!r} is not finite")
            object.__setattr__(self, name, tuple(angles.tolist()) if angles.ndim else float(angles))
        if len({len(t) for t in (self.theta1, self.theta2) if isinstance(t, tuple)}) > 1:
            raise ValueError(f"theta1 and theta2 batches differ in length ({len(self.theta1)}, {len(self.theta2)})")

    @property
    def coefficients(self) -> tuple[complex, complex]:
        """(c_1, c_2) = (a, -b)."""
        return (complex(self.a), -complex(self.b))

    @property
    def batch(self) -> int | None:
        """Number of settings in a batched config, None for one setting."""
        return next((len(t) for t in (self.theta1, self.theta2) if isinstance(t, tuple)), None)

    def theta(self, which: int) -> float | tuple[float, ...]:
        return self.theta1 if _side(which) == 1 else self.theta2


@dataclass(frozen=True)
class CorrelationTable:
    """2x2 outcome-probability table for one pair of axis settings, or a
    (B, 2, 2) batch of them."""

    settings: tuple
    table: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in TABLE_KINDS:
            raise ValueError(f"kind must be one of {TABLE_KINDS}, got {self.kind!r}")
        table = np.asarray(self.table, dtype=float)
        if table.ndim not in (2, 3) or table.shape[-2:] != (2, 2) or not table.size:
            raise ValueError(f"table shape {table.shape} must be (2, 2) or a batch (B, 2, 2)")
        # one value per member; written so that NaN fails both guards
        low, total = table.min(axis=(-2, -1)), table.sum(axis=(-2, -1))
        _check(low >= -ENTRY_TOL, ValueError, lambda i: f"negative entry {low[i]:.3e}")
        _check(np.abs(total - 1.0) <= TABLE_SUM_TOL, ValueError, lambda i: f"table sums to {float(total[i])!r}")
        table = table.copy()
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


def _side(which: int) -> int:
    if which not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {which!r}")
    return which


def particle_label(which: int) -> str:
    return P1 if _side(which) == 1 else P2


def pointer_label(which: int) -> str:
    return M1 if _side(which) == 1 else M2


def ancilla_label(which: int) -> str:
    return A1 if _side(which) == 1 else A2


def entangled_pair_state(config: ExperimentConfig) -> StateVector:
    """The two-particle state sum_l c_l |phi_{1,l}> |phi_{2,l}> on (P1, P2)."""
    space = SpaceRegistry([(P1, SPIN_DIM), (P2, SPIN_DIM)])
    amps = np.zeros(space.dim, dtype=complex)
    for l, c in enumerate(config.coefficients, start=1):
        s1 = PAIR_BASIS[1][l - 1]
        s2 = PAIR_BASIS[2][l - 1]
        amps[s1 * SPIN_DIM + s2] = c
    return StateVector(space, amps)


def _spin_rows(theta) -> np.ndarray:
    """The rows xi_1, xi_2 of ``spin_eigenstates``, (..., 2, 2) over ``theta``."""
    half = np.asarray(theta, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    xi = np.array([[c, s], [-s, c]])
    return xi.transpose(*range(2, xi.ndim), 0, 1)


def spin_eigenstates(theta, label: str = "P") -> tuple[StateVector, StateVector]:
    """Eigenstates of the spin along the axis tilted by ``theta`` from z in
    the x-z plane, with real amplitudes (batches for a batch of angles):

        xi_1 =  cos(theta/2) |up> + sin(theta/2) |down>
        xi_2 = -sin(theta/2) |up> + cos(theta/2) |down>
    """
    xi = _spin_rows(theta)
    space = particle_space(label)
    return StateVector(space, xi[..., 0, :]), StateVector(space, xi[..., 1, :])


def outcome_overlaps(theta, which: int) -> np.ndarray:
    """Real 2x2 matrix O with O[j-1, l-1] = <xi_j(theta) | phi_{which,l}>;
    a (B, 2, 2) stack for a batch of angles."""
    return _spin_rows(theta)[..., list(PAIR_BASIS[_side(which)])]


#: ``_SLOT_SWAPS[l]`` exchanges a pointer's ready slot 0 and slot ``l``
#: (``_SLOT_SWAPS[0]`` is the identity)
_SLOT_SWAPS = np.eye(POINTER_DIM)[[[0, 1, 2], [1, 0, 2], [2, 1, 0]]]


def _controlled_swap(amps: np.ndarray, complete: bool = False) -> np.ndarray:
    """``sum_l |s_l><s_l| (x) swap_l`` for the control states ``s_1, s_2,
    ...``, the rows of ``amps`` (shape (..., n, d) for a batch), where
    ``swap_l`` exchanges the ready and ``l``-th slots of a pointer appended
    after the controls' factors; ``complete`` adds the identity
    ``(I - sum_l |s_l><s_l|) (x) I`` on the complement."""
    dim = amps.shape[-1]
    blocks = amps[..., :, None] * amps.conj()[..., None, :]
    slots = list(range(1, amps.shape[-2] + 1))
    if complete:
        blocks = np.concatenate([blocks, np.eye(dim) - blocks.sum(axis=-3, keepdims=True)], axis=-3)
        slots.append(READY)
    total = np.einsum("...lab,lcd->...acbd", blocks, _SLOT_SWAPS[slots])
    return total.reshape(*amps.shape[:-2], dim * POINTER_DIM, dim * POINTER_DIM)


def measurement_unitary(theta, particle: str, pointer: str) -> Operator:
    """Unitary on particle + pointer implementing the measurement coupling
    |xi_j>|ready> -> |xi_j>|outcome_j>, completed by the controlled pointer
    swap ready <-> outcome_j conditioned on xi_j (identity on the remaining
    pointer state); a batch of unitaries for a batch of angles."""
    space = SpaceRegistry([(particle, SPIN_DIM), (pointer, POINTER_DIM)])
    return Operator(space, _controlled_swap(_spin_rows(theta)))


@lru_cache(maxsize=None)
def experiment_space() -> SpaceRegistry:
    return SpaceRegistry([(P1, SPIN_DIM), (M1, POINTER_DIM), (P2, SPIN_DIM), (M2, POINTER_DIM)])


def evolve_experiment(config: ExperimentConfig) -> StateVector:
    """Final state on (P1, M1, P2, M2): both local measurement unitaries
    applied to the pair state with both pointers ready, each contracted
    with its own particle and pointer axes (a batch for a batched config)."""
    start = tensor_product(
        entangled_pair_state(config),
        basis_state(pointer_space(M1), READY),
        basis_state(pointer_space(M2), READY),
    ).reorder(experiment_space().labels)
    moved = measurement_unitary(config.theta1, P1, M1).apply(start)
    return measurement_unitary(config.theta2, P2, M2).apply(moved)


def device_marginal(final_state: StateVector, which: int) -> np.ndarray:
    """Outcome distribution of one device: diagonal of its reduced state on
    the outcome pointer slots; (B, 2) for a batch of states."""
    rho = partial_trace(final_state, pointer_label(which))
    return rho.matrix[..., [1, 2], [1, 2]].real


def correlation_entangled(config: ExperimentConfig) -> CorrelationTable:
    """Interference closed form:
    P(j, k) = |sum_l c_l <xi1_j|phi_{1,l}> <xi2_k|phi_{2,l}>|^2."""
    o1 = outcome_overlaps(config.theta1, 1)
    o2 = np.swapaxes(outcome_overlaps(config.theta2, 2), -1, -2)
    amp = o1 @ np.diag(config.coefficients) @ o2
    return CorrelationTable((config.theta1, config.theta2), np.abs(amp) ** 2, "entangled")


def correlation_factorized(config: ExperimentConfig) -> CorrelationTable:
    """No-interference closed form:
    P(j, k) = sum_l |c_l|^2 |<xi1_j|phi_{1,l}>|^2 |<xi2_k|phi_{2,l}>|^2."""
    o1 = outcome_overlaps(config.theta1, 1) ** 2
    o2 = np.swapaxes(outcome_overlaps(config.theta2, 2), -1, -2) ** 2
    weights = np.abs(np.array(config.coefficients)) ** 2
    return CorrelationTable((config.theta1, config.theta2), o1 @ np.diag(weights) @ o2, "factorized")


@lru_cache(maxsize=None)
def pointer_outcome_states(label: str) -> tuple[StateVector, StateVector]:
    """The two outcome pointer basis states, in outcome order.

    These are the analytic internal-state candidates of a device after the
    measurement; they are injected into the joint-probability machinery so
    the table stays indexed by outcome even when the device's reduced state
    is degenerate and an eigendecomposition could not pin the basis.
    """
    space = pointer_space(label)
    return basis_state(space, 1), basis_state(space, 2)


def pointer_joint(state: StateVector, pointers) -> JointDistribution:
    """Joint outcome table of the given pointer devices on ``state``, one
    axis per pointer in the order given: the generic machinery with the
    analytic pointer outcome candidates injected."""
    return joint_distribution(
        [(pointer,) for pointer in pointers],
        ReferenceSystem(state, isolated=True),
        candidates=[pointer_outcome_states(pointer) for pointer in pointers],
    )


def particle_candidate_states(which: int) -> tuple[StateVector, StateVector]:
    """The analytic pair-basis states phi_{which,1}, phi_{which,2}."""
    space = particle_space(particle_label(which))
    i1, i2 = PAIR_BASIS[_side(which)]
    return basis_state(space, i1), basis_state(space, i2)


def correlation_direct(config: ExperimentConfig) -> CorrelationTable:
    """Device-device table computed through the generic machinery: evolve
    the composite and contract it with the analytic outcome candidates of
    the two devices."""
    dist = pointer_joint(evolve_experiment(config), (M1, M2))
    return CorrelationTable((config.theta1, config.theta2), dist.probabilities, "direct")


def pair_distribution(config: ExperimentConfig) -> JointDistribution:
    """Joint candidate table of the bare pair over ({P1}, {P2}), evaluated
    through the generic machinery with the analytic pair basis injected;
    equals diag(|c_1|^2, |c_2|^2)."""
    reference = ReferenceSystem(entangled_pair_state(config), isolated=True)
    return joint_distribution(
        [(P1,), (P2,)],
        reference,
        candidates=[particle_candidate_states(1), particle_candidate_states(2)],
    )


def intuitive_joint(config: ExperimentConfig) -> np.ndarray:
    """The would-be joint table over (l1, l2, j, k):
    |c_{l1}|^2 delta_{l1,l2} |<xi1_j|phi_{1,l1}>|^2 |<xi2_k|phi_{2,l2}>|^2.

    Its (j, k) marginal is the factorized table; the (l1, l2) marginal is
    diag(|c_1|^2, |c_2|^2).
    """
    o1 = outcome_overlaps(config.theta1, 1) ** 2
    o2 = outcome_overlaps(config.theta2, 2) ** 2
    weights = np.abs(np.array(config.coefficients)) ** 2
    table = np.zeros(np.broadcast_shapes(o1.shape, o2.shape)[:-2] + (2, 2, 2, 2))
    for l in range(2):
        table[..., l, l, :, :] = weights[l] * (o1[..., :, l, None] * o2[..., None, :, l])
    return table


def ancilla_candidate_states(config: ExperimentConfig, which: int) -> tuple[StateVector, StateVector]:
    """The analytic internal-state candidates chi_l of particle + device
    after the measurement, built in one contraction:

        chi_l = sum_j <xi_j|phi_l> |xi_j>|outcome_j>

    Orthonormal for any setting; constructed directly because the reduced
    state is degenerate whenever |c_1| = |c_2| and an eigendecomposition
    could return any basis of the degenerate subspace.  One setting only.
    """
    _single("ancilla_candidate_states", config)
    side = _side(which)
    space = SpaceRegistry([(particle_label(side), SPIN_DIM), (pointer_label(side), POINTER_DIM)])
    theta = config.theta(side)
    chi = np.einsum("jl,js,jm->lsm", outcome_overlaps(theta, side), _spin_rows(theta), np.eye(POINTER_DIM)[1:])
    return tuple(StateVector(space, amps) for amps in chi.reshape(2, -1))


def ancilla_recording_unitary(config: ExperimentConfig, which: int) -> Operator:
    """Unitary on particle + device + ancilla pointer that records which
    chi_l the particle+device pair is in: |chi_l>|ready> -> |chi_l>|slot_l>,
    completed by the controlled ready <-> slot_l pointer swap and the
    identity on the orthogonal complement of the chi states.  It leaves the
    chi states themselves untouched."""
    side = _side(which)
    labels = (particle_label(side), pointer_label(side), ancilla_label(side))
    space = SpaceRegistry(zip(labels, (SPIN_DIM, POINTER_DIM, POINTER_DIM)))
    chi = np.array([state.amplitudes for state in ancilla_candidate_states(config, side)])
    return Operator(space, _controlled_swap(chi, complete=True))


def ancilla_experiment(config: ExperimentConfig) -> StateVector:
    """Final state on (P1, M1, P2, M2, A1, A2) after both measurements and
    both ancilla recordings, each recording unitary contracted with its own
    particle, device and ancilla axes.  One setting only."""
    _single("ancilla_experiment", config)
    start = tensor_product(
        evolve_experiment(config),
        basis_state(pointer_space(A1), READY),
        basis_state(pointer_space(A2), READY),
    )
    w1 = ancilla_recording_unitary(config, 1)
    w2 = ancilla_recording_unitary(config, 2)
    return w2.apply(w1.apply(start))


def ancilla_joint_distribution(config: ExperimentConfig) -> JointDistribution:
    """Four-system table over (A1, A2, M1, M2) on the ancilla-extended
    state, with the analytic pointer candidates injected; indexed
    (l1, l2, j, k) and equal to the intuitive would-be joint table."""
    return pointer_joint(ancilla_experiment(config), (A1, A2, M1, M2))


def ancilla_device_table(config: ExperimentConfig) -> CorrelationTable:
    """Device-device table on the ancilla-extended state: the recordings
    change it from the interference form to the factorized form."""
    dist = pointer_joint(ancilla_experiment(config), (M1, M2))
    return CorrelationTable((config.theta1, config.theta2), dist.probabilities, "direct")


def correlator(table: CorrelationTable) -> float | np.ndarray:
    """E = sum_{jk} (-1)^{j+k} P(j, k) with outcomes valued +1, -1 (per
    member for a batch)."""
    p = table.table
    e = p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]
    return float(e) if p.ndim == 2 else e


_TABLE_ROUTES = {
    "entangled": correlation_entangled,
    "factorized": correlation_factorized,
    "direct": correlation_direct,
}


def chsh(kind: str, angles, a: complex = ROOT_HALF, b: complex = ROOT_HALF) -> float | np.ndarray:
    """CHSH combination S = E(alpha, beta) - E(alpha, beta') +
    E(alpha', beta) + E(alpha', beta') for the chosen correlation route.
    Each angle may be a float or an equal-length 1-D array of B values; all
    4 B settings take one route call, and S is a float for scalar angles,
    else an array."""
    if kind not in _TABLE_ROUTES:
        raise ValueError(f"kind must be one of {sorted(_TABLE_ROUTES)}, got {kind!r}")
    alpha, alpha_p, beta, beta_p = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in angles))
    if alpha.ndim > 1:
        raise ValueError(f"CHSH angles must be floats or 1-D arrays, got shape {alpha.shape}")
    theta1 = np.concatenate([alpha, alpha, alpha_p, alpha_p], axis=None)
    theta2 = np.concatenate([beta, beta_p, beta, beta_p], axis=None)
    e = np.reshape(correlator(_TABLE_ROUTES[kind](ExperimentConfig(a, b, theta1, theta2))), (4, -1))
    s = e[0] - e[1] + e[2] + e[3]
    return float(s[0]) if alpha.ndim == 0 else s
