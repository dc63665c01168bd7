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

A config whose angles are tuples is a batch of settings: every route, the
ancilla extension too, and so ``chsh`` over a whole grid, evaluates all of
them in one call; a leading array axis always means the settings, and a
single setting is the same code without it.

Outcome sign convention for correlators: outcome 1 maps to +1, outcome 2
to -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NotNormalized
from .linalg import (
    Operator,
    SpaceRegistry,
    StateVector,
    _check,
    basis_state,
    partial_trace,
)
from .reference import JointDistribution, ReferenceSystem, joint_distribution, joint_distributions

ROOT_HALF = 1.0 / math.sqrt(2.0)

P1, M1, P2, M2, A1, A2 = "P1", "M1", "P2", "M2", "A1", "A2"
SPIN_DIM = 2
POINTER_DIM = 3
READY = 0

#: spin basis index assigned to each particle's candidate l = 1, 2:
#: particle 1 uses (up, down), particle 2 uses (down, up)
PAIR_BASIS = {1: (0, 1), 2: (1, 0)}

COEFF_TOL = 1e-12
#: the part of COEFF_TOL the coefficient rule keeps back: a run's later norm and trace
#: sums round from |a|^2 + |b|^2 by under 640 eps (README), so each meets its 1e-12 rule
COEFF_MARGIN = 1024 * np.finfo(float).eps

#: the axes of every device-device table: outcome j of M1, outcome k of M2
DEVICE_AXES = (((M1,), 2), ((M2,), 2))

#: (particle, pointer, ancilla) labels of each side
_SIDE_LABELS = {1: (P1, M1, A1), 2: (P2, M2, A2)}


@lru_cache(maxsize=None)
def _space(*entries: tuple[str, int]) -> SpaceRegistry:
    """The registry of a fixed label set, built once."""
    return SpaceRegistry(entries)


def particle_space(label: str) -> SpaceRegistry:
    return _space((label, SPIN_DIM))


def pointer_space(label: str) -> SpaceRegistry:
    return _space((label, POINTER_DIM))


@dataclass(frozen=True)
class ExperimentConfig:
    """Pair coefficients and measurement axes.

    The pair state is ``c_1 |up,down> + c_2 |down,up>`` with ``c_1 = a`` and
    ``c_2 = -b``; ``|a|^2 + |b|^2`` must be 1 within 1e-12 less
    ``COEFF_MARGIN``.  ``theta1`` and ``theta2`` are the measurement-axis
    angles from z, in radians, axes in the x-z plane; either may be a batch
    (a non-empty 1-D sequence, stored as a tuple), batches of equal length,
    a float pairing with every member.  Defaults give the maximally
    entangled pair at (0, pi/2).

    The coefficient rule (``_check_coefficients``, which the command line
    shares) runs on every config.  Each side's angles are looked up in the
    angle cache by their bytes and shape as the config is built; the shape
    and finiteness rules run only while that entry is not yet marked as
    checked, and always before any cos or sin of the angles.  The rows are
    derived from the config's own angle array on first use.
    """

    a: complex = ROOT_HALF
    b: complex = ROOT_HALF
    theta1: float | tuple[float, ...] = 0.0
    theta2: float | tuple[float, ...] = math.pi / 2

    def __post_init__(self):
        _check_coefficients(self.a, self.b)
        lookups = []
        for name in ("theta1", "theta2"):
            value = getattr(self, name)
            try:
                angles = np.array(value, dtype=float)
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a float or a 1-D sequence of floats, got {value!r}") from None
            work = _angle_work((angles.tobytes(), angles.shape))
            # the rules run once per entry, and before any cos or sin of these angles
            if not work.checked:
                if angles.ndim > 1 or not angles.size:
                    raise ValueError(f"{name} must be a float or a non-empty 1-D sequence, got shape {angles.shape}")
                _check(np.isfinite(angles), ValueError, lambda i: f"{name} = {float(angles[i])!r} is not finite")
                work.checked = True
            object.__setattr__(self, name, tuple(angles.tolist()) if angles.ndim else float(angles))
            lookups.append((work, angles))
        if len({len(t) for t in (self.theta1, self.theta2) if isinstance(t, tuple)}) > 1:
            raise ValueError(f"theta1 and theta2 batches differ in length ({len(self.theta1)}, {len(self.theta2)})")
        object.__setattr__(self, "_lookups", lookups)

    @property
    def coefficients(self) -> tuple[complex, complex]:
        """(c_1, c_2) = (a, -b)."""
        return (complex(self.a), -complex(self.b))

    @property
    def batch(self) -> int | None:
        """Number of settings in a batched config, None for one setting."""
        return next((len(t) for t in (self.theta1, self.theta2) if isinstance(t, tuple)), None)

    @cached_property
    def _sides(self) -> tuple[_AngleWork, _AngleWork]:
        """Each side's angle cache entry, its rows derived from the config's
        own angles on first use; not a field."""
        return tuple(_derived(work, angles) for work, angles in self._lookups)

    @property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each side's read-only spin rows."""
        return self._sides[0].rows, self._sides[1].rows

    @cached_property
    def _weights(self) -> np.ndarray:
        """|c_1|^2, |c_2|^2."""
        return np.abs(np.array(self.coefficients)) ** 2


def _check_coefficients(a: complex, b: complex) -> None:
    """The coefficient rule of every config and of the command line."""
    try:
        total = abs(a) ** 2 + abs(b) ** 2
    except OverflowError:
        raise NotNormalized(f"|a|^2 + |b|^2 overflows for a = {a!r}, b = {b!r}; it must be 1 within {COEFF_TOL}") from None
    if not abs(total - 1.0) <= COEFF_TOL - COEFF_MARGIN:
        margin = f" less a rounding margin of {COEFF_MARGIN:.3g}" if abs(total - 1.0) <= COEFF_TOL else ""
        raise NotNormalized(f"|a|^2 + |b|^2 = {total!r} must be 1 within {COEFF_TOL}{margin}")


def _side(which: int) -> int:
    if which not in (1, 2):
        raise ValueError(f"side must be 1 or 2, got {which!r}")
    return which


def entangled_pair_state(config: ExperimentConfig) -> StateVector:
    """The two-particle state sum_l c_l |phi_{1,l}> |phi_{2,l}> on (P1, P2)."""
    amps = np.zeros((SPIN_DIM, SPIN_DIM), dtype=complex)
    amps[PAIR_BASIS[1], PAIR_BASIS[2]] = config.coefficients
    return StateVector(_space((P1, SPIN_DIM), (P2, SPIN_DIM)), amps.reshape(-1))


def _spin_rows(theta) -> np.ndarray:
    """The rows xi_1, xi_2 of ``spin_eigenstates``, (..., 2, 2) over ``theta``."""
    half = np.asarray(theta, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    xi = np.empty((*half.shape, 2, 2))
    xi[..., 0, 0], xi[..., 0, 1], xi[..., 1, 0], xi[..., 1, 1] = c, s, -s, c
    return xi


def spin_eigenstates(theta, label: str = "P") -> tuple[StateVector, StateVector]:
    """Eigenstates of the spin along the axis tilted by ``theta`` from z in
    the x-z plane, with real amplitudes (batches for a batch of angles):

        xi_1 =  cos(theta/2) |up> + sin(theta/2) |down>
        xi_2 = -sin(theta/2) |up> + cos(theta/2) |down>
    """
    xi = _work(theta).rows
    space = particle_space(label)
    return StateVector(space, xi[..., 0, :]), StateVector(space, xi[..., 1, :])


def outcome_overlaps(theta, which: int) -> np.ndarray:
    """Real 2x2 matrix O with O[j-1, l-1] = <xi_j(theta) | phi_{which,l}>;
    a (B, 2, 2) stack for a batch of angles."""
    return _overlaps(_work(theta).rows, _side(which))


def _overlaps(rows: np.ndarray, which: int) -> np.ndarray:
    """``outcome_overlaps`` of a side's spin rows: a view, side 2's columns reversed."""
    return rows if which == 1 else rows[..., ::-1]


#: ``_SLOT_SWAPS[l]`` exchanges a pointer's ready slot 0 and slot ``l``
#: (``_SLOT_SWAPS[0]`` is the identity)
_SLOT_SWAPS = np.eye(POINTER_DIM)[[[0, 1, 2], [1, 0, 2], [2, 1, 0]]]


def _controlled_swap(amps: np.ndarray, complete: bool = False) -> np.ndarray:
    """``sum_l |s_l><s_l| (x) swap_l`` for the control states ``s_1, s_2,
    ...``, the rows of ``amps`` (shape (..., n, d) for a batch), where
    ``swap_l`` exchanges the ready and ``l``-th slots of a pointer appended
    after the controls' factors; ``complete`` adds the identity
    ``(I - sum_l |s_l><s_l|) (x) I`` on the complement."""
    lead, dim, rows = amps.shape[:-2], amps.shape[-1], amps.swapaxes(-1, -2)
    # blocks (..., a, b, l): one 2-D product with the shared swap stack sums over l
    blocks = rows[..., :, None, :] * rows.conj()[..., None, :, :]
    slots = list(range(1, amps.shape[-2] + 1))
    if complete:
        blocks = np.concatenate([blocks, (np.eye(dim) - blocks.sum(axis=-1))[..., None]], axis=-1)
        slots.append(READY)
    total = blocks.reshape(-1, len(slots)) @ _SLOT_SWAPS[slots].reshape(len(slots), -1)
    total = total.reshape(*lead, dim, dim, POINTER_DIM, POINTER_DIM).swapaxes(-3, -2)
    return total.reshape(*lead, dim * POINTER_DIM, dim * POINTER_DIM)


class _AngleWork:
    """An entry of the angle cache: one side's read-only spin ``rows``,
    once ``measurement_unitary`` builds it, its real coupling array ``swap``,
    and whether a config has found the angles meet its rules."""

    rows = swap = None
    checked = False


@lru_cache(maxsize=4)
def _angle_work(key: tuple[bytes, tuple[int, ...]]) -> _AngleWork:
    """The angle cache, keyed on the bytes and shape of a side's float angles,
    so -0.0 and 0.0, or 0.3 and (0.3,), differ.  A side's coupling depends on
    its own angles alone, so one entry serves every config and call at them."""
    return _AngleWork()


def _work(theta) -> _AngleWork:
    """The angle cache's entry of ``theta`` (an entry passes through), with its rows."""
    if isinstance(theta, _AngleWork):
        return theta
    angles = np.asarray(theta, dtype=float)
    return _derived(_angle_work((angles.tobytes(), angles.shape)), angles)


def _derived(work: _AngleWork, angles: np.ndarray) -> _AngleWork:
    """``work``, its rows derived from ``angles``, its key's angles, on a first use."""
    if work.rows is None:
        work.rows = _spin_rows(angles)
        work.rows.setflags(write=False)
    return work


def measurement_unitary(theta, particle: str, pointer: str) -> Operator:
    """Unitary on particle + pointer implementing the measurement coupling
    |xi_j>|ready> -> |xi_j>|outcome_j>, completed by the controlled pointer
    swap ready <-> outcome_j conditioned on xi_j (identity on the remaining
    pointer state); a batch of unitaries for a batch of angles."""
    work = _work(theta)
    if work.swap is None:
        work.swap = _controlled_swap(work.rows)
        work.swap.setflags(write=False)
    return Operator(_space((particle, SPIN_DIM), (pointer, POINTER_DIM)), work.swap)


def experiment_space() -> SpaceRegistry:
    return _space((P1, SPIN_DIM), (M1, POINTER_DIM), (P2, SPIN_DIM), (M2, POINTER_DIM))


@lru_cache(maxsize=None)
def pointer_ready_state(label: str) -> StateVector:
    """The ready basis state of a pointer device."""
    return basis_state(pointer_space(label), READY)


def evolve_experiment(config: ExperimentConfig) -> StateVector:
    """Final state on (P1, M1, P2, M2): the pair coefficients placed at both
    ready slots, then both local measurement unitaries, each contracted with
    its own particle and pointer axes (a batch for a batched config)."""
    start = np.zeros(experiment_space().dims, dtype=complex)
    start[PAIR_BASIS[1], READY, PAIR_BASIS[2], READY] = config.coefficients
    side1, side2 = config._sides
    moved = measurement_unitary(side1, P1, M1).apply(StateVector(experiment_space(), start.reshape(-1)))
    return measurement_unitary(side2, P2, M2).apply(moved)


def device_marginal(final_state: StateVector, which: int) -> np.ndarray:
    """Outcome distribution of one device: diagonal of its reduced state on
    the outcome pointer slots; (B, 2) for a batch of states."""
    rho = partial_trace(final_state, _SIDE_LABELS[_side(which)][1])
    return rho.matrix[..., [1, 2], [1, 2]].real


def correlation_entangled(config: ExperimentConfig) -> JointDistribution:
    """Interference closed form:
    P(j, k) = |sum_l c_l <xi1_j|phi_{1,l}> <xi2_k|phi_{2,l}>|^2."""
    o1, o2 = _overlaps(config._rows[0], 1), np.swapaxes(_overlaps(config._rows[1], 2), -1, -2)
    # one 2-D product with the shared diagonal; the second stays per member, as other forms change bits
    amp = (o1.reshape(-1, 2) @ np.diag(config.coefficients)).reshape(o1.shape) @ o2
    return JointDistribution(DEVICE_AXES, np.abs(amp) ** 2)


def correlation_factorized(config: ExperimentConfig) -> JointDistribution:
    """No-interference closed form:
    P(j, k) = sum_l |c_l|^2 |<xi1_j|phi_{1,l}>|^2 |<xi2_k|phi_{2,l}>|^2."""
    o1 = _overlaps(config._rows[0], 1) ** 2
    o2 = np.swapaxes(_overlaps(config._rows[1], 2), -1, -2) ** 2
    return JointDistribution(DEVICE_AXES, (o1.reshape(-1, 2) @ np.diag(config._weights)).reshape(o1.shape) @ o2)


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


def pointer_tables(state: StateVector, *groups) -> list[JointDistribution]:
    """Joint outcome tables on ``state``, one per group of pointer devices,
    one axis per pointer in the order given: the generic machinery with the
    analytic pointer outcome candidates injected, validated once per pointer."""
    pointers = dict.fromkeys(pointer for group in groups for pointer in group)
    return joint_distributions(
        [[(pointer,) for pointer in group] for group in groups],
        ReferenceSystem(state, isolated=True),
        candidates=[pointer_outcome_states(pointer) for pointer in pointers],
    )


def particle_candidate_states(which: int) -> tuple[StateVector, StateVector]:
    """The analytic pair-basis states phi_{which,1}, phi_{which,2}, built once per side."""
    return _pair_basis(_side(which))


@lru_cache(maxsize=None)
def _pair_basis(which: int) -> tuple[StateVector, StateVector]:
    space = particle_space(_SIDE_LABELS[which][0])
    i1, i2 = PAIR_BASIS[which]
    return basis_state(space, i1), basis_state(space, i2)


def correlation_direct(config: ExperimentConfig) -> JointDistribution:
    """Device-device table computed through the generic machinery: evolve
    the composite and contract it with the analytic outcome candidates of
    the two devices."""
    return pointer_tables(evolve_experiment(config), (M1, M2))[0]


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
    o1, o2 = _overlaps(config._rows[0], 1) ** 2, _overlaps(config._rows[1], 2) ** 2
    table = np.zeros(np.broadcast_shapes(o1.shape, o2.shape)[:-2] + (2, 2, 2, 2))
    for l in range(2):
        table[..., l, l, :, :] = config._weights[l] * (o1[..., :, l, None] * o2[..., None, :, l])
    return table


def ancilla_candidate_states(config: ExperimentConfig, which: int) -> tuple[StateVector, StateVector]:
    """The analytic internal-state candidates chi_l of particle + device
    after the measurement, built in one contraction:

        chi_l = sum_j <xi_j|phi_l> |xi_j>|outcome_j>

    Orthonormal for any setting; constructed directly because the reduced
    state is degenerate whenever |c_1| = |c_2| and an eigendecomposition
    could return any basis of the degenerate subspace.  Batched per setting.
    """
    space = _space(*zip(_SIDE_LABELS[_side(which)][:2], (SPIN_DIM, POINTER_DIM)))
    return tuple(StateVector(space, amps) for amps in np.moveaxis(_ancilla_chi(config, which), -2, 0))


def _ancilla_chi(config: ExperimentConfig, which: int) -> np.ndarray:
    """chi_1, chi_2 of ``ancilla_candidate_states`` as ``(..., 2, 6)``
    complex amplitudes over the config's settings, not yet norm-checked."""
    side, lead = _side(which), () if config.batch is None else (config.batch,)
    rows = config._rows[side - 1]
    chi = np.zeros((*lead, 2, SPIN_DIM, POINTER_DIM), dtype=complex)
    # a float side's products broadcast over the batch
    chi[..., 1:] = np.einsum("...jl,...js->...lsj", _overlaps(rows, side), rows)
    return chi.reshape(*lead, 2, -1)


def ancilla_recording_unitary(config: ExperimentConfig, which: int) -> Operator:
    """Unitary on particle + device + ancilla pointer that records which
    chi_l the particle+device pair is in: |chi_l>|ready> -> |chi_l>|slot_l>,
    completed by the controlled ready <-> slot_l pointer swap and the
    identity on the orthogonal complement of the chi states.  It leaves the
    chi states themselves untouched; batched per setting."""
    side, chi = _side(which), _ancilla_chi(config, which)
    space = _space(*zip(_SIDE_LABELS[side], (SPIN_DIM, POINTER_DIM, POINTER_DIM)))
    StateVector(_space(*space.entries[:2]), chi.reshape(-1, chi.shape[-1]))  # chi's norm check, one batch
    return Operator(space, _controlled_swap(chi, complete=True))


def ancilla_experiment(config: ExperimentConfig) -> StateVector:
    """Final state on (P1, M1, P2, M2, A1, A2) after both measurements and
    both ancilla recordings, each recording unitary contracted with its own
    particle, device and ancilla axes, from the evolved amplitudes placed at
    both ancillas' ready slots (a batch for a batched config)."""
    evolved = evolve_experiment(config).amplitudes
    start = np.zeros((*evolved.shape, POINTER_DIM, POINTER_DIM), dtype=complex)
    start[..., READY, READY] = evolved
    start = StateVector(_space(*experiment_space().entries, (A1, POINTER_DIM), (A2, POINTER_DIM)), start.reshape(*evolved.shape[:-1], -1))
    w1 = ancilla_recording_unitary(config, 1)
    w2 = ancilla_recording_unitary(config, 2)
    return w2.apply(w1.apply(start))


def ancilla_joint_distribution(config: ExperimentConfig) -> JointDistribution:
    """Four-system table over (A1, A2, M1, M2) on the ancilla-extended
    state, with the analytic pointer candidates injected; indexed
    (l1, l2, j, k) and equal to the intuitive would-be joint table."""
    return pointer_tables(ancilla_experiment(config), (A1, A2, M1, M2))[0]


def ancilla_device_table(config: ExperimentConfig) -> JointDistribution:
    """Device-device table on the ancilla-extended state: the recordings
    change it from the interference form to the factorized form."""
    return pointer_tables(ancilla_experiment(config), (M1, M2))[0]


def correlator(table: JointDistribution) -> float | np.ndarray:
    """E = sum_{jk} (-1)^{j+k} P(j, k) with outcomes valued +1, -1 (per
    member for a batch) of a table over two axes of two outcomes each."""
    if [count for _, count in table.axes] != [2, 2]:
        raise ValueError(f"a correlator takes two axes of two outcomes each, got axes {table.axes}")
    p = table.probabilities
    e = _expectation(p)
    return float(e) if p.ndim == 2 else e


def _expectation(p: np.ndarray) -> np.ndarray:
    """sum_{jk} (-1)^{j+k} p[..., j, k] over the last two axes."""
    return p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]


_TABLE_ROUTES = {
    "entangled": correlation_entangled,
    "factorized": correlation_factorized,
    "direct": correlation_direct,
}


def _chsh_angles(angles) -> tuple[np.ndarray, np.ndarray, bool]:
    """Each side's angles over the 4 B settings of a CHSH quadruple, in the
    order (alpha, beta), (alpha, beta'), (alpha', beta), (alpha', beta'),
    and whether every angle was a scalar."""
    alpha, alpha_p, beta, beta_p = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in angles))
    if alpha.ndim > 1:
        raise ValueError(f"CHSH angles must be floats or 1-D arrays, got shape {alpha.shape}")
    theta1 = np.concatenate([alpha, alpha, alpha_p, alpha_p], axis=None)
    theta2 = np.concatenate([beta, beta_p, beta, beta_p], axis=None)
    return theta1, theta2, alpha.ndim == 0


def _chsh_value(tables: list[JointDistribution], scalar: bool) -> list:
    """S of each route's table over the settings of ``_chsh_angles``, in
    one elementwise pass over the tables' stacked probabilities."""
    e = _expectation(np.array([table.probabilities for table in tables])).reshape(len(tables), 4, -1)
    s = e[:, 0] - e[:, 1] + e[:, 2] + e[:, 3]
    return s[:, 0].tolist() if scalar else list(s)


def chsh(kind: str, angles, a: complex = ROOT_HALF, b: complex = ROOT_HALF) -> float | np.ndarray:
    """CHSH combination S = E(alpha, beta) - E(alpha, beta') +
    E(alpha', beta) + E(alpha', beta') for the chosen correlation route.
    Each angle may be a float or an equal-length 1-D array of B values; all
    4 B settings form one config and take one route call, and S is a float
    for scalar angles, else an array.  It is ``_chsh_value`` of the route's
    table on the config of ``_chsh_angles``, so several routes can share
    one config and one pass."""
    if kind not in _TABLE_ROUTES:
        raise ValueError(f"kind must be one of {sorted(_TABLE_ROUTES)}, got {kind!r}")
    theta1, theta2, scalar = _chsh_angles(angles)
    return _chsh_value([_TABLE_ROUTES[kind](ExperimentConfig(a, b, theta1, theta2))], scalar)[0]
