"""Full-space reference routes the contraction kernel is checked against.

The package applies local operators and takes joint tables by contracting
axes of the pure-state amplitude tensor.  The routes below do the same work
the long way: an operator is widened to the full space by the identity on
every other factor, and a joint table is the trace of a product of embedded
candidate projectors against the reduced state of the union of the systems.
Sampling is likewise checked against drawing one index tuple per pick and
counting the tuples one at a time, and the spectral ordering against fixing
the phase of one column at a time and sorting each tied block in a loop.
The cut of a spectrum to internal-state candidates is checked against
listing the kept and dropped eigenvalues and their gaps, and the stacked
check of supplied candidates against checking one system at a time on its
own reduced density operator.

The last group keeps the routes that one 2-D product per shared operand and
placed start states replaced, as they were: the stacked apply, the
``tensordot`` contraction, the ``einsum`` controlled swap, the stacked
closed forms and the start states multiplied out by ``tensor_product`` and
``reorder`` (a registry permutation only these routes use).  The package
must match them byte for byte; a placed start matches by value only, since
the products sign some zeros differently.

The angle cache is checked against the coupling array derived afresh from
the angles on every call, as ``measurement_unitary`` built it before; the
cached Gram verdict of supplied candidates against the Gram product taken
afresh, as ``_check_supplied`` took it on every call; and the CHSH pass over
several routes' stacked tables against one ``correlator`` per table.

The decision rules keep the routes a bound-first screen replaced: the
density-operator rules with one ``eigvalsh`` over the whole stack, and the
probability-table rules walked one by one on every table.  They also keep
the per-member forms that whole-stack reductions replaced on a passing
stack: the density-operator rules on each member's residual and Gershgorin
bound, the eigenstate rule on each residual's ``np.linalg.norm``, and the
table rules on each member's min.  The package must reach the same
decisions with the same messages.
"""

import numpy as np

from qrs_sim import bell
from qrs_sim.errors import NotHermitian, NotIsolated, UnknownLabel
from qrs_sim.linalg import (
    DEGENERACY_GAP,
    HERMITIAN_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityOperator,
    Operator,
    SpaceRegistry,
    Spectrum,
    StateVector,
    _as_label_tuple,
    _check,
    _front,
    _grouped,
    _single,
    partial_trace,
    tensor_product,
)
from qrs_sim.reference import (
    CANDIDATE_CUTOFF,
    EIGENSTATE_TOL,
    PROB_CLAMP,
    TABLE_SUM_TOL,
    JointDistribution,
    ReferenceSystem,
    _candidate_kets,
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


def sample_by_picks(dist: JointDistribution, seed, n: int = 1) -> list[tuple[int, ...]]:
    """``n`` inverse-CDF draws, unravelled one pick at a time."""
    flat = np.clip(dist.probabilities.reshape(-1), 0.0, None)
    cdf = np.cumsum(flat)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    picks = np.searchsorted(cdf, rng.random(int(n)), side="right")
    picks = np.minimum(picks, flat.size - 1)
    shape = dist.probabilities.shape
    return [tuple(int(i) for i in np.unravel_index(p, shape)) for p in picks]


def count_draws(draws, shape, n: int) -> np.ndarray:
    """Empirical frequencies of index-tuple ``draws``, counted draw by draw."""
    counts = np.zeros(shape, dtype=float)
    for index in draws:
        counts[index] += 1.0
    return counts / float(n)


def _phase_fixed(column: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first largest-magnitude component is
    real and positive."""
    k = int(np.argmax(np.abs(column)))
    pivot = column[k]
    if pivot == 0:
        return column
    return column * (pivot.conjugate() / abs(pivot))


def _lex_key(column: np.ndarray) -> tuple[float, ...]:
    return tuple(part for c in column for part in (c.real, c.imag))


def eig_hermitian_by_columns(rho: DensityOperator) -> Spectrum:
    """``eig_hermitian`` one column at a time: the phase of each column is
    fixed on its own, and each block of eigenvalues within 1e-15 of the
    block's first value is sorted by the phase-fixed amplitudes in a loop."""
    _single("eig_hermitian", rho)
    mat = rho.matrix
    herm_residual = float(np.max(np.abs(mat - mat.conj().T)))
    if not herm_residual <= HERMITIAN_TOL:
        raise NotHermitian(f"Hermiticity residual {herm_residual:.3e} exceeds {HERMITIAN_TOL}")
    values, vectors = np.linalg.eigh(mat)
    order = list(np.argsort(-values, kind="stable"))
    values = values[order]
    columns = [_phase_fixed(vectors[:, i]) for i in order]
    i = 0
    while i < len(values):
        j = i + 1
        while j < len(values) and abs(values[j] - values[i]) <= 1e-15:
            j += 1
        if j - i > 1:
            block = sorted(columns[i:j], key=_lex_key)
            columns[i:j] = block
        i = j
    gaps = np.abs(np.diff(values))
    degenerate = bool(gaps.size and float(np.min(gaps)) < DEGENERACY_GAP)
    return Spectrum(values, tuple(StateVector(rho.space, column) for column in columns), degenerate)


def candidates_by_lists(spectrum: Spectrum) -> Spectrum:
    """``internal_state_candidates`` from a full spectrum, by lists: keep the
    pairs above the cutoff and flag degeneracy when a gap between kept
    eigenvalues, or from the last kept one down to the largest dropped one,
    is below ``DEGENERACY_GAP``."""
    pairs = list(zip(spectrum.eigenvalues, spectrum.states))
    kept = [(value, state) for value, state in pairs if value > CANDIDATE_CUTOFF]
    if not kept:
        raise ValueError("reduced state has no eigenvalue above the cutoff")
    values = [value for value, _ in kept]
    gaps = [values[i] - values[i + 1] for i in range(len(values) - 1)]
    dropped = [value for value, _ in pairs if value <= CANDIDATE_CUTOFF]
    if dropped:
        gaps.append(values[-1] - max(dropped))
    degenerate = bool(gaps and min(gaps) < DEGENERACY_GAP)
    return Spectrum(np.array(values), tuple(state for _, state in kept), degenerate)


def candidate_kets_by_system(systems, reference: ReferenceSystem, candidates) -> list[np.ndarray]:
    """Supplied candidates checked one system at a time: each system takes
    its own reduced ``DensityOperator``, Gram check and per-member
    eigen-residual, and its ``(d, n)`` kets are returned in system order."""
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
        out.append(kets)
    return out


def apply_stacked(op: Operator, state: StateVector) -> StateVector:
    """``Operator.apply`` with one stacked product per member, also for a
    batch of operators meeting a single state."""
    space = state.space
    perm = _front(space, op.space.labels)
    tensor = state.amplitudes.reshape(-1, *space.dims).transpose(perm)
    moved = op.matrix @ tensor.reshape(len(tensor), op.space.dim, -1)
    out = moved.reshape(-1, *tensor.shape[1:]).transpose(np.argsort(perm))
    return StateVector(space, out.reshape((-1, space.dim) if op.batch or state.batch else (space.dim,)))


def joint_table_by_tensordot(systems, reference: ReferenceSystem, *, candidates=None) -> np.ndarray:
    """The ``joint_distribution`` table, each system contracted by
    ``np.tensordot`` with its conjugated kets."""
    systems = _normalized_systems(systems, reference)
    kets = _candidate_kets(systems, reference, candidates)
    tensor = _grouped(reference.state, [label for system in systems for label in system])
    tensor = tensor.reshape(len(tensor), *(len(columns) for columns in kets), -1)
    for columns in kets:
        tensor = np.tensordot(tensor, columns.conj(), axes=(1, 0))
    table = np.clip(np.sum(np.abs(tensor) ** 2, axis=1), 0.0, 1.0)
    return table if reference.state.batch else table[0]


def controlled_swap_by_einsum(amps: np.ndarray, complete: bool = False) -> np.ndarray:
    """``bell._controlled_swap`` with the blocks as ``(..., l, a, b)`` and
    one ``einsum`` over the slots."""
    dim = amps.shape[-1]
    blocks = amps[..., :, None] * amps.conj()[..., None, :]
    slots = list(range(1, amps.shape[-2] + 1))
    if complete:
        blocks = np.concatenate([blocks, np.eye(dim) - blocks.sum(axis=-3, keepdims=True)], axis=-3)
        slots.append(bell.READY)
    total = np.einsum("...lab,lcd->...acbd", blocks, bell._SLOT_SWAPS[slots])
    return total.reshape(*amps.shape[:-2], dim * bell.POINTER_DIM, dim * bell.POINTER_DIM)


def measurement_swap_uncached(theta) -> np.ndarray:
    """The real array of ``bell.measurement_unitary(theta, ...)``, derived
    afresh from ``theta``, with no cache between."""
    return bell._controlled_swap(bell._spin_rows(theta))


def orthonormal_uncached(stack: np.ndarray) -> tuple[bool, ...]:
    """Whether each ``(d, n)`` ket stack of a ``(G, d, n)`` array is
    orthonormal within ``EIGENSTATE_TOL``, from its Gram product."""
    gram = stack.conj().swapaxes(-1, -2) @ stack
    return tuple((np.abs(gram - np.eye(stack.shape[-1])) <= EIGENSTATE_TOL).all(axis=(-2, -1)).tolist())


def chsh_value_by_correlator(table: JointDistribution, scalar: bool) -> float | np.ndarray:
    """S of one route's table over the settings of ``bell._chsh_angles``,
    from the ``correlator`` of that table."""
    e = np.reshape(bell.correlator(table), (4, -1))
    s = e[0] - e[1] + e[2] + e[3]
    return float(s[0]) if scalar else s


def ancilla_chi_by_einsum(config: bell.ExperimentConfig, which: int) -> np.ndarray:
    """The ``(..., 2, 6)`` complex chi amplitudes of one side, one pair per
    setting of the config, from one three-operand ``einsum``."""
    theta = np.broadcast_arrays(config.theta1, config.theta2)[which - 1]
    rows, pointers = bell._spin_rows(theta), np.eye(bell.POINTER_DIM)[1:]
    chi = np.einsum("...jl,...js,jm->...lsm", bell.outcome_overlaps(theta, which), rows, pointers)
    return chi.reshape(*theta.shape, 2, -1).astype(complex)


def closed_tables_stacked(config: bell.ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The interference and product tables with both 2x2 products stacked
    per member."""
    o1, o2 = bell.outcome_overlaps(config.theta1, 1), np.swapaxes(bell.outcome_overlaps(config.theta2, 2), -1, -2)
    weights = np.abs(np.array(config.coefficients)) ** 2
    return np.abs(o1 @ np.diag(config.coefficients) @ o2) ** 2, o1**2 @ np.diag(weights) @ o2**2


def reorder(state: StateVector, new_labels) -> StateVector:
    """The single ``state`` expressed on a permuted registry order."""
    _single("reorder", state)
    new_labels = _as_label_tuple(new_labels)
    if sorted(new_labels) != sorted(state.space.labels):
        raise UnknownLabel(f"{new_labels} is not a permutation of {state.space.labels}")
    tensor = _grouped(state, new_labels)
    return StateVector(SpaceRegistry(zip(new_labels, tensor.shape[1:])), tensor.reshape(-1))


def experiment_start_by_products(config: bell.ExperimentConfig) -> StateVector:
    """The pair state times both ready pointers, reordered to the experiment space."""
    pair = bell.entangled_pair_state(config)
    start = tensor_product(pair, bell.pointer_ready_state(bell.M1), bell.pointer_ready_state(bell.M2))
    return reorder(start, bell.experiment_space().labels)


def ancilla_start_by_products(evolved: StateVector) -> StateVector:
    """The evolved state times both ready ancillas."""
    return tensor_product(evolved, bell.pointer_ready_state(bell.A1), bell.pointer_ready_state(bell.A2))


def evolve_by_products(config: bell.ExperimentConfig) -> StateVector:
    """``bell.evolve_experiment`` from the product start, with the ``einsum``
    swaps and the stacked apply."""
    state = experiment_start_by_products(config)
    for side in (1, 2):
        particle, pointer, _ = bell._SIDE_LABELS[side]
        space = SpaceRegistry([(particle, bell.SPIN_DIM), (pointer, bell.POINTER_DIM)])
        state = apply_stacked(Operator(space, controlled_swap_by_einsum(bell._spin_rows((config.theta1, config.theta2)[side - 1]))), state)
    return state


def ancilla_experiment_by_products(config: bell.ExperimentConfig) -> StateVector:
    """``bell.ancilla_experiment`` from the product start, with the
    three-operand chi, the ``einsum`` swaps and the stacked apply."""
    state = ancilla_start_by_products(evolve_by_products(config))
    for side in (1, 2):
        space = SpaceRegistry(zip(bell._SIDE_LABELS[side], (bell.SPIN_DIM, bell.POINTER_DIM, bell.POINTER_DIM)))
        unitary = controlled_swap_by_einsum(ancilla_chi_by_einsum(config, side), complete=True)
        state = apply_stacked(Operator(space, unitary), state)
    return state


def density_rules_by_eigvalsh(mat: np.ndarray) -> list:
    """``linalg._density_rules`` with one ``eigvalsh`` over the whole stack;
    a matrix refused by either of the first two rules enters it as zeros."""
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        trace = np.trace(mat, axis1=-2, axis2=-1)
    hermitian, unit = herm <= HERMITIAN_TOL, np.abs(trace - 1.0) <= TRACE_TOL
    ok = hermitian & unit
    smallest = np.linalg.eigvalsh(mat if ok.all() else np.where(ok[..., None, None], mat, 0))[..., 0]
    return [
        (hermitian, NotHermitian, lambda i: f"Hermiticity residual {herm[i]:.3e} exceeds {HERMITIAN_TOL}"),
        (unit, ValueError, lambda i: f"trace {complex(trace[i])!r} deviates from 1 by more than {TRACE_TOL}"),
        (smallest >= -PSD_TOL, ValueError, lambda i: f"negative eigenvalue {smallest[i]:.3e} below -{PSD_TOL}"),
    ]


def table_rules_by_walk(axes, probabilities) -> None:
    """The ``JointDistribution`` rules walked one by one, finite entries
    first, then negative entries, then the sum; raises as the constructor does."""
    shape = tuple(count for _, count in axes)
    table = np.asarray(probabilities, dtype=float)
    batched = table.ndim == len(shape) + 1
    if table.shape[batched:] != shape or not table.size:
        raise ValueError(f"table shape {table.shape} matches neither axes {shape} nor a batch of them")
    members = tuple(range(batched, table.ndim))
    finite = np.isfinite(table)
    _check(finite.all(axis=members), ValueError, lambda i: f"probability {float(table[i][~finite[i]][0])!r} is not finite")
    with np.errstate(over="ignore"):
        low, total = table.min(axis=members), table.sum(axis=members)
    _check(low >= -PROB_CLAMP, ValueError, lambda i: f"negative probability {low[i]:.3e} below -{PROB_CLAMP}")
    ok = np.abs(total - 1.0) <= TABLE_SUM_TOL
    _check(ok, ValueError, lambda i: f"table sums to {float(total[i])!r}, off from 1 by over {TABLE_SUM_TOL}")


def density_rules_per_member(mat: np.ndarray) -> list:
    """``linalg._density_rules`` deciding every member on its own values:
    its Hermiticity residual, its trace and its Gershgorin bound, with
    ``eigvalsh`` on the members the bound leaves open."""
    with np.errstate(over="ignore", invalid="ignore"):
        herm = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        trace = np.trace(mat, axis1=-2, axis2=-1)
        diagonal = np.diagonal(mat, axis1=-2, axis2=-1)
        rows = np.abs(mat).sum(axis=-1) - np.abs(diagonal) + (mat.shape[-1] - 1) * herm[..., None]
        bound = (diagonal.real - rows).min(axis=-1)
    hermitian, unit = herm <= HERMITIAN_TOL, np.abs(trace - 1.0) <= TRACE_TOL
    unsettled = hermitian & unit & ~(bound >= -PSD_TOL / 2)
    smallest = np.zeros(unsettled.shape)
    if unsettled.any():
        smallest[unsettled] = np.linalg.eigvalsh(mat[unsettled])[:, 0]
    return [
        (hermitian, NotHermitian, lambda i: f"Hermiticity residual {herm[i]:.3e} exceeds {HERMITIAN_TOL}"),
        (unit, ValueError, lambda i: f"trace {complex(trace[i])!r} deviates from 1 by more than {TRACE_TOL}"),
        (smallest >= -PSD_TOL, ValueError, lambda i: f"negative eigenvalue {smallest[i]:.3e} below -{PSD_TOL}"),
    ]


def eigenstates_by_norm(images: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``reference._eigenstates`` from each residual's weight summed over
    the ket axis and its ``np.linalg.norm``."""
    kets = stack.reshape(len(stack), *(1,) * (images.ndim - 3), *stack.shape[1:])
    weights = (kets.conj() * images).sum(axis=-2)
    return np.linalg.norm(images - weights[..., None, :] * kets, axis=-2) <= EIGENSTATE_TOL


def table_rules_per_member(axes, probabilities) -> None:
    """The ``JointDistribution`` rules decided on each member's min and sum,
    walked only when one fails; raises as the constructor does."""
    shape = tuple(count for _, count in axes)
    table = np.asarray(probabilities, dtype=float)
    batched = table.ndim == len(shape) + 1
    if table.shape[batched:] != shape or not table.size:
        raise ValueError(f"table shape {table.shape} matches neither axes {shape} nor a batch of them")
    members = tuple(range(batched, table.ndim))
    with np.errstate(over="ignore", invalid="ignore"):
        low, total = table.min(axis=members), table.sum(axis=members)
    nonnegative, unit = low >= -PROB_CLAMP, np.abs(total - 1.0) <= TABLE_SUM_TOL
    if not (nonnegative & unit).all():
        finite = np.isfinite(table)
        _check(finite.all(axis=members), ValueError, lambda i: f"probability {float(table[i][~finite[i]][0])!r} is not finite")
        _check(nonnegative, ValueError, lambda i: f"negative probability {low[i]:.3e} below -{PROB_CLAMP}")
        _check(unit, ValueError, lambda i: f"table sums to {float(total[i])!r}, off from 1 by over {TABLE_SUM_TOL}")
