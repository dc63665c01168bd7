"""Full-space reference routes the contraction kernel is checked against.

The package applies local operators and takes joint tables by contracting
axes of the pure-state amplitude tensor.  The routes below do the same work
the long way: an operator is widened to the full space by the identity on
every other factor, and a joint table is the trace of a product of embedded
candidate projectors against the reduced state of the union of the systems.
Sampling is likewise checked against drawing one index tuple per pick and
counting the tuples one at a time, and the spectral ordering against fixing
the phase of one column at a time and sorting each tied block in a loop.
"""

import numpy as np

from qrs_sim.errors import NotHermitian, NotIsolated, UnknownLabel
from qrs_sim.linalg import (
    DEGENERACY_GAP,
    HERMITIAN_TOL,
    DensityOperator,
    Operator,
    SpaceRegistry,
    Spectrum,
    StateVector,
    _single,
)
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
    pairs = tuple(
        (float(values[i]), StateVector(rho.space, columns[i])) for i in range(len(values))
    )
    return Spectrum(pairs=pairs, degenerate=degenerate)
