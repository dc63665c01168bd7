"""Dense complex linear algebra over labeled tensor-factor spaces.

Every state and operator carries a :class:`SpaceRegistry` naming its tensor
factors.  The registry order fixes the dense index layout once and for all:
indices are row-major with the leftmost label slowest-varying, so a registry
``(A: 2, B: 3)`` stores amplitude ``(a, b)`` at flat index ``a * 3 + b``.
Kronecker products, partial traces and local operators all share this
single convention.  Every state the package evaluates is pure, so a local
operator is applied by contracting its own axes of the amplitude tensor,
never by widening it to the full space.

Storage is dense only; the total composite dimension is capped at 4096.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LabelCollision, NotHermitian, NotNormalized, UnknownLabel

MAX_TOTAL_DIM = 4096

NORM_TOL = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-12
DEGENERACY_GAP = 1e-9


def _as_label_tuple(labels) -> tuple[str, ...]:
    """Normalize a single label or an iterable of labels to a tuple."""
    if isinstance(labels, str):
        return (labels,)
    return tuple(labels)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors via broadcasting; np.kron's
    generality costs too much on the small vectors this package lives on."""
    return (a[:, None] * b[None, :]).reshape(a.size * b.size)


class SpaceRegistry:
    """Ordered collection of labeled tensor factors.

    Labels are unique, dimensions are >= 1, and the order is fixed at
    construction.  All index arithmetic in the package derives from this
    order (leftmost label = slowest index).
    """

    __slots__ = ("entries", "labels", "dims", "dim", "_axis")

    def __init__(self, entries: Iterable[tuple[str, int]]):
        entries = tuple((str(label), int(dim)) for label, dim in entries)
        if not entries:
            raise ValueError("a space needs at least one labeled factor")
        axis: dict[str, int] = {}
        total = 1
        for i, (label, dim) in enumerate(entries):
            if label in axis:
                raise LabelCollision(f"duplicate label {label!r} in registry")
            if dim < 1:
                raise ValueError(f"dimension of {label!r} must be >= 1, got {dim}")
            axis[label] = i
            total *= dim
        if total > MAX_TOTAL_DIM:
            raise ValueError(
                f"total dimension {total} exceeds the dense-storage cap {MAX_TOTAL_DIM}"
            )
        self.entries = entries
        self.labels = tuple(label for label, _ in entries)
        self.dims = tuple(dim for _, dim in entries)
        self.dim = total
        self._axis = axis

    def axis(self, label: str) -> int:
        try:
            return self._axis[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not in space {self.labels}") from None

    def resolve(self, labels) -> tuple[str, ...]:
        """Return the requested labels deduplicated, in registry order."""
        requested = set(_as_label_tuple(labels))
        for label in requested:
            if label not in self._axis:
                raise UnknownLabel(f"label {label!r} not in space {self.labels}")
        return tuple(label for label in self.labels if label in requested)

    def restrict(self, labels) -> "SpaceRegistry":
        """Sub-registry over the given labels, kept in registry order."""
        kept = self.resolve(labels)
        return SpaceRegistry((label, self.entries[self.axis(label)][1]) for label in kept)

    def __contains__(self, label: str) -> bool:
        return label in self._axis

    def __eq__(self, other) -> bool:
        return isinstance(other, SpaceRegistry) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}:{dim}" for label, dim in self.entries)
        return f"SpaceRegistry({inner})"


class StateVector:
    """Unit-norm complex amplitude vector over a registry's product basis.

    The constructor rejects non-normalized input within 1e-12 unless
    ``normalize=True`` is passed, in which case it rescales.  Instances are
    immutable after construction.
    """

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: SpaceRegistry, amplitudes, *, normalize: bool = False):
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size != space.dim:
            raise ValueError(
                f"amplitude count {amps.size} does not match space dimension {space.dim}"
            )
        nrm = float(np.linalg.norm(amps))
        if normalize:
            if nrm == 0.0:
                raise NotNormalized("cannot normalize a zero vector")
            amps = amps / nrm
        elif not abs(nrm - 1.0) <= NORM_TOL:
            raise NotNormalized(f"state norm {nrm!r} deviates from 1 by more than {NORM_TOL}")
        amps.flags.writeable = False
        self.space = space
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>; both states must share the space."""
        if self.space != other.space:
            raise ValueError("overlap requires states on the same space")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityOperator":
        """The pure density operator |psi><psi|."""
        return DensityOperator(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))

    def reorder(self, new_labels) -> "StateVector":
        """Same state expressed on a permuted registry order."""
        new_labels = _as_label_tuple(new_labels)
        if sorted(new_labels) != sorted(self.space.labels):
            raise UnknownLabel(
                f"{new_labels} is not a permutation of {self.space.labels}"
            )
        perm = [self.space.axis(label) for label in new_labels]
        tensor = self.amplitudes.reshape(self.space.dims)
        out = np.ascontiguousarray(tensor.transpose(perm)).reshape(-1)
        new_space = SpaceRegistry(
            (label, self.space.dims[self.space.axis(label)]) for label in new_labels
        )
        return StateVector(new_space, out)

    def __repr__(self) -> str:
        return f"StateVector({self.space!r}, dim={self.space.dim})"


class Operator:
    """Square complex matrix acting on a labeled space (no invariants
    beyond shape; used for local unitaries)."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: SpaceRegistry, matrix):
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match space dim {space.dim}")
        mat.flags.writeable = False
        self.space = space
        self.matrix = mat

    def apply(self, state: StateVector) -> StateVector:
        """Apply to a state whose registry contains this operator's labels,
        in any placement and order, acting as the identity on every other
        factor.  The operator's axes of the amplitude tensor are contracted
        with the matrix and put back in place; no full-space matrix is
        built.  The result must again be normalized (the package only ever
        applies norm-preserving maps to states); a non-unitary application
        raises NotNormalized."""
        space = state.space
        if self.space == space:
            return StateVector(space, self.matrix @ state.amplitudes)
        axes = []
        for label, dim in self.space.entries:
            axis = space.axis(label)
            if space.dims[axis] != dim:
                raise ValueError(f"dimension mismatch for label {label!r}")
            axes.append(axis)
        k = len(axes)
        op = self.matrix.reshape(self.space.dims + self.space.dims)
        moved = np.tensordot(op, state.amplitudes.reshape(space.dims), axes=(range(k, 2 * k), axes))
        return StateVector(space, np.moveaxis(moved, range(k), axes).reshape(-1))

    def __repr__(self) -> str:
        return f"Operator({self.space!r})"


class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator on a labeled
    space.  All three properties are checked at construction (Hermiticity
    and trace within 1e-12, eigenvalues >= -1e-12)."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: SpaceRegistry, matrix):
        mat = np.array(matrix, dtype=complex)
        if mat.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {mat.shape} does not match space dim {space.dim}")
        # every guard is written so that NaN fails it
        herm_residual = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
        if not herm_residual <= HERMITIAN_TOL:
            raise NotHermitian(f"Hermiticity residual {herm_residual:.3e} exceeds {HERMITIAN_TOL}")
        trace = complex(np.trace(mat))
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace {trace!r} deviates from 1 by more than {TRACE_TOL}")
        smallest = float(np.linalg.eigvalsh(mat)[0])
        if not smallest >= -PSD_TOL:
            raise ValueError(f"negative eigenvalue {smallest:.3e} below -{PSD_TOL}")
        mat.flags.writeable = False
        self.space = space
        self.matrix = mat

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __repr__(self) -> str:
        return f"DensityOperator({self.space!r})"


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition result, sorted by descending eigenvalue.

    ``degenerate`` reports whether any two adjacent eigenvalues are closer
    than ``gap_threshold``; degeneracy is reported, never silently resolved,
    because the eigenbasis is not unique in that case.
    """

    pairs: tuple[tuple[float, StateVector], ...]
    degenerate: bool
    gap_threshold: float

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([value for value, _ in self.pairs])

    @property
    def states(self) -> tuple[StateVector, ...]:
        return tuple(state for _, state in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def tensor_product(first: StateVector, second: StateVector, *rest: StateVector) -> StateVector:
    """Kronecker product of states on label-disjoint spaces.

    The result space is the concatenation of the registries in argument
    order; the norm is the product of the input norms.
    """
    out = first
    for factor in (second, *rest):
        shared = set(out.space.labels) & set(factor.space.labels)
        if shared:
            raise LabelCollision(f"labels {sorted(shared)} appear on both sides of the product")
        space = SpaceRegistry(out.space.entries + factor.space.entries)
        out = StateVector(space, _kron(out.amplitudes, factor.amplitudes))
    return out


def partial_trace(rho: DensityOperator | StateVector, keep) -> DensityOperator:
    """Trace out every label not listed in ``keep``.

    Accepts a density operator or, as a convenience, a pure state (treated
    as |psi><psi| without materializing the full matrix).  The result acts
    on the kept labels in registry order; trace and Hermiticity are
    preserved.
    """
    space = rho.space
    kept = space.resolve(keep)
    if not kept:
        raise ValueError("keep must name at least one label")
    sub = space.restrict(kept)
    if isinstance(rho, StateVector):
        tensor = rho.amplitudes.reshape(space.dims)
        traced = [i for i, (label, _) in enumerate(space.entries) if label not in kept]
        reduced = np.tensordot(tensor, tensor.conj(), axes=(traced, traced))
    else:
        # (kept, traced, kept, traced) -> (dk, dt, dk, dt), then trace the
        # two traced axes; no einsum index limit on the factor count
        kept_axes = [space.axis(label) for label in kept]
        order = kept_axes + [i for i in range(len(space.dims)) if i not in kept_axes]
        n = len(order)
        tensor = rho.matrix.reshape(space.dims + space.dims).transpose(order + [n + i for i in order])
        dt = space.dim // sub.dim
        reduced = np.trace(tensor.reshape(sub.dim, dt, sub.dim, dt), axis1=1, axis2=3)
    return DensityOperator(sub, reduced.reshape(sub.dim, sub.dim))


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


def eig_hermitian(rho: DensityOperator, *, gap_threshold: float = DEGENERACY_GAP) -> Spectrum:
    """Full eigendecomposition of a density operator.

    Eigenpairs come back sorted by descending eigenvalue with a
    deterministic global phase (largest-magnitude component made real
    positive); exact eigenvalue ties are ordered lexicographically by the
    phase-fixed amplitudes.  ``degenerate`` is set when two eigenvalues sit
    closer than ``gap_threshold``.
    """
    mat = rho.matrix
    herm_residual = float(np.max(np.abs(mat - mat.conj().T)))
    if not herm_residual <= HERMITIAN_TOL:
        raise NotHermitian(f"Hermiticity residual {herm_residual:.3e} exceeds {HERMITIAN_TOL}")
    values, vectors = np.linalg.eigh(mat)
    order = list(np.argsort(-values, kind="stable"))
    values = values[order]
    columns = [_phase_fixed(vectors[:, i]) for i in order]
    # stable sort leaves exact ties in eigh order; impose the lexicographic
    # convention inside each tied block for cross-run identity
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
    degenerate = bool(gaps.size and float(np.min(gaps)) < gap_threshold)
    pairs = tuple(
        (float(values[i]), StateVector(rho.space, columns[i])) for i in range(len(values))
    )
    return Spectrum(pairs=pairs, degenerate=degenerate, gap_threshold=gap_threshold)


def basis_state(space: SpaceRegistry, index: int | Sequence[int]) -> StateVector:
    """Standard basis vector, addressed by flat index or one index per factor."""
    if not isinstance(index, (int, np.integer)):
        index = int(np.ravel_multi_index(tuple(index), space.dims))
    amps = np.zeros(space.dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(space, amps)
