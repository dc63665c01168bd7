"""Dense complex linear algebra over labeled tensor-factor spaces.

Every state and operator carries a :class:`SpaceRegistry` naming its tensor
factors.  The registry order fixes the dense index layout once and for all:
indices are row-major with the leftmost label slowest-varying, so a registry
``(A: 2, B: 3)`` stores amplitude ``(a, b)`` at flat index ``a * 3 + b``.
Kronecker products, partial traces and local operators all share this
single convention.  Every state the package evaluates is pure, so a local
operator is applied by contracting its own axes of the amplitude tensor,
never by widening it to the full space.

A state, operator or density operator may carry one leading batch axis of
length B >= 1 (amplitudes ``(B, dim)``, matrices ``(B, d, d)``); each check
runs per member, and a failing member is named by its index.  Kernels work
on a leading axis throughout, a single value being B = 1 squeezed on exit.
``overlap``, ``density``, ``reorder``, ``tensor_product`` and
``eig_hermitian`` take a single state and raise ``ValueError`` on a batch.

Storage is dense only; the total composite dimension is capped at 4096.
"""

from __future__ import annotations

import itertools
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


def _check(ok, error: type, message) -> None:
    """Raise ``error(message(i))`` for the first member ``i`` failing ``ok``:
    shape () for a single value (``i = ()``), (B,) for a batch (the message
    then names ``i``).  Callers write ``ok`` so that NaN fails it."""
    if not ok.all():
        i = int(np.argmin(ok)) if np.ndim(ok) else ()
        raise error((f"batch member {i}: " if np.ndim(ok) else "") + message(i))


def _single(operation: str, *values) -> None:
    """Reject a batch where ``operation`` is defined for a single value."""
    for value in values:
        batch = getattr(value, "batch", None)  # unset on a value built without __init__
        if batch is not None:
            raise ValueError(f"{operation} takes a single value, not a batch of {batch}")


def _square(space: "SpaceRegistry", matrix) -> tuple[np.ndarray, int | None]:
    """A read-only ``(d, d)`` matrix or ``(B, d, d)`` batch, and B or None."""
    mat, d = np.array(matrix, dtype=complex), space.dim
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (d, d) or not mat.size:
        raise ValueError(f"matrix shape {mat.shape} is not ({d}, {d}) or (B, {d}, {d})")
    mat.flags.writeable = False
    return mat, (len(mat) if mat.ndim == 3 else None)


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
    """Unit-norm complex amplitude vector over a registry's product basis,
    or a batch of them (``batch`` is B, None for a single state).

    The constructor rejects non-normalized input within 1e-12 unless
    ``normalize=True`` is passed, in which case it rescales finite, nonzero
    input.  Instances are immutable after construction.
    """

    __slots__ = ("space", "amplitudes", "batch")

    def __init__(self, space: SpaceRegistry, amplitudes, *, normalize: bool = False):
        amps = np.array(amplitudes, dtype=complex, order="C")
        amps = amps.reshape(-1) if amps.ndim < 2 else amps
        if amps.ndim > 2 or amps.shape[-1] != space.dim or not amps.size:
            raise ValueError(f"amplitude shape {amps.shape} is not ({space.dim},) or (B, {space.dim})")
        if normalize:
            # dividing by the largest magnitude first keeps the norm finite
            scale = np.abs(amps).max(axis=-1)
            ok = np.isfinite(scale) & (scale > 0)
            _check(ok, NotNormalized, lambda i: f"cannot normalize: largest magnitude {float(scale[i])!r}")
            amps = amps / scale[..., None]
            amps = amps / np.sqrt(np.einsum("...i,...i->...", amps.conj(), amps).real)[..., None]
        flat = amps.view(float)  # real and imaginary parts side by side; no conjugate copy
        with np.errstate(over="ignore"):  # an overflowing norm is inf and fails the check
            nrm = np.sqrt((flat * flat).sum(axis=-1))
        ok = np.abs(nrm - 1.0) <= NORM_TOL
        _check(ok, NotNormalized, lambda i: f"state norm {float(nrm[i])!r} deviates from 1 by more than {NORM_TOL}")
        amps.flags.writeable = False
        self.space = space
        self.amplitudes = amps
        self.batch = len(amps) if amps.ndim == 2 else None

    def norm(self) -> float | np.ndarray:
        """Euclidean norm; one per member for a batch."""
        if self.batch is None:
            return float(np.linalg.norm(self.amplitudes))
        return np.linalg.norm(self.amplitudes, axis=1)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>; both states must share the space."""
        _single("overlap", self, other)
        if self.space != other.space:
            raise ValueError("overlap requires states on the same space")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityOperator":
        """The pure density operator |psi><psi|."""
        _single("density", self)
        return DensityOperator(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))

    def reorder(self, new_labels) -> "StateVector":
        """Same state expressed on a permuted registry order."""
        _single("reorder", self)
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
    """Square complex matrix, or a batch of them, acting on a labeled space
    (no invariants beyond shape; used for local unitaries)."""

    __slots__ = ("space", "matrix", "batch")

    def __init__(self, space: SpaceRegistry, matrix):
        self.space = space
        self.matrix, self.batch = _square(space, matrix)

    def apply(self, state: StateVector) -> StateVector:
        """Apply to a state whose registry contains this operator's labels,
        in any placement and order, acting as the identity on every other
        factor, a batch meeting a single state or an equal batch.  The
        operator's axes of the amplitude tensor are moved to the front, hit
        with one broadcasting matmul and moved back.  The result must again
        be normalized (the package only ever applies norm-preserving maps to
        states); a non-unitary application raises NotNormalized."""
        space = state.space
        axes = []
        for label, dim in self.space.entries:
            axis = space.axis(label)
            if space.dims[axis] != dim:
                raise ValueError(f"dimension mismatch for label {label!r}")
            axes.append(1 + axis)
        if None not in (self.batch, state.batch) and self.batch != state.batch:
            raise ValueError(f"operator batch of {self.batch} does not match state batch of {state.batch}")
        perm = [0] + axes + [i for i in range(1, len(space.dims) + 1) if i not in axes]
        tensor = state.amplitudes.reshape(-1, *space.dims).transpose(perm)
        with np.errstate(over="ignore", invalid="ignore"):  # StateVector refuses what is not finite
            moved = self.matrix @ tensor.reshape(len(tensor), self.space.dim, -1)
        out = moved.reshape(-1, *tensor.shape[1:]).transpose(np.argsort(perm)).reshape(-1, space.dim)
        return StateVector(space, out if self.batch or state.batch else out[0])

    def __repr__(self) -> str:
        return f"Operator({self.space!r})"


class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator on a labeled
    space, or a batch of them.  All three are checked per member at
    construction (Hermiticity and trace within 1e-12, eigenvalues >= -1e-12)."""

    __slots__ = ("space", "matrix", "batch")

    def __init__(self, space: SpaceRegistry, matrix):
        mat, self.batch = _square(space, matrix)
        # every guard is written so that NaN fails it, and overflow to inf
        # or NaN fails it silently
        with np.errstate(over="ignore", invalid="ignore"):
            herm = np.abs(mat - mat.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
            trace = np.trace(mat, axis1=-2, axis2=-1)
        ok = herm <= HERMITIAN_TOL
        _check(ok, NotHermitian, lambda i: f"Hermiticity residual {herm[i]:.3e} exceeds {HERMITIAN_TOL}")
        ok = np.abs(trace - 1.0) <= TRACE_TOL
        _check(ok, ValueError, lambda i: f"trace {complex(trace[i])!r} deviates from 1 by more than {TRACE_TOL}")
        smallest = np.linalg.eigvalsh(mat)[..., 0]
        _check(smallest >= -PSD_TOL, ValueError, lambda i: f"negative eigenvalue {smallest[i]:.3e} below -{PSD_TOL}")
        self.space = space
        self.matrix = mat

    def trace(self) -> float | np.ndarray:
        trace = np.trace(self.matrix, axis1=-2, axis2=-1).real
        return float(trace) if self.batch is None else trace

    def __repr__(self) -> str:
        return f"DensityOperator({self.space!r})"


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition result, sorted by descending eigenvalue.

    ``degenerate`` reports whether any two adjacent eigenvalues are closer
    than ``DEGENERACY_GAP``; degeneracy is reported, never silently
    resolved, because the eigenbasis is not unique in that case.
    """

    pairs: tuple[tuple[float, StateVector], ...]
    degenerate: bool

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
    _single("tensor_product", first, second, *rest)
    out = first
    for factor in (second, *rest):
        shared = set(out.space.labels) & set(factor.space.labels)
        if shared:
            raise LabelCollision(f"labels {sorted(shared)} appear on both sides of the product")
        space = SpaceRegistry(out.space.entries + factor.space.entries)
        out = StateVector(space, np.multiply.outer(out.amplitudes, factor.amplitudes).reshape(-1))
    return out


def partial_trace(rho: DensityOperator | StateVector, keep) -> DensityOperator:
    """Trace out every label not listed in ``keep``.

    Accepts a density operator or, as a convenience, a pure state (treated
    as |psi><psi| without materializing the full matrix), single or
    batched.  The result acts on the kept labels in registry order; trace
    and Hermiticity are preserved.
    """
    space = rho.space
    kept = space.resolve(keep)
    if not kept:
        raise ValueError("keep must name at least one label")
    sub = space.restrict(kept)
    kept_axes = [space.axis(label) for label in kept]
    order = [1 + i for i in kept_axes + [i for i in range(len(space.dims)) if i not in kept_axes]]
    dt = space.dim // sub.dim
    if isinstance(rho, StateVector):
        # (B, kept, traced) -> (B, dk, dt); the reduced state is m m^dagger
        m = rho.amplitudes.reshape(-1, *space.dims).transpose([0] + order).reshape(-1, sub.dim, dt)
        reduced = m @ m.conj().swapaxes(1, 2)
    else:
        # (B, kept, traced, kept, traced) -> (B, dk, dt, dk, dt), then trace
        # the two traced axes; no einsum index limit on the factor count
        n = len(order)
        tensor = rho.matrix.reshape(-1, *space.dims, *space.dims).transpose([0] + order + [n + i for i in order])
        reduced = np.trace(tensor.reshape(-1, sub.dim, dt, sub.dim, dt), axis1=2, axis2=4)
    return DensityOperator(sub, reduced if rho.batch else reduced[0])


def eig_hermitian(rho: DensityOperator) -> Spectrum:
    """Full eigendecomposition of a density operator.

    Eigenpairs come back sorted by descending eigenvalue with a
    deterministic global phase (largest-magnitude component made real
    positive); exact eigenvalue ties are ordered lexicographically by the
    phase-fixed amplitudes.  ``degenerate`` is set when two eigenvalues sit
    closer than ``DEGENERACY_GAP``.
    """
    _single("eig_hermitian", rho)
    mat = rho.matrix
    herm_residual = float(np.max(np.abs(mat - mat.conj().T)))
    if not herm_residual <= HERMITIAN_TOL:
        raise NotHermitian(f"Hermiticity residual {herm_residual:.3e} exceeds {HERMITIAN_TOL}")
    values, vectors = np.linalg.eigh(mat)
    order = np.argsort(-values, kind="stable")
    values, vectors = values[order], vectors[:, order]
    # the first largest-magnitude component of each column is the pivot;
    # np.hypot rounds |pivot| as scalar abs() does, array np.abs does not
    pivot = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(len(values))]
    vectors = vectors * (pivot.conj() / np.hypot(pivot.real, pivot.imag))
    # stable sort leaves exact ties (within 1e-15 of the first value of
    # their block) in eigh order; impose the lexicographic convention on the
    # columns inside each tied block for cross-run identity
    block = list(itertools.accumulate(
        range(len(values)), lambda first, j: first if abs(values[j] - values[first]) <= 1e-15 else j
    ))
    parts = np.stack([vectors.real, vectors.imag], axis=1).reshape(-1, len(values))
    vectors = vectors[:, np.lexsort([*parts[::-1], block])]
    gaps = np.abs(np.diff(values))
    degenerate = bool(gaps.size and float(np.min(gaps)) < DEGENERACY_GAP)
    pairs = tuple(
        (float(value), StateVector(rho.space, column)) for value, column in zip(values, vectors.T)
    )
    return Spectrum(pairs=pairs, degenerate=degenerate)


def basis_state(space: SpaceRegistry, index: int | Sequence[int]) -> StateVector:
    """Standard basis vector, addressed by flat index or one index per factor."""
    flat = isinstance(index, (int, float, np.number))
    index, dims = ((index,), (space.dim,)) if flat else (tuple(index), space.dims)
    if len(index) != len(dims) or not all(isinstance(i, (int, np.integer)) and 0 <= i < d for i, d in zip(index, dims)):
        shown = (index[0], dims[0]) if flat else (index, dims)
        raise ValueError("basis index %r is outside the integers 0 <= index < %r" % shown)
    amps = np.zeros(space.dim, dtype=complex)
    amps[np.ravel_multi_index(index, dims)] = 1.0
    return StateVector(space, amps)
