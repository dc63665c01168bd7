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
``overlap``, ``density``, ``tensor_product`` and ``eig_hermitian`` take
a single state and raise ``ValueError`` on a batch.

Storage is dense only; the total composite dimension is capped at 4096.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
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
    if not np.iterable(labels):
        raise UnknownLabel(f"labels must be a label or an iterable of labels, got {labels!r}")
    return tuple(labels)


def _check(ok, error: type, message) -> None:
    """Raise ``error(message(i))`` for the first member ``i`` failing ``ok``:
    shape () for a single value (``i = ()``), (B,) for a batch (the message
    then names ``i``).  Callers write ``ok`` so that NaN fails it."""
    if ok.all() if ok.ndim else ok:
        return
    i = int(np.argmin(ok)) if ok.ndim else ()
    raise error((f"batch member {i}: " if ok.ndim else "") + message(i))


def _is_index(value) -> bool:
    """An index is a Python or numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _front(space: "SpaceRegistry", labels) -> list[int]:
    """Axis order of a ``(B, *dims)`` tensor on ``space`` with the axes of
    ``labels`` first, in the order given, and the rest in registry order."""
    axes = [1 + space.axis(label) for label in labels]
    return [0] + axes + [i for i in range(1, len(space.dims) + 1) if i not in axes]


@lru_cache(maxsize=64)
def _moves(space: "SpaceRegistry", labels: tuple[str, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_front`` of ``labels`` on ``space`` and its inverse, built once per pair."""
    perm = _front(space, labels)
    return tuple(perm), tuple(np.argsort(perm).tolist())


def _grouped(state: "StateVector", labels) -> np.ndarray:
    """The ``(B, *dims)`` amplitude tensor of ``state`` in ``_front`` order."""
    return state.amplitudes.reshape(-1, *state.space.dims).transpose(_front(state.space, labels))


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
        requested = _as_label_tuple(labels)
        for label in requested:
            if not isinstance(label, str) or label not in self._axis:
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

    The constructor rejects input whose squared norm is not 1 within 1e-12
    (the trace every density operator built from it must meet) unless
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
        self._own(space, amps)

    def _own(self, space: SpaceRegistry, amps: np.ndarray) -> "StateVector":
        """Check and keep ``amps``, a fresh C-order complex array, uncopied."""
        flat = amps.view(float)  # real and imaginary parts side by side; no conjugate copy
        # einsum overflows to inf without a warning, and inf fails the check
        squared = np.einsum("...i,...i->...", flat, flat)
        ok = np.abs(squared - 1.0) <= NORM_TOL
        _check(ok, NotNormalized, lambda i: f"squared state norm {float(squared[i])!r} deviates from 1 by more than {NORM_TOL}")
        amps.flags.writeable = False
        self.space = space
        self.amplitudes = amps
        self.batch = len(amps) if amps.ndim == 2 else None
        return self

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
        with one matmul (2-D against a single state, stacked against a
        batch) and moved back.  The result must again be normalized (the
        package only ever applies norm-preserving maps to states); a
        non-unitary application raises NotNormalized."""
        space, d = state.space, self.space.dim
        for label, dim in self.space.entries:
            if space.dims[space.axis(label)] != dim:
                raise ValueError(f"dimension mismatch for label {label!r}")
        if None not in (self.batch, state.batch) and self.batch != state.batch:
            raise ValueError(f"operator batch of {self.batch} does not match state batch of {state.batch}")
        perm, back = _moves(space, self.space.labels)
        tensor = state.amplitudes.reshape(-1, *space.dims).transpose(perm)
        with np.errstate(over="ignore", invalid="ignore"):  # StateVector refuses what is not finite
            if state.batch is None:
                moved = self.matrix.reshape(-1, d) @ tensor[0].reshape(d, -1)
            else:
                moved = self.matrix @ tensor.reshape(len(tensor), d, -1)
        # the transpose back is the one copy of the result, and the state owns it
        out = moved.reshape(-1, *tensor.shape[1:]).transpose(back)
        shape = (-1, space.dim) if self.batch or state.batch else (space.dim,)
        return StateVector.__new__(StateVector)._own(space, out.reshape(shape))

    def __repr__(self) -> str:
        return f"Operator({self.space!r})"


class DensityOperator:
    """Hermitian, positive semidefinite, unit-trace operator on a labeled
    space, or a batch of them.  All three are checked per member at
    construction (Hermiticity and trace within 1e-12, eigenvalues >= -1e-12)."""

    __slots__ = ("space", "matrix", "batch")

    def __init__(self, space: SpaceRegistry, matrix):
        mat, self.batch = _square(space, matrix)
        for rule in _density_rules(mat):
            _check(*rule)
        self.space = space
        self.matrix = mat

    def __repr__(self) -> str:
        return f"DensityOperator({self.space!r})"


def _density_rules(mat: np.ndarray) -> list:
    """The density-operator rules for every matrix of a ``(..., d, d)``
    stack, as ``(ok, error, message)`` in the order they are checked:
    Hermiticity and trace within 1e-12, eigenvalues >= -1e-12.  ``ok`` is an
    array over the leading axes, and ``message(i)`` describes the failure
    of member ``i``.  A member that meets the first two rules and whose
    Gershgorin bound is at least -PSD_TOL/2 meets the third.  A passing stack
    costs whole-stack reductions; only a failing one takes each member's
    residual and bound, and only the members that bound leaves open go
    through ``eigvalsh``, so every refusal reads its own values."""
    # every guard is written so that NaN fails it, and overflow to inf or
    # NaN fails it silently
    d = mat.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        skew, diagonal = np.abs(mat - mat.conj().swapaxes(-1, -2)), np.diagonal(mat, axis1=-2, axis2=-1)
        worst, trace = skew.max(), diagonal.sum(axis=-1)
        # Gershgorin (1931) on the matrix eigvalsh reads, its lower triangle
        # mirrored: its off-diagonal row sums exceed the stored ones by at
        # most (d - 1) herm <= (d - 1) worst.  Under the PSD_TOL/2 margin the
        # eigensolver's rounding, about d eps, cannot refuse a member the bound
        # clears, nor can the order of row sums that no message prints.
        low = diagonal.real - (np.abs(mat).reshape(-1, d) @ np.ones(d)).reshape(diagonal.shape) + np.abs(diagonal)
        # a passing stack shares one all-true array, and no message is read
        hermitian = unit = psd = np.abs(trace - 1.0) <= TRACE_TOL
        if not (worst <= HERMITIAN_TOL and unit.all() and (low - (d - 1) * worst).min() >= -PSD_TOL / 2):
            herm = skew.max(axis=(-2, -1))
            hermitian = herm <= HERMITIAN_TOL
            unsettled = hermitian & unit & ~((low - (d - 1) * herm[..., None]).min(axis=-1) >= -PSD_TOL / 2)
            smallest = np.zeros(unsettled.shape)
            if unsettled.any():
                smallest[unsettled] = np.linalg.eigvalsh(mat[unsettled])[:, 0]
            psd = smallest >= -PSD_TOL
    return [
        (hermitian, NotHermitian, lambda i: f"Hermiticity residual {herm[i]:.3e} exceeds {HERMITIAN_TOL}"),
        (unit, ValueError, lambda i: f"trace {complex(trace[i])!r} deviates from 1 by more than {TRACE_TOL}"),
        (psd, ValueError, lambda i: f"negative eigenvalue {smallest[i]:.3e} below -{PSD_TOL}"),
    ]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigendecomposition result: ``eigenvalues``, a read-only float array
    in descending order, and ``states``, the eigenstate of each.

    ``degenerate`` reports whether any two adjacent eigenvalues are closer
    than ``DEGENERACY_GAP``; degeneracy is reported, never silently
    resolved, because the eigenbasis is not unique in that case.
    """

    eigenvalues: np.ndarray
    states: tuple[StateVector, ...]
    degenerate: bool


def tensor_product(first: StateVector, second: StateVector, *rest: StateVector) -> StateVector:
    """Kronecker product of states on label-disjoint spaces.

    The result space is the concatenation of the registries in argument
    order; the norm is the product of the input norms.
    """
    _single("tensor_product", first, second, *rest)
    entries, amps = first.space.entries, first.amplitudes
    for factor in (second, *rest):
        shared = {label for label, _ in entries} & set(factor.space.labels)
        if shared:
            raise LabelCollision(f"labels {sorted(shared)} appear on both sides of the product")
        entries = entries + factor.space.entries
        if amps.size * factor.space.dim > MAX_TOTAL_DIM:
            SpaceRegistry(entries)  # raises, naming the total at this factor
        amps = np.multiply.outer(amps, factor.amplitudes)
    # one registry and one norm check for the product; each factor met its own
    return StateVector.__new__(StateVector)._own(SpaceRegistry(entries), amps.reshape(-1))


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
    if isinstance(rho, StateVector):
        reduced = _pure_reduced(rho, [kept], sub.dim)
    else:
        # (B, kept, traced, kept, traced) -> (B, dk, dt, dk, dt), then trace
        # the two traced axes; no einsum index limit on the factor count
        order, n, dt = _front(space, kept), len(space.dims), space.dim // sub.dim
        tensor = rho.matrix.reshape(-1, *space.dims, *space.dims).transpose(order + [n + i for i in order[1:]])
        reduced = np.trace(tensor.reshape(-1, sub.dim, dt, sub.dim, dt), axis1=2, axis2=4)
    return DensityOperator(sub, reduced if rho.batch else reduced[0])


def _pure_reduced(state: StateVector, systems, dim: int) -> np.ndarray:
    """Reduced states of the pure ``state`` on each label group in
    ``systems`` (each of total dimension ``dim``, labels in registry order),
    stacked system-major as ``(k * B, dim, dim)``, B = 1 for a single state:
    with the amplitudes of a group grouped as ``m`` = (B, kept, traced), the
    reduced state is m m^dagger, one system at a time (one grouped copy and
    one conjugate each) into one ``(k, B, dim, dim)`` array."""
    out = np.empty((len(systems), state.batch or 1, dim, dim), dtype=complex)
    for block, kept in zip(out, systems):
        m = _grouped(state, kept).reshape(-1, dim, state.space.dim // dim)
        np.matmul(m, m.conj().swapaxes(1, 2), out=block)
    return out.reshape(-1, dim, dim)


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
    degenerate = bool((np.abs(np.diff(values)) < DEGENERACY_GAP).any())
    values.flags.writeable = False
    return Spectrum(values, tuple(StateVector(rho.space, column) for column in vectors.T), degenerate)


def basis_state(space: SpaceRegistry, index: int | Sequence[int]) -> StateVector:
    """Standard basis vector, addressed by flat index or one index per factor."""
    flat = not np.iterable(index)
    index, dims = ((index,), (space.dim,)) if flat else (tuple(index), space.dims)
    if len(index) != len(dims) or not all(_is_index(i) and 0 <= i < d for i, d in zip(index, dims)):
        shown = (index[0], dims[0]) if flat else (index, dims)
        raise ValueError("basis index %r is outside the integers 0 <= index < %r" % shown)
    amps = np.zeros(space.dim, dtype=complex)
    amps[np.ravel_multi_index(index, dims)] = 1.0
    return StateVector(space, amps)
