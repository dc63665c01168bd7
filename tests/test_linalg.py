import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrs_sim import (
    DensityOperator,
    ExperimentConfig,
    LabelCollision,
    NotHermitian,
    NotNormalized,
    Operator,
    ReferenceSystem,
    SpaceRegistry,
    StateVector,
    UnknownLabel,
    ancilla_experiment,
    basis_state,
    eig_hermitian,
    evolve_experiment,
    internal_state_candidates,
    joint_distribution,
    measurement_unitary,
    partial_trace,
    state_of,
    tensor_product,
)
from qrs_sim import cli, linalg, reference

from oracles import candidates_by_lists, eig_hermitian_by_columns, embed_operator, projector, reorder


# --------------------------------------------------------------------------- #
# oracles: brute-force references the implementations are checked against     #
# --------------------------------------------------------------------------- #


def ptrace_loop(matrix, dims, keep_axes):
    """Partial trace by explicit index enumeration."""
    keep_axes = list(keep_axes)
    trace_axes = [i for i in range(len(dims)) if i not in keep_axes]
    keep_dims = [dims[i] for i in keep_axes]
    trace_dims = [dims[i] for i in trace_axes]
    dk = int(np.prod(keep_dims))
    out = np.zeros((dk, dk), dtype=complex)
    for row in np.ndindex(*keep_dims):
        for col in np.ndindex(*keep_dims):
            total = 0.0 + 0.0j
            for summed in np.ndindex(*trace_dims) if trace_dims else [()]:
                full_row = [0] * len(dims)
                full_col = [0] * len(dims)
                for axis, value in zip(keep_axes, row):
                    full_row[axis] = value
                for axis, value in zip(keep_axes, col):
                    full_col[axis] = value
                for axis, value in zip(trace_axes, summed):
                    full_row[axis] = value
                    full_col[axis] = value
                total += matrix[
                    np.ravel_multi_index(full_row, dims), np.ravel_multi_index(full_col, dims)
                ]
            out[
                np.ravel_multi_index(row, keep_dims) if keep_dims else 0,
                np.ravel_multi_index(col, keep_dims) if keep_dims else 0,
            ] = total
    return out


def random_state(space, rng):
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return StateVector(space, amps, normalize=True)


def random_density(space, rng, rank=None):
    rank = rank or space.dim
    a = rng.normal(size=(space.dim, rank)) + 1j * rng.normal(size=(space.dim, rank))
    rho = a @ a.conj().T
    return DensityOperator(space, rho / np.trace(rho))


def random_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# --------------------------------------------------------------------------- #


class TestSpaceRegistry:
    def test_layout(self):
        space = SpaceRegistry([("A", 2), ("B", 3)])
        assert space.labels == ("A", "B")
        assert space.dims == (2, 3)
        assert space.dim == 6
        assert space.axis("B") == 1
        assert "A" in space and "C" not in space

    def test_duplicate_label(self):
        with pytest.raises(LabelCollision):
            SpaceRegistry([("A", 2), ("A", 3)])

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            SpaceRegistry([("A", 0)])

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            SpaceRegistry([(f"Q{i}", 2) for i in range(13)])  # 2**13 > 4096

    def test_resolve_keeps_registry_order(self):
        space = SpaceRegistry([("A", 2), ("B", 3), ("C", 2)])
        assert space.resolve(["C", "A"]) == ("A", "C")
        assert space.resolve("B") == ("B",)
        with pytest.raises(UnknownLabel):
            space.resolve(["A", "Z"])

    def test_restrict(self):
        space = SpaceRegistry([("A", 2), ("B", 3), ("C", 2)])
        assert space.restrict(["C", "B"]).entries == (("B", 3), ("C", 2))


class TestStateVector:
    def test_rejects_unnormalized(self):
        # the norm of [1e308, 1e308] overflows; it is refused without a
        # RuntimeWarning, which the test configuration turns into an error
        space = SpaceRegistry([("A", 2)])
        for amplitudes in ([1.0, 1.0], [float("nan"), 0.0], [1e308, 1e308]):
            with pytest.raises(NotNormalized):
                StateVector(space, amplitudes)

    def test_norm_rule_is_the_trace_rule(self):
        # the squared norm is held to 1e-12, as is the trace of every density
        # operator taken from the state, so no accepted state fails a trace
        space = SpaceRegistry([("A", 2), ("B", 2)])
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        with pytest.raises(NotNormalized, match="squared state norm"):
            StateVector(space, singlet * (1 + 9e-13))
        state = StateVector(space, singlet * (1 + 4.5e-13))
        ref = ReferenceSystem(state, isolated=True)
        assert abs(np.trace(state_of("A", ref).matrix, axis1=-2, axis2=-1).real - 1.0) <= 1e-12
        assert joint_distribution([("A",), ("B",)], ref).probabilities.shape == (2, 2)
        assert abs(np.trace(state.density().matrix, axis1=-2, axis2=-1).real - 1.0) <= 1e-12

    def test_normalize_mode(self):
        space = SpaceRegistry([("A", 2)])
        state = StateVector(space, [3.0, 4.0], normalize=True)
        assert_allclose(state.amplitudes, [0.6, 0.8])
        for amplitudes in ([0.0, 0.0], [float("nan"), 0.0], [float("inf"), 0.0], [-float("inf"), 1.0]):
            with pytest.raises(NotNormalized):
                StateVector(space, amplitudes, normalize=True)
        # the norm of these overflows; scaling by the largest magnitude first does not
        huge = StateVector(space, [1e308, 1e308], normalize=True)
        assert_allclose(huge.amplitudes, [2**-0.5, 2**-0.5], rtol=0, atol=1e-15)

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(SpaceRegistry([("A", 2)]), [1.0, 0.0, 0.0])

    def test_immutable(self):
        state = basis_state(SpaceRegistry([("A", 2)]), 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 2.0

    def test_reorder_matches_kron(self, rng):
        a = SpaceRegistry([("A", 2)])
        b = SpaceRegistry([("B", 3)])
        u = random_state(a, rng)
        v = random_state(b, rng)
        ab = tensor_product(u, v)
        ba = reorder(ab, ("B", "A"))
        assert ba.space.entries == (("B", 3), ("A", 2))
        assert_allclose(ba.amplitudes, np.kron(v.amplitudes, u.amplitudes), atol=1e-15)
        back = reorder(ba, ("A", "B"))
        assert_allclose(back.amplitudes, ab.amplitudes, atol=1e-15)

    def test_reorder_requires_permutation(self):
        state = basis_state(SpaceRegistry([("A", 2), ("B", 2)]), 0)
        with pytest.raises(UnknownLabel):
            reorder(state, ("A", "C"))


class TestBasisState:
    def test_flat_and_per_factor_index(self):
        space = SpaceRegistry([("A", 2), ("B", 3)])
        assert_allclose(basis_state(space, 4).amplitudes, np.eye(6)[4])
        assert_allclose(basis_state(space, (1, 1)).amplitudes, np.eye(6)[4])

    @pytest.mark.parametrize(
        "index,named", [(-1, "-1"), (6, "6"), ((-1, 0), "(-1, 0)"), ((0, 3), "(0, 3)"), ((0,), "(0,)"), (0.5, "0.5")]
    )
    def test_index_out_of_range(self, index, named):
        space = SpaceRegistry([("A", 2), ("B", 3)])
        with pytest.raises(ValueError, match="outside") as excinfo:
            basis_state(space, index)
        message = str(excinfo.value)
        assert named in message
        assert ("(2, 3)" if isinstance(index, tuple) else "< 6") in message


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        space = SpaceRegistry([("A", 2)])
        for matrix in ([[0.5, 0.5], [0.0, 0.5]], np.full((2, 2), np.nan)):
            with pytest.raises(NotHermitian):
                DensityOperator(space, matrix)

    def test_rejects_bad_trace(self):
        # the trace of the second overflows; refused without a RuntimeWarning
        space = SpaceRegistry([("A", 2)])
        for matrix in (np.eye(2), np.full((2, 2), 1e308)):
            with pytest.raises(ValueError, match="trace"):
                DensityOperator(space, matrix)

    def test_rejects_negative_eigenvalue(self):
        space = SpaceRegistry([("A", 2)])
        with pytest.raises(ValueError):
            DensityOperator(space, np.diag([1.5, -0.5]))


class TestTensorProduct:
    def test_basis_product(self):
        spin = SpaceRegistry([("S", 2)])
        pointer = SpaceRegistry([("M", 2)])
        up = basis_state(spin, 0)
        ready = basis_state(pointer, 0)
        joint = tensor_product(up, ready)
        assert joint.space.dim == 4
        assert_allclose(joint.amplitudes, [1, 0, 0, 0])

    def test_dimension_product(self, rng):
        a = random_state(SpaceRegistry([("A", 2)]), rng)
        b = random_state(SpaceRegistry([("B", 3)]), rng)
        assert tensor_product(a, b).space.dim == 6

    def test_superposition_times_ready(self):
        # (0.6|up> + 0.8|down>) kron |ready>, expanded by hand
        spin = StateVector(SpaceRegistry([("S", 2)]), [0.6, 0.8])
        ready = basis_state(SpaceRegistry([("M", 2)]), 0)
        joint = tensor_product(spin, ready)
        assert_allclose(joint.amplitudes, [0.6, 0.0, 0.8, 0.0])

    def test_label_collision(self, rng):
        a = random_state(SpaceRegistry([("A", 2)]), rng)
        a2 = random_state(SpaceRegistry([("A", 2)]), rng)
        with pytest.raises(LabelCollision):
            tensor_product(a, a2)

    def test_cap_refusal_names_the_total_at_the_factor(self):
        # 64 x 128 already breaks the cap, before the third factor doubles it
        factors = [basis_state(SpaceRegistry([(label, dim)]), 0) for label, dim in (("A", 64), ("B", 128), ("C", 2))]
        with pytest.raises(ValueError, match="^total dimension 8192 exceeds the dense-storage cap 4096$"):
            tensor_product(*factors)

    def test_one_registry_and_one_norm_check_per_call(self, rng, monkeypatch):
        factors = [random_state(SpaceRegistry([(label, 2)]), rng) for label in "ABCD"]
        built = []
        original = SpaceRegistry.__init__
        monkeypatch.setattr(SpaceRegistry, "__init__", lambda self, entries: built.append(1) or original(self, entries))
        joint = tensor_product(*factors)
        assert len(built) == 1 and joint.space.labels == tuple("ABCD")
        assert not joint.amplitudes.flags.writeable
        expected = np.kron(np.kron(np.kron(*(f.amplitudes for f in factors[:2])), factors[2].amplitudes), factors[3].amplitudes)
        assert np.array_equal(joint.amplitudes, expected)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_norm_multiplicative(self, seed):
        gen = np.random.default_rng(seed)
        a = random_state(SpaceRegistry([("A", 3)]), gen)
        b = random_state(SpaceRegistry([("B", 4)]), gen)
        assert abs(tensor_product(a, b).norm() - 1.0) < 1e-12


class TestPartialTrace:
    def test_post_measurement_device_state(self):
        # alpha |up>|m_up> + beta |down>|m_down> reduces on the device to
        # diag(|alpha|^2, |beta|^2)
        alpha, beta = 0.6, 0.8
        space = SpaceRegistry([("P", 2), ("M", 2)])
        psi = StateVector(space, [alpha, 0.0, 0.0, beta])
        rho = partial_trace(psi.density(), "M")
        assert_allclose(rho.matrix, np.diag([alpha**2, beta**2]), atol=1e-12)

    def test_product_state_reduces_to_pure_factor(self, rng):
        u = random_state(SpaceRegistry([("A", 2)]), rng)
        v = random_state(SpaceRegistry([("B", 3)]), rng)
        rho = partial_trace(tensor_product(u, v), "A")
        assert_allclose(rho.matrix, np.outer(u.amplitudes, u.amplitudes.conj()), atol=1e-12)

    def test_singlet_reduces_to_maximally_mixed(self):
        space = SpaceRegistry([("P1", 2), ("P2", 2)])
        singlet = StateVector(space, np.array([0, 1, -1, 0]) / np.sqrt(2))
        rho = partial_trace(singlet, "P1")
        # explicit 4x4 partial trace by hand: diag(1/2, 1/2)
        assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    @pytest.mark.parametrize(
        "entries,keep",
        [
            ([("A", 2), ("B", 3)], ["A"]),
            ([("A", 2), ("B", 3)], ["B"]),
            ([("A", 2), ("B", 2), ("C", 3)], ["A", "C"]),
            ([("A", 2), ("B", 2), ("C", 2)], ["B"]),
            ([("A", 3), ("B", 2), ("C", 2)], ["A", "B", "C"]),
        ],
    )
    def test_matches_loop_oracle(self, entries, keep, rng):
        space = SpaceRegistry(entries)
        rho = random_density(space, rng)
        reduced = partial_trace(rho, keep)
        keep_axes = [space.axis(label) for label in space.resolve(keep)]
        expected = ptrace_loop(rho.matrix, space.dims, keep_axes)
        assert_allclose(reduced.matrix, expected, atol=1e-12)
        assert abs(np.trace(reduced.matrix, axis1=-2, axis2=-1).real - 1.0) < 1e-12

    def test_pure_path_matches_density_path(self, rng):
        space = SpaceRegistry([("A", 2), ("B", 3), ("C", 2)])
        psi = random_state(space, rng)
        for keep in (["A"], ["B", "C"], ["A", "C"]):
            assert_allclose(
                partial_trace(psi, keep).matrix,
                partial_trace(psi.density(), keep).matrix,
                atol=1e-12,
            )

    def test_many_trivial_factors(self, rng):
        # 30 factors, 28 of dimension 1: more than a letter-per-axis
        # einsum spec can name
        entries = [(f"L{i}", {3: 2, 27: 3}.get(i, 1)) for i in range(30)]
        psi = random_state(SpaceRegistry(entries), rng)
        for keep in (["L3", "L27", "L29"], [label for label, _ in entries]):
            assert_allclose(
                partial_trace(psi.density(), keep).matrix, partial_trace(psi, keep).matrix, atol=1e-12
            )

    def test_sequential_equals_simultaneous(self, rng):
        space = SpaceRegistry([("A", 2), ("B", 2), ("C", 3)])
        rho = random_density(space, rng)
        via_two_steps = partial_trace(partial_trace(rho, ["A", "C"]), ["C"])
        at_once = partial_trace(rho, ["C"])
        assert_allclose(via_two_steps.matrix, at_once.matrix, atol=1e-12)

    def test_unknown_label(self, rng):
        rho = random_density(SpaceRegistry([("A", 2)]), rng)
        with pytest.raises(UnknownLabel):
            partial_trace(rho, ["Z"])

    def test_empty_keep(self, rng):
        rho = random_density(SpaceRegistry([("A", 2)]), rng)
        with pytest.raises(ValueError):
            partial_trace(rho, [])


class TestEigHermitian:
    def test_diagonal_input(self):
        space = SpaceRegistry([("A", 2)])
        spectrum = eig_hermitian(DensityOperator(space, np.diag([0.7, 0.3])))
        assert_allclose(spectrum.eigenvalues, [0.7, 0.3])
        assert_allclose(spectrum.states[0].amplitudes, [1, 0], atol=1e-12)
        assert_allclose(spectrum.states[1].amplitudes, [0, 1], atol=1e-12)
        assert not spectrum.degenerate

    def test_device_spectrum_sorted_descending(self):
        # diag(0.36, 0.64) in (m_up, m_down) order: the m_down weight leads
        space = SpaceRegistry([("M", 2)])
        spectrum = eig_hermitian(DensityOperator(space, np.diag([0.36, 0.64])))
        assert_allclose(spectrum.eigenvalues, [0.64, 0.36])
        assert_allclose(spectrum.states[0].amplitudes, [0, 1], atol=1e-12)
        assert_allclose(spectrum.states[1].amplitudes, [1, 0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self, rng):
        space = SpaceRegistry([("A", 2), ("B", 2), ("C", 2)])
        for _ in range(25):
            rho = random_density(space, rng)
            spectrum = eig_hermitian(rho)
            vectors = np.column_stack([s.amplitudes for s in spectrum.states])
            rebuilt = (vectors * spectrum.eigenvalues) @ vectors.conj().T
            assert np.max(np.abs(rebuilt - rho.matrix)) < 1e-10
            gram = vectors.conj().T @ vectors
            assert np.max(np.abs(gram - np.eye(space.dim))) < 1e-10

    def test_degeneracy_flag(self):
        space = SpaceRegistry([("A", 2)])
        assert eig_hermitian(DensityOperator(space, np.eye(2) / 2)).degenerate
        assert not eig_hermitian(DensityOperator(space, np.diag([0.7, 0.3]))).degenerate

    def test_rejects_nan_matrix(self):
        # the constructor already refuses NaN; bypass it to reach the guard
        rho = DensityOperator.__new__(DensityOperator)
        rho.space = SpaceRegistry([("A", 2)])
        rho.matrix = np.full((2, 2), np.nan)
        with pytest.raises(NotHermitian):
            eig_hermitian(rho)

    def test_phase_convention_deterministic(self, rng):
        space = SpaceRegistry([("A", 3)])
        rho = random_density(space, rng)
        first = eig_hermitian(rho)
        second = eig_hermitian(rho)
        for s1, s2 in zip(first.states, second.states):
            assert_allclose(s1.amplitudes, s2.amplitudes)
        for state in first.states:
            pivot = state.amplitudes[np.argmax(np.abs(state.amplitudes))]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-12


def spectrum_bits(spectrum):
    """Every bit of a spectrum: the flag, the eigenvalue dtype and raw bytes,
    and the raw bytes of each state's amplitudes (signed zeros included)."""
    values = spectrum.eigenvalues
    return spectrum.degenerate, values.dtype.str, values.tobytes(), [state.amplitudes.tobytes() for state in spectrum.states]


def spectrum_inputs():
    """Seeded densities for the spectral oracle: random full and low rank,
    maximally mixed, flat half-rank (plain and rotated), and diagonals whose
    near-ties chain past the 1e-15 tie width."""
    rng = np.random.default_rng(20261019)
    for d in (1, 2, 3, 4, 6, 9, 18, 36):
        space = SpaceRegistry([("A", d)])
        for rank in (d, d, max(1, d // 3), 1):
            yield random_density(space, rng, rank)
        yield DensityOperator(space, np.eye(d) / d)
        half = max(1, d // 2)
        flat = np.diag(np.r_[np.full(half, 1.0 / half), np.zeros(d - half)])
        u = random_unitary(d, rng)
        yield DensityOperator(space, flat)
        yield DensityOperator(space, u @ flat @ u.conj().T)
    # each step is inside the tie width, a run of three steps is not
    chain = 0.125 + 4e-16 * np.arange(8)
    u = random_unitary(8, rng)
    yield DensityOperator(SpaceRegistry([("A", 8)]), np.diag(chain))
    yield DensityOperator(SpaceRegistry([("A", 8)]), u @ np.diag(chain) @ u.conj().T)


def purified_inputs():
    """Each ``spectrum_inputs`` density, then one whose only gap below 1e-9
    runs from the kept 5e-10 down to the dropped 0, paired with an isolated
    purification on (A, R) whose reduced state on A is that density."""
    edge = DensityOperator(SpaceRegistry([("A", 3)]), np.diag([1 - 5e-10, 5e-10, 0.0]))
    for rho in [*spectrum_inputs(), edge]:
        values, vectors = np.linalg.eigh(rho.matrix)
        d = len(values)
        root = vectors * np.sqrt(np.clip(values, 0.0, None))
        yield rho, ReferenceSystem(StateVector(SpaceRegistry([("A", d), ("R", d)]), root.reshape(-1)), isolated=True)


class TestEigHermitianOracle:
    def test_matches_column_loop_bit_for_bit(self):
        count = 0
        for rho in spectrum_inputs():
            assert spectrum_bits(eig_hermitian(rho)) == spectrum_bits(eig_hermitian_by_columns(rho)), rho.matrix
            count += 1
        assert count == 8 * 7 + 2

    def test_ancilla_candidates_match_bit_for_bit(self, rng, monkeypatch):
        systems = [("P1",), ("M1",), ("A1",), ("P1", "M1"), ("M1", "M2"), ("P1", "M1", "A1"), ("A1", "A2")]
        configs = [ExperimentConfig()] + [
            ExperimentConfig(a, np.sqrt(1 - abs(a) ** 2), *rng.uniform(-np.pi, np.pi, 2))
            for a in rng.uniform(0, 1, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        ]
        cases = [(ReferenceSystem(ancilla_experiment(config), isolated=True), system) for config in configs for system in systems]
        arrays = [spectrum_bits(internal_state_candidates(system, ref)) for ref, system in cases]
        monkeypatch.setattr(reference, "eig_hermitian", eig_hermitian_by_columns)
        loops = [spectrum_bits(internal_state_candidates(system, ref)) for ref, system in cases]
        assert arrays == loops
        assert any(bits[0] for bits in arrays) and not all(bits[0] for bits in arrays)

    def test_candidate_cut_matches_list_rule(self):
        kept = []
        for rho, ref in purified_inputs():
            candidates = internal_state_candidates("A", ref)
            expected = candidates_by_lists(eig_hermitian(state_of("A", ref)))
            assert spectrum_bits(candidates) == spectrum_bits(expected), rho.matrix
            kept.append((len(candidates.states), len(rho.matrix)))
        assert any(n == d for n, d in kept) and any(n < d for n, d in kept)
        assert kept[-1] == (2, 3) and candidates.degenerate

    def test_fields_read_only_and_aligned(self):
        for rho, ref in purified_inputs():
            full = eig_hermitian(rho)
            assert len(full.states) == len(rho.matrix)
            for spectrum in (full, internal_state_candidates("A", ref)):
                values = spectrum.eigenvalues
                assert values.dtype == float and not values.flags.writeable
                with pytest.raises(ValueError):
                    values[0] = 0.0
                assert len(values) == len(spectrum.states) and (np.diff(values) <= 0).all()
                for value, state in zip(values, spectrum.states):
                    assert state.space == rho.space and state.batch is None
                    assert np.abs(rho.matrix @ state.amplitudes - value * state.amplitudes).max() <= 1e-10


class TestProjector:
    def test_basis_projector(self):
        space = SpaceRegistry([("A", 2)])
        pi = projector(basis_state(space, 0), space)
        assert_allclose(pi.matrix, np.diag([1.0, 0.0]))

    def test_idempotent(self, rng):
        space = SpaceRegistry([("A", 2), ("B", 3)])
        phi = random_state(space, rng)
        pi = projector(phi, space)
        assert np.max(np.abs(pi.matrix @ pi.matrix - pi.matrix)) < 1e-12

    def test_embedded_trace_counts_complement(self, rng):
        full = SpaceRegistry([("A", 2), ("B", 3)])
        phi = random_state(SpaceRegistry([("A", 2)]), rng)
        pi = projector(phi, full)
        assert abs(np.trace(pi.matrix) - 3.0) < 1e-12

    def test_disjoint_projectors_commute(self, rng):
        full = SpaceRegistry([("A", 2), ("B", 3), ("C", 2)])
        pa = projector(random_state(SpaceRegistry([("A", 2)]), rng), full)
        pc = projector(random_state(SpaceRegistry([("C", 2)]), rng), full)
        assert np.max(np.abs(pa.matrix @ pc.matrix - pc.matrix @ pa.matrix)) < 1e-12

    def test_unknown_label(self, rng):
        phi = random_state(SpaceRegistry([("Z", 2)]), rng)
        with pytest.raises(UnknownLabel):
            projector(phi, SpaceRegistry([("A", 2)]))

    def test_embedding_layout(self, rng):
        # projector on the trailing factor equals kron(I, |phi><phi|)
        full = SpaceRegistry([("A", 2), ("B", 3)])
        phi = random_state(SpaceRegistry([("B", 3)]), rng)
        pi = projector(phi, full)
        expected = np.kron(np.eye(2), np.outer(phi.amplitudes, phi.amplitudes.conj()))
        assert_allclose(pi.matrix, expected, atol=1e-14)


class TestEmbedOperator:
    def test_permuted_embedding_acts_factorwise(self, rng):
        # operator on (C, A) embedded into (A, B, C), applied to a product
        # state, must act on the A and C factors and leave B alone
        a_space = SpaceRegistry([("A", 2)])
        b_space = SpaceRegistry([("B", 2)])
        c_space = SpaceRegistry([("C", 2)])
        full = SpaceRegistry([("A", 2), ("B", 2), ("C", 2)])

        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        op_ca = Operator(SpaceRegistry([("C", 2), ("A", 2)]), np.kron(rot, rot @ rot))
        embedded = embed_operator(op_ca, full)

        u = random_state(a_space, rng)
        v = random_state(b_space, rng)
        w = random_state(c_space, rng)
        moved = embedded.apply(reorder(tensor_product(u, v, w), full.labels))

        expected = reorder(tensor_product(
            StateVector(a_space, (rot @ rot) @ u.amplitudes),
            v,
            StateVector(c_space, rot @ w.amplitudes),
        ), full.labels)
        assert_allclose(moved.amplitudes, expected.amplitudes, atol=1e-12)

    def test_identity_complement_is_unitary(self, rng):
        full = SpaceRegistry([("A", 2), ("B", 3), ("C", 2)])
        phase = np.diag([1.0, 1.0j])
        embedded = embed_operator(Operator(SpaceRegistry([("C", 2)]), phase), full)
        product = embedded.matrix.conj().T @ embedded.matrix
        assert np.max(np.abs(product - np.eye(full.dim))) < 1e-12

    def test_dimension_mismatch(self):
        op = Operator(SpaceRegistry([("A", 3)]), np.eye(3))
        with pytest.raises(ValueError):
            embed_operator(op, SpaceRegistry([("A", 2), ("B", 2)]))


class TestOperatorApply:
    @pytest.mark.parametrize(
        "labels", [("A", "B", "C"), ("C", "A"), ("B",), ("C", "B", "A"), ("A", "C")], ids="".join
    )
    def test_matches_embedding(self, labels, rng):
        full = SpaceRegistry([("A", 2), ("B", 3), ("C", 2)])
        sub = SpaceRegistry((label, full.dims[full.axis(label)]) for label in labels)
        op = Operator(sub, random_unitary(sub.dim, rng))
        psi = random_state(full, rng)
        moved = op.apply(psi)
        assert moved.space == full
        assert_allclose(moved.amplitudes, embed_operator(op, full).apply(psi).amplitudes, atol=1e-12)

    def test_permutation_cache_is_the_argsort_of_front(self, monkeypatch, rng):
        # every registry and label order the apply tests and the scenarios
        # use: the cached pair is _front and its np.argsort, as tuples
        seen, moves = [], linalg._moves
        monkeypatch.setattr(linalg, "_moves", lambda space, labels: seen.append((space, labels)) or moves(space, labels))
        full = SpaceRegistry([("A", 2), ("B", 3), ("C", 2)])
        for labels in [("A", "B", "C"), ("C", "A"), ("B",), ("C", "B", "A"), ("A", "C")]:
            sub = SpaceRegistry((label, full.dims[full.axis(label)]) for label in labels)
            Operator(sub, random_unitary(sub.dim, rng)).apply(random_state(full, rng))
        for scenario in cli.SCENARIOS:
            cli.run(cli.build_spec({"scenario": scenario}))
        assert len({(space.entries, labels) for space, labels in seen}) == 10
        for space, labels in seen:
            perm = linalg._front(space, labels)
            assert moves(space, labels) == (tuple(perm), tuple(np.argsort(perm).tolist()))
            assert all(type(axis) is int for axis in moves(space, labels)[1])

    def test_unknown_label(self, rng):
        op = Operator(SpaceRegistry([("Z", 2)]), np.eye(2))
        with pytest.raises(UnknownLabel):
            op.apply(random_state(SpaceRegistry([("A", 2), ("B", 2)]), rng))

    def test_dimension_mismatch(self, rng):
        op = Operator(SpaceRegistry([("A", 3)]), np.eye(3))
        with pytest.raises(ValueError):
            op.apply(random_state(SpaceRegistry([("A", 2), ("B", 2)]), rng))

    @pytest.mark.parametrize("side", [1, 2])
    def test_result_is_copied_once(self, side):
        # 100 unitaries on one side of the experiment space: the matmul
        # result, plus, when the operator's axes must move back, its one
        # transposed copy, which the state keeps
        config = ExperimentConfig(theta1=tuple(np.linspace(-3, 3, 100)), theta2=tuple(np.linspace(3, -3, 100)))
        particle, pointer = ("P1", "M1") if side == 1 else ("P2", "M2")
        op = measurement_unitary((config.theta1, config.theta2)[side - 1], particle, pointer)
        state = evolve_experiment(ExperimentConfig())
        op.apply(state)
        tracemalloc.start()
        try:
            moved = op.apply(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        copies = 1 if side == 1 else 2
        assert peak < (copies + 0.25) * moved.amplitudes.nbytes
        assert not moved.amplitudes.flags.writeable and moved.amplitudes.flags.c_contiguous

    def test_non_unitary_rejected(self, rng):
        # the last two overflow or meet NaN; refused without a RuntimeWarning
        psi = random_state(SpaceRegistry([("A", 2), ("B", 2)]), rng)
        for matrix in (2 * np.eye(2), np.full((2, 2), 1e308), np.full((2, 2), np.nan)):
            with pytest.raises(NotNormalized):
                Operator(SpaceRegistry([("B", 2)]), matrix).apply(psi)


class TestBatches:
    """A leading batch axis: per-member checks, kernels that carry the
    batch, and single-state operations that refuse it."""

    def test_state_checks_name_the_member(self, rng):
        space = SpaceRegistry([("A", 2)])
        batch = StateVector(space, [[0.6, 0.8], [1.0, 0.0]])
        assert batch.batch == 2 and batch.amplitudes.shape == (2, 2)
        assert_allclose(batch.norm(), [1.0, 1.0], atol=1e-15)
        with pytest.raises(NotNormalized, match="batch member 1"):
            StateVector(space, [[0.6, 0.8], [1.0, 1.0]])
        with pytest.raises(NotNormalized, match="batch member 2"):
            StateVector(space, [[3.0, 4.0], [1.0, 0.0], [np.nan, 0.0]], normalize=True)
        scaled = StateVector(space, [[3.0, 4.0], [0.0, 2.0]], normalize=True)
        assert_allclose(scaled.amplitudes, [[0.6, 0.8], [0.0, 1.0]], atol=1e-15)
        for amplitudes in (np.zeros((0, 2)), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError):
                StateVector(space, amplitudes)

    def test_density_checks_name_the_member(self):
        space = SpaceRegistry([("A", 2)])
        good = np.diag([0.3, 0.7])
        assert DensityOperator(space, [good, good]).batch == 2
        cases = [([[0.5, 0.5], [0.0, 0.5]], NotHermitian), (np.eye(2), ValueError), (np.diag([1.5, -0.5]), ValueError)]
        for bad, error in cases:
            with pytest.raises(error, match="batch member 1"):
                DensityOperator(space, [good, bad, good])

    @pytest.mark.parametrize("op_batched,state_batched", [(True, False), (True, True), (False, True)])
    def test_apply_matches_each_member(self, op_batched, state_batched, rng):
        full = SpaceRegistry([("A", 2), ("B", 3), ("C", 2)])
        sub = SpaceRegistry([("C", 2), ("A", 2)])
        n = 4
        ops = [random_unitary(sub.dim, rng) for _ in range(n)]
        states = [random_state(full, rng) for _ in range(n)]
        op = Operator(sub, ops if op_batched else ops[0])
        psi = StateVector(full, [s.amplitudes for s in states]) if state_batched else states[0]
        moved = op.apply(psi)
        assert moved.batch == n
        for i in range(n):
            single = Operator(sub, ops[i if op_batched else 0]).apply(states[i if state_batched else 0])
            assert_allclose(moved.amplitudes[i], single.amplitudes, rtol=0, atol=1e-15)

    def test_apply_rejects_unequal_batches(self, rng):
        full = SpaceRegistry([("A", 2), ("B", 2)])
        op = Operator(SpaceRegistry([("A", 2)]), [np.eye(2)] * 3)
        psi = StateVector(full, [random_state(full, rng).amplitudes for _ in range(2)])
        with pytest.raises(ValueError, match="batch"):
            op.apply(psi)

    def test_partial_trace_matches_each_member(self, rng):
        space = SpaceRegistry([("A", 2), ("B", 3), ("C", 2)])
        states = [random_state(space, rng) for _ in range(3)]
        batch = StateVector(space, [s.amplitudes for s in states])
        densities = DensityOperator(space, [s.density().matrix for s in states])
        for keep in (["A"], ["C", "A"], ["B"]):
            from_states, from_densities = partial_trace(batch, keep), partial_trace(densities, keep)
            assert from_states.batch == from_densities.batch == 3
            for i, state in enumerate(states):
                expected = partial_trace(state, keep).matrix
                assert_allclose(from_states.matrix[i], expected, rtol=0, atol=1e-15)
                assert_allclose(from_densities.matrix[i], expected, rtol=0, atol=1e-12)
            assert_allclose(np.trace(from_states.matrix, axis1=-2, axis2=-1).real, [1.0] * 3, atol=1e-12)

    def test_single_state_operations_reject_batches(self, rng):
        space = SpaceRegistry([("A", 2)])
        batch = StateVector(space, [[1.0, 0.0], [0.0, 1.0]])
        single = basis_state(space, 0)
        other = basis_state(SpaceRegistry([("B", 2)]), 0)
        rho = DensityOperator(space, [np.eye(2) / 2] * 2)
        calls = [
            ("overlap", lambda: batch.overlap(single)),
            ("overlap", lambda: single.overlap(batch)),
            ("density", batch.density),
            ("tensor_product", lambda: tensor_product(other, batch)),
            ("eig_hermitian", lambda: eig_hermitian(rho)),
        ]
        for name, call in calls:
            with pytest.raises(ValueError, match=f"{name} takes a single value, not a batch of 2"):
                call()
