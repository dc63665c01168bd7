"""Decision oracles for the validation screens.

``linalg._density_rules`` settles the eigenvalue rule by a Gershgorin bound
and sends only the members the bound leaves open to ``eigvalsh``;
``JointDistribution`` decides its rules from one min and one sum and walks
them one by one only when that test fails.  Both must reach the decisions
of the routes in ``oracles`` member by member, with the same messages.
"""

import numpy as np
import pytest

from qrs_sim import bell
from qrs_sim.errors import NotHermitian
from qrs_sim.linalg import PSD_TOL, DensityOperator, SpaceRegistry, StateVector, _check, _density_rules, _pure_reduced, tensor_product
from qrs_sim.reference import JointDistribution

from oracles import density_rules_by_eigvalsh, table_rules_by_walk

DIMS = (1, 2, 3, 6, 9)


def failing(ok: np.ndarray) -> list:
    """The index of every member failing ``ok``, as a message takes it."""
    if ok.ndim == 0:
        return [] if ok else [()]
    return [tuple(int(k) for k in i) for i in zip(*np.nonzero(~ok))]


def refusal(check):
    """(type, message) of what ``check()`` raises, None if it passes."""
    try:
        check()
    except (ValueError, NotHermitian) as exc:
        return type(exc), str(exc)
    return None


def assert_same_decisions(mat: np.ndarray) -> list:
    """Equal errors and ``ok`` arrays rule by rule, equal messages for every
    failing member, and the same first refusal; returns the oracle's oks."""
    new, old = _density_rules(mat), density_rules_by_eigvalsh(mat)
    assert len(new) == len(old)
    for (ok, error, message), (ok_old, error_old, message_old) in zip(new, old):
        assert error is error_old
        assert ok.shape == ok_old.shape and (ok == ok_old).all()
        for i in failing(ok_old):
            assert message(i) == message_old(i)
    if mat.ndim <= 3:
        walk = lambda rules: lambda: [_check(*rule) for rule in rules]  # noqa: E731
        assert refusal(walk(new)) == refusal(walk(old))
    return [ok for ok, _, _ in old]


def random_densities(rng, batch: int, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(batch, d, rank)) + 1j * rng.normal(size=(batch, d, rank))
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def gershgorin(mat: np.ndarray) -> np.ndarray:
    """Smallest Gershgorin bound of each Hermitian matrix of a stack."""
    diagonal = np.diagonal(mat, axis1=-2, axis2=-1)
    return (diagonal.real - (np.abs(mat).sum(axis=-1) - np.abs(diagonal))).min(axis=-1)


@pytest.mark.parametrize("rank", ["full", "low"])
@pytest.mark.parametrize("d", DIMS)
def test_random_stacks_match(d, rank):
    rng = np.random.default_rng(100 * d + (rank == "low"))
    stack = random_densities(rng, 40, d, d if rank == "full" else max(1, d // 3))
    assert_same_decisions(stack)
    assert_same_decisions(stack[0])
    assert_same_decisions(stack.reshape(2, 20, d, d))


def route_states() -> dict:
    """The pure states every route validates reduced states of."""
    scan = bell.ExperimentConfig(0.6, 0.8j, *bell._chsh_angles((0.0, np.pi / 2, np.linspace(0, np.pi, 25), np.linspace(0, np.pi, 25) + np.pi / 4))[:2])
    spin = StateVector(bell.particle_space("P"), [0.6, 0.8j])
    intro = bell.measurement_unitary(0.7, "P", "M").apply(tensor_product(spin, bell.pointer_ready_state("M")))
    ancilla = bell.ExperimentConfig(0.8, 0.6, (0.3, -1.1, 2.0), (-2.5, 0.0, 1.0))
    return {
        "intro": (intro, [[("M",)], [("P",)]]),
        "pair": (bell.entangled_pair_state(bell.ExperimentConfig(0.6, 0.8)), [[("P1",), ("P2",)]]),
        "scan": (bell.evolve_experiment(scan), [[("M1",), ("M2",)], [("P1", "M1"), ("P2", "M2")], [("M1", "M2")]]),
        "ancilla": (bell.ancilla_experiment(ancilla), [[("A1",), ("A2",), ("M1",), ("M2",)], [("M1", "M2")], [("P1", "M1")]]),
    }


@pytest.mark.parametrize("route", ["intro", "pair", "scan", "ancilla"])
def test_route_reduced_states_match(route):
    state, groups = route_states()[route]
    for systems in groups:
        d = int(np.prod([state.space.dims[state.space.axis(label)] for label in systems[0]]))
        rho = _pure_reduced(state, systems, d)
        oks = assert_same_decisions(rho.reshape(len(systems), -1, d, d))
        assert all(ok.all() for ok in oks)


def test_smallest_eigenvalue_at_the_edge():
    rng = np.random.default_rng(7)
    edges = [-PSD_TOL + k * np.spacing(PSD_TOL) for k in range(-4, 5)] + [v + k * np.spacing(5e-13) for v in (-5e-13, 5e-13) for k in (-2, 0, 2)]
    for d in (2, 3, 6):
        diagonals = np.array([[edge, *(1.0 - edge) * rng.dirichlet(np.ones(d - 1))] for edge in edges])
        placed = np.zeros((len(edges), d, d), complex)
        placed[:, range(d), range(d)] = diagonals
        oks = assert_same_decisions(placed)
        assert (oks[2] == (diagonals[:, 0] >= -PSD_TOL)).all()
        # the same spectra in a random basis
        q, _ = np.linalg.qr(rng.normal(size=(len(edges), d, d)) + 1j * rng.normal(size=(len(edges), d, d)))
        assert_same_decisions(q @ placed @ q.conj().swapaxes(-1, -2))


def test_eigensolver_rounding_at_the_edge():
    # nearly diagonal matrices whose smallest Gershgorin bound sits a few
    # 1e-17 above -PSD_TOL: eigvalsh rounds some of them below it, so a
    # screen clearing at -PSD_TOL, not -PSD_TOL/2, would accept them
    rng = np.random.default_rng(11)
    n, d = 2000, 3
    off = (rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))) * 1e-17
    stack = off + off.conj().swapaxes(-1, -2)
    k = rng.integers(0, d, n)
    diagonal = rng.uniform(0.1, 1.0, (n, d))
    diagonal[range(n), k] = -PSD_TOL + np.abs(stack[range(n), k]).sum(axis=-1) + rng.integers(0, 4, n) * np.spacing(PSD_TOL)
    diagonal[range(n), (k + 1) % d] += 1.0 - diagonal.sum(axis=1)
    stack[:, range(d), range(d)] = diagonal
    oks = assert_same_decisions(stack)
    assert ((gershgorin(stack) >= -PSD_TOL) & ~oks[2]).any()


def test_hermiticity_residual_just_under_the_tolerance():
    # a star: the lower triangle (which eigvalsh reads) links node 0 with
    # seven leaves by 4.9e-13, the stored upper triangle is zero, so every
    # stored row sum is at most 4.9e-13 while eigvalsh finds -4.9e-13 sqrt(7)
    stars = []
    for c, lower in ((4.9e-13, True), (4.9e-13, False), (3.7e-13, True), (9.9e-13, True)):
        star = np.zeros((9, 9), complex)
        star[8, 8] = 1.0
        star[(range(1, 8), 0) if lower else (0, range(1, 8))] = c
        stars.append(star)
    hermitian, _, psd = assert_same_decisions(np.array(stars))
    assert hermitian.all() and psd.tolist() == [False, True, True, False]
    # a skew part on the first subdiagonal, just under and just over the tolerance
    rho = random_densities(np.random.default_rng(5), 1, 6, 6)[0]
    skewed = np.array([rho + residual * 1j * np.diag(np.ones(5), -1) for residual in (0.999e-12, 1.001e-12)])
    hermitian, _, psd = assert_same_decisions(skewed)
    assert hermitian.tolist() == [True, False] and psd.all()


def test_bad_traces_and_non_finite_entries():
    rng = np.random.default_rng(3)
    base = random_densities(rng, 1, 3, 3)[0]
    cases = []
    for shift in (2e-12, -2e-12, 0.5e-12, 1e-12j):
        cases.append(base + shift * np.diag([1.0, 0.0, 0.0]))
    for value in (np.nan, np.inf, -np.inf, 1e308, complex(np.nan, 1.0)):
        for where in ((0, 0), (1, 2)):
            bad = base.copy()
            bad[where] = value
            cases.append(bad)
    symmetric = base.copy()
    symmetric[0, 2] = symmetric[2, 0] = 1e308
    cases.append(symmetric)
    diagonal = np.diag([1e308, -1e308, 1.0]).astype(complex)
    cases.append(diagonal)
    stack = np.array(cases)
    assert_same_decisions(stack)
    for member in stack:
        assert_same_decisions(member)


@pytest.mark.parametrize("fault", ["hermiticity", "trace", "eigenvalue", "nan"])
@pytest.mark.parametrize("member", [0, 3, 9])
def test_failing_member_is_named(fault, member):
    rng = np.random.default_rng(member)
    stack = random_densities(rng, 10, 3, 2)
    if fault == "hermiticity":
        stack[member, 0, 1] += 1e-9
    elif fault == "trace":
        stack[member] *= 1.0 + 1e-9
    elif fault == "eigenvalue":
        stack[member] = np.diag([1.0 + 3e-12, -3e-12, 0.0])
    else:
        stack[member, 2, 2] = np.nan
    stack[(member + 4) % 10, 1, 1] += 5e-13  # a later member off by less than any tolerance
    assert_same_decisions(stack)
    with pytest.raises((ValueError, NotHermitian), match=f"^batch member {member}: "):
        DensityOperator(SpaceRegistry([("S", 3)]), stack)


def table_cases() -> list:
    """(axes, table) pairs over the probability-table rules' edges."""
    rng = np.random.default_rng(9)
    axes2 = ((("M1",), 2), (("M2",), 2))
    good = rng.dirichlet(np.ones(4), size=6).reshape(6, 2, 2)
    cases = [(axes2, good), (axes2, good[0]), (((("A",), 3),), np.array([0.2, 0.3, 0.5]))]
    faults = {
        "negative-ok": lambda t: t + np.array([[-5e-13, 5e-13], [0.0, 0.0]]),
        "negative": lambda t: t + np.array([[-2e-12, 2e-12], [0.0, 0.0]]),
        "sum": lambda t: t * (1.0 + 2e-10),
        "sum-ok": lambda t: t * (1.0 + 0.5e-10),
        "nan": lambda t: np.where([[True, False], [False, False]], np.nan, t),
        "inf": lambda t: np.where([[False, True], [False, False]], np.inf, t),
        "-inf": lambda t: np.where([[False, False], [True, False]], -np.inf, t),
        "inf-pair": lambda t: np.array([[np.inf, -np.inf], [0.5, 0.5]]),
        "overflow": lambda t: np.array([[1e308, 1e308], [-1e308, 0.0]]),
        "huge": lambda t: np.array([[1e308, 0.0], [0.0, 0.0]]),
    }
    for fault in faults.values():
        cases.append((axes2, fault(good[0])))
        for member in (0, 4):
            stack = good.copy()
            stack[member] = fault(stack[member])
            cases.append((axes2, stack))
    mixed = good.copy()
    mixed[1], mixed[2], mixed[4] = faults["sum"](mixed[1]), faults["negative"](mixed[2]), faults["nan"](mixed[4])
    cases.append((axes2, mixed))
    return cases


def test_table_rules_match_the_walk():
    refused = 0
    for axes, table in table_cases():
        expected = refusal(lambda: table_rules_by_walk(axes, table))
        assert refusal(lambda: JointDistribution(axes, table)) == expected
        refused += expected is not None
    assert refused >= 20
