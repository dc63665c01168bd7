"""Decision oracles for the validation screens.

``linalg._density_rules`` settles the eigenvalue rule by a Gershgorin bound
and sends only the members the bound leaves open to ``eigvalsh``, and a
stack that passes costs whole-stack reductions; ``reference._eigenstates``
passes a stack on one product with a screen prepared with its kets; ``JointDistribution``
decides its rules from one min over the whole table and one sum per member
and walks them one by one only when that test fails.  All must reach the
decisions of the routes in ``oracles`` member by member, with the same
messages and the same first refusal.
"""

import numpy as np
import pytest

from qrs_sim import bell, cli, reference
from qrs_sim.errors import NotHermitian
from qrs_sim.linalg import PSD_TOL, DensityOperator, SpaceRegistry, StateVector, _check, _density_rules, _pure_reduced, tensor_product
from qrs_sim.reference import EIGENSTATE_TOL, JointDistribution, ReferenceSystem, _candidate_kets

from oracles import (
    candidate_kets_by_system,
    density_rules_by_eigvalsh,
    density_rules_per_member,
    eigenstates_by_norm,
    table_rules_by_walk,
    table_rules_per_member,
)

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
    failing member, and the same first refusal, against both the one-
    ``eigvalsh`` route and the per-member forms; returns the oracle's oks."""
    new = _density_rules(mat)
    for old in (density_rules_by_eigvalsh(mat), density_rules_per_member(mat)):
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
    # alone, a star is the whole stack, so its worst residual must widen the screen
    assert [bool(assert_same_decisions(star)[2]) for star in stars] == psd.tolist()
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
        assert refusal(lambda: table_rules_per_member(axes, table)) == expected
        refused += expected is not None
    assert refused >= 20


# --------------------------------------------------------------------------
# whole-stack reductions on a passing stack


def good_stack(d: int) -> np.ndarray:
    """100 random density matrices of dimension ``d``, a mix of ranks."""
    rng = np.random.default_rng(1000 + d)
    return np.concatenate([random_densities(rng, 50, d, d), random_densities(rng, 50, d, max(1, d // 2))])


FAULTS = {
    "hermiticity": lambda m: m + 2e-12 * np.eye(len(m), k=1),
    "trace": lambda m: m + 2e-12 * np.diag(np.eye(len(m))[0]),
    "eigenvalue": lambda m: np.diag([1.0 + 2e-12, -2e-12] + [0.0] * (len(m) - 2)).astype(complex),
    "nan": lambda m: np.where(np.eye(len(m), dtype=bool) & (np.arange(len(m)) == 0), np.nan, m),
    "inf": lambda m: np.where(np.eye(len(m), k=len(m) - 1, dtype=bool), np.inf, m),
}


@pytest.mark.parametrize("member", [0, 57, 99])
@pytest.mark.parametrize("fault", list(FAULTS))
@pytest.mark.parametrize("d", [2, 3, 6])
def test_one_bad_member_among_a_hundred(d, fault, member):
    stack = good_stack(d)
    stack[member] = FAULTS[fault](stack[member])
    oks = assert_same_decisions(stack)
    assert [i for ok in oks for i in failing(ok)] and all(i in ((member,), ()) for ok in oks for i in failing(ok))
    assert_same_decisions(stack.reshape(4, 25, d, d))


def _negative(t):
    t = t.copy()
    t[1, 1] += t[0, 0] + 2e-12
    t[0, 0] = -2e-12
    return t


TABLE_FAULTS = {
    "negative": _negative,
    "sum": lambda t: t * (1.0 + 2e-10),
    "nan": lambda t: np.where([[True, False], [False, False]], np.nan, t),
    "inf": lambda t: np.where([[False, True], [False, False]], np.inf, t),
}


@pytest.mark.parametrize("member", [0, 57, 99])
@pytest.mark.parametrize("fault", list(TABLE_FAULTS))
def test_one_bad_table_among_a_hundred(fault, member):
    table = np.random.default_rng(member).dirichlet(np.ones(4), size=100).reshape(100, 2, 2)
    table[member] = TABLE_FAULTS[fault](table[member])
    axes = ((("M1",), 2), (("M2",), 2))
    expected = refusal(lambda: table_rules_per_member(axes, table))
    assert expected is not None and expected[1].startswith(f"batch member {member}: ")
    assert refusal(lambda: JointDistribution(axes, table)) == expected == refusal(lambda: table_rules_by_walk(axes, table))


def test_bound_exactly_at_half_the_tolerance():
    # a member whose own bound is exactly -PSD_TOL/2 clears the screen alone;
    # a second member's Hermiticity residual widens it past the edge, so the
    # stack goes member by member, and eigvalsh still sees neither
    edge = np.diag([-PSD_TOL / 2, 0.5 + PSD_TOL / 4, 0.5 + PSD_TOL / 4]).astype(complex)
    skewed = random_densities(np.random.default_rng(4), 1, 3, 3)[0] + 9e-13j * np.eye(3, k=-1)
    for stack in (edge[None], np.array([edge, skewed])):
        assert gershgorin(edge[None])[0] == -PSD_TOL / 2
        oks = assert_same_decisions(stack)
        assert all(ok.all() for ok in oks)
    past = edge + np.diag([-np.spacing(PSD_TOL / 2), np.spacing(PSD_TOL / 2), 0.0])
    assert all(ok.all() for ok in assert_same_decisions(past[None]))


@pytest.mark.parametrize("scenario", ["intro-measurement", "pair-correlations", "bell", "bell-ancilla", "chsh-scan"])
def test_no_eigvalsh_on_a_passing_route(scenario, monkeypatch):
    # nor a per-member eigenstate residual norm: the screen passes every
    # built-in route's supplied candidates
    calls, eigvalsh, norm = [], np.linalg.eigvalsh, np.linalg.norm
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append(mat.shape) or eigvalsh(mat))
    monkeypatch.setattr(np.linalg, "norm", lambda x, axis=None: (axis == -2 and calls.append(x.shape)) or norm(x, axis=axis))
    report = cli.run(cli.build_spec({"scenario": scenario, "a": "0.6", "b": "0,0.8", "theta1": "0.3", "theta2": "-1.1"}))
    assert report.ok and calls == []


@pytest.mark.parametrize(
    "edge", [EIGENSTATE_TOL, EIGENSTATE_TOL / 2, EIGENSTATE_TOL / 2 / np.sqrt(8)], ids=["tolerance", "half", "screen"]
)
def test_eigenstate_residual_at_the_edges(edge):
    # with two eigenvalues 0.6 apart, a ket turned by t has a residual of
    # norm about 0.6 t; t walks across the tolerance, half of it and the
    # screen's edge on one real part, TOL / (2 sqrt(2 d))
    rng = np.random.default_rng(21)
    d, n = 4, 2
    basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    rho = basis @ np.diag([0.7, 0.1, 0.2, 0.0]) @ basis.conj().T
    verdicts = []
    for k in range(-6, 7):
        angle = edge / 0.6 * (1.0 + k * 2e-3)
        kets = basis[:, :n] @ np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        stack = np.array([kets, kets[:, ::-1]])
        states = np.array([rho, rho])[:, None].repeat(3, axis=1)
        key = tuple((k_.T.tobytes(), (n, d)) for k_ in stack)
        (_, _, cached, screen), = reference._supplied(key)[1]
        got, expected = reference._eigenstates(states, cached, screen), eigenstates_by_norm(states @ stack[:, None], stack)
        assert got.shape == expected.shape and (got == expected).all()
        verdicts.append(bool(expected.all()))
    if edge == EIGENSTATE_TOL:
        assert verdicts[0] and not verdicts[-1]
    else:
        assert all(verdicts)


def test_eigenstate_residual_spread_over_every_part():
    # rho = |phi><phi| + e (|u><phi| + |phi><u|) with u orthogonal to phi
    # leaves phi the residual e u, whose 2 d real parts all have magnitude
    # e / sqrt(2 d): the residual a per-part screen passes at the largest norm
    d = 4
    phi, u = np.full(d, 0.5, dtype=complex), np.array([1, -1, 1, -1]) * (1 + 1j) / np.sqrt(8)
    stack = phi.reshape(1, d, 1)
    key = ((phi.tobytes(), (1, d)),)
    (_, _, cached, screen), = reference._supplied(key)[1]
    verdicts = []
    for scale in (0.5, 0.9, 0.999, 1.001, 1.1, 1.2):
        e = EIGENSTATE_TOL * scale
        rho = np.outer(phi, phi.conj()) + e * (np.outer(u, phi.conj()) + np.outer(phi, u.conj()))
        states = rho[None, None].repeat(2, axis=1)
        got, expected = reference._eigenstates(states, cached, screen), eigenstates_by_norm(states @ stack[:, None], stack)
        assert got.shape == expected.shape == (1, 2, 1) and (got == expected).all()
        verdicts.append(bool(expected.all()))
    assert verdicts == [True, True, True, False, False, False]


def test_eigenstate_refusals_match_the_per_system_oracle():
    # a pointer's outcome kets turned just under and just over the tolerance,
    # through the whole supplied-candidate check
    config = bell.ExperimentConfig(0.6, 0.8j, (0.3, 1.2, -2.0), (0.9, -0.4, 2.6))
    ref = ReferenceSystem(bell.evolve_experiment(config), isolated=True)
    systems = [("M1",), ("M2",)]
    outcomes = [bell.pointer_outcome_states(label) for label in ("M1", "M2")]
    p = np.abs(bell.correlation_direct(config).probabilities.sum(axis=2))
    gap = float(np.abs(p[:, 0] - p[:, 1]).max())
    refused = []
    for scale in (0.9, 0.999, 1.001, 1.1):
        angle = EIGENSTATE_TOL / gap * scale
        space = bell.pointer_space("M1")
        turned = (StateVector(space, [0.0, np.cos(angle), np.sin(angle)]), StateVector(space, [0.0, -np.sin(angle), np.cos(angle)]))
        candidates = [turned, outcomes[1]]
        got = refusal(lambda: _candidate_kets(systems, ref, candidates))
        assert got == refusal(lambda: candidate_kets_by_system(systems, ref, candidates))
        refused.append(got is not None)
    assert refused[0] is False and refused[-1] is True
