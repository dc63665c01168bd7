"""The three benchmark workloads: seeded input streams, one program call per
op, and an output check per op written in the benchmark's own numpy code.

Each workload is a closed loop with one caller that waits for every
result, as a script or a command-line user does.  See README.md for why
these three were chosen and which layer each one stresses.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from qrs_sim import bell, cli

#: the paper's acceptance gate; no check here is looser
TOL = 1e-12
TSIRELSON = 2.0 * math.sqrt(2.0)
DEFAULT_QUADRUPLE = (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
SCAN_STEPS = 25
SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


# ---------------------------------------------------------------------------
# closed forms, independent of the package


def overlaps(theta, side: int) -> np.ndarray:
    """O[..., j, l] = <xi_j(theta)|phi_{side,l}> for spin axes in the x-z
    plane; side 1 pairs l = 1, 2 with (up, down), side 2 with (down, up)."""
    half = np.asarray(theta, dtype=float) / 2.0
    c, s = np.cos(half), np.sin(half)
    xi = np.stack([np.stack([c, s], -1), np.stack([-s, c], -1)], -2)
    return xi if side == 1 else xi[..., ::-1]


def interference_table(coeffs, theta1, theta2) -> np.ndarray:
    """P(j, k) = |sum_l c_l O1[j, l] O2[k, l]|^2, broadcast over settings."""
    theta1, theta2 = np.broadcast_arrays(theta1, theta2)
    amp = np.einsum("...jl,l,...kl->...jk", overlaps(theta1, 1), coeffs, overlaps(theta2, 2))
    return np.abs(amp) ** 2


def product_table(coeffs, theta1, theta2) -> np.ndarray:
    """P(j, k) = sum_l |c_l|^2 O1[j, l]^2 O2[k, l]^2, broadcast over settings."""
    theta1, theta2 = np.broadcast_arrays(theta1, theta2)
    weights = np.abs(coeffs) ** 2
    return np.einsum("...jl,l,...kl->...jk", overlaps(theta1, 1) ** 2, weights, overlaps(theta2, 2) ** 2)


def chsh_value(table, coeffs, alpha, alpha_p, beta, beta_p) -> np.ndarray:
    def e(t1, t2):
        return np.einsum("...jk,jk->...", table(coeffs, t1, t2), SIGN)

    return e(alpha, beta) - e(alpha, beta_p) + e(alpha_p, beta) + e(alpha_p, beta_p)


def recorded_joint_table(coeffs, theta1, theta2) -> np.ndarray:
    """Would-be joint table over (l1, l2, j, k):
    |c_l|^2 delta_{l1 l2} |<xi1_j|phi_1l>|^2 |<xi2_k|phi_2l>|^2."""
    o1 = overlaps(theta1, 1) ** 2
    o2 = overlaps(theta2, 2) ** 2
    table = np.zeros((2, 2, 2, 2))
    for l in range(2):
        table[l, l] = abs(coeffs[l]) ** 2 * np.outer(o1[:, l], o2[:, l])
    return table


# ---------------------------------------------------------------------------
# input generation


def random_pair(rng) -> tuple[complex, complex]:
    """Unit-norm complex (a, b) whose parts take either sign."""
    z = rng.normal(size=4)
    a, b = complex(z[0], z[1]), complex(z[2], z[3])
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


def complex_text(z: complex) -> str:
    # repr round-trips, so the program parses exactly the drawn value
    return f"{z.real!r},{z.imag!r}"


def report_tables(report) -> dict:
    return {table.kind: table.values for table in report.tables}


def max_abs_diff(x, y) -> float:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return math.inf
    return float(np.max(np.abs(x - y)))


def embed_cache():
    """The package's cache of embedded measurement unitaries, or None once
    a later version drops it."""
    cache = getattr(bell, "_embedded_measurement", None)
    return cache if hasattr(cache, "cache_info") else None


class Workload:
    """One seeded op stream.  ``reset`` restarts the stream at the seed,
    empties the package's cache and warms up on a separate stream, so every
    pass over the first n ops does identical work."""

    name = ""
    warmup_ops = 1
    #: expected ops per second on a 2-core x86 host; sizes the traced run
    nominal_ops_per_s = 1.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.recorder = None
        self.rng = None

    def reset(self) -> None:
        cache = embed_cache()
        if cache is not None:
            cache.cache_clear()
        self.rng = np.random.default_rng([self.seed, 1])
        for _ in range(self.warmup_ops):
            inputs = self.draw()
            if not self.check(inputs, self.call(inputs)):
                raise RuntimeError(f"{self.name}: warm-up op failed its output check")
        self.rng = np.random.default_rng([self.seed, 0])

    def draw(self):
        raise NotImplementedError

    def call(self, inputs):
        """One scenario run: ``cli.build_spec`` + ``cli.run`` of the drawn values."""
        values, _ = inputs
        return cli.run(cli.build_spec(values))

    def check(self, inputs, output) -> bool:
        raise NotImplementedError


class ChshScan(Workload):
    """``chsh-scan`` over a 25-point grid at the default quadruple, fresh
    random (a, b) per op; the settings recur, so the embed cache hits."""

    name = "chsh_scan"
    warmup_ops = 2
    nominal_ops_per_s = 12.0

    def draw(self):
        a, b = random_pair(self.rng)
        values = {
            "scenario": "chsh-scan",
            "a": complex_text(a),
            "b": complex_text(b),
            "grid": f"0,{math.pi!r},{SCAN_STEPS}",
        }
        return values, (a, b)

    def check(self, inputs, report) -> bool:
        _, (a, b) = inputs
        coeffs = np.array([a, -b])
        tables = report_tables(report)
        alpha, alpha_p, beta, beta_p = DEFAULT_QUADRUPLE
        points = np.linspace(0.0, math.pi, SCAN_STEPS)
        quad = (alpha, alpha_p, points, points + (beta_p - beta))
        s_ent = chsh_value(interference_table, coeffs, *quad)
        s_fac = chsh_value(product_table, coeffs, *quad)
        return (
            report.ok
            and max_abs_diff(tables["scan_angle"], points) <= TOL
            and max_abs_diff(tables["chsh_entangled"], s_ent) <= TOL
            and max_abs_diff(tables["chsh_factorized"], s_fac) <= TOL
            and float(np.max(np.abs(tables["chsh_entangled"]))) <= TSIRELSON + TOL
            and float(np.max(np.abs(tables["chsh_factorized"]))) <= 2.0 + TOL
            and report.residuals["route:chsh_closed_vs_direct"] <= TOL
        )


class AncillaSweep(Workload):
    """``bell-ancilla`` at random (a, b, theta1, theta2); the angles never
    repeat, so every embedding is computed afresh."""

    name = "ancilla_sweep"
    warmup_ops = 4
    nominal_ops_per_s = 35.0

    def draw(self):
        a, b = random_pair(self.rng)
        theta1, theta2 = (float(t) for t in self.rng.uniform(-math.pi, math.pi, size=2))
        values = {
            "scenario": "bell-ancilla",
            "a": complex_text(a),
            "b": complex_text(b),
            "theta1": repr(theta1),
            "theta2": repr(theta2),
        }
        return values, (a, b, theta1, theta2)

    def check(self, inputs, report) -> bool:
        _, (a, b, theta1, theta2) = inputs
        coeffs = np.array([a, -b])
        tables = report_tables(report)
        return (
            report.ok
            and max_abs_diff(tables["ancilla_joint"], recorded_joint_table(coeffs, theta1, theta2)) <= TOL
            and max_abs_diff(tables["direct"], product_table(coeffs, theta1, theta2)) <= TOL
        )


CLI_SCENARIOS = ("intro-measurement", "pair-correlations", "bell")
#: one op in RERUN_EVERY is run twice and must reproduce byte for byte
RERUN_EVERY = 8


class CliMix(Workload):
    """In-process ``cli.main(argv)`` over a seeded mix of scenarios, with
    reports written alternately as CSV and JSON.

    Every flag is passed as ``--flag=value``: the space-separated form makes
    argparse read a negative value such as ``-0.8,0`` or ``-1,1,3`` as an
    unknown option, so ``cli.main`` raises ``SystemExit(2)`` instead of
    returning.
    """

    name = "cli_mix"
    warmup_ops = 16
    nominal_ops_per_s = 150.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self._block: list = []
        self._count = 0

    def reset(self) -> None:
        # warm-up and measured ops each start on a fresh block
        self._block, self._count = [], 0
        super().reset()
        self._block, self._count = [], 0

    def _next_kind(self):
        # blocks of eight: each non-scan scenario once with --samples and
        # once without, plus two single-quadruple scans, in seeded order;
        # the stratified mix keeps seeds comparable
        if not self._block:
            kinds = [(s, sampled) for s in CLI_SCENARIOS for sampled in (False, True)]
            kinds += [("chsh-scan", False)] * 2
            self._block = [kinds[i] for i in self.rng.permutation(len(kinds))]
        return self._block.pop()

    def draw(self):
        scenario, sampled = self._next_kind()
        rng = self.rng
        a, b = random_pair(rng)
        fmt = ("json", "csv")[self._count % 2]
        self._count += 1
        argv = ["run", f"--scenario={scenario}", f"--a={complex_text(a)}", f"--b={complex_text(b)}"]
        if scenario == "chsh-scan":
            angles = ",".join(repr(float(t)) for t in rng.uniform(-math.pi, math.pi, size=4))
            argv.append(f"--angles={angles}")
        else:
            theta1, theta2 = rng.uniform(-math.pi, math.pi, size=2)
            argv += [f"--theta1={float(theta1)!r}", f"--theta2={float(theta2)!r}"]
            if sampled:
                argv += [f"--seed={int(rng.integers(0, 2**31))}", f"--samples={int(rng.integers(1000, 4000))}"]
        argv += [f"--format={fmt}", f"--out={os.path.join(self.workdir, 'report.' + fmt)}"]
        rerun = int(rng.integers(RERUN_EVERY)) == 0
        return argv, fmt, rerun

    def _main(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue()

    def call(self, inputs):
        argv, _, _ = inputs
        code, text = self._main(argv)
        return code, text, argv[-1].partition("=")[2]

    def check(self, inputs, output) -> bool:
        argv, fmt, rerun = inputs
        code, text, path = output
        if code != 0 or not text.rstrip().splitlines()[-1].startswith("invariants OK"):
            return False
        with open(path, "rb") as handle:
            payload = handle.read()
        if fmt == "json":
            report = json.loads(payload)
            residuals = list(report["residuals"].values())
            if report["ok"] is not True:
                return False
        else:
            rows = list(csv.reader(io.StringIO(payload.decode("utf-8"))))
            if rows[0] != ["scenario", "kind", "i1", "i2", "i3", "i4", "value"]:
                return False
            residuals = [float(row[-1]) for row in rows[1:] if row[1].startswith("residual:")]
        if not residuals or max(residuals) > TOL:
            return False
        if rerun:
            return self._reproduces(argv, text, path, payload)
        return True

    def _reproduces(self, argv, text, path, payload) -> bool:
        # the re-run is a check, not part of the traced workload
        if self.recorder is not None:
            self.recorder.enabled = False
        try:
            code, again = self._main(argv)
        finally:
            if self.recorder is not None:
                self.recorder.enabled = True
        with open(path, "rb") as handle:
            return code == 0 and again == text and handle.read() == payload


WORKLOADS = {w.name: w for w in (ChshScan, AncillaSweep, CliMix)}
