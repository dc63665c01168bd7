"""Command-line front end: deterministic scenario runs with CSV/JSON reports.

``qrs-sim run --scenario <name> [options]`` evaluates one scenario and
prints a human-readable summary; ``--out`` additionally writes a
machine-readable report (``--format csv|json``).  Output is byte-identical
for identical options (including the seed).  Exit codes: 0 on success, 1
when any internal consistency residual reaches 1e-10 or the library
refuses the run, 2 on configuration errors.

Every option is stated once, in :data:`OPTIONS`: its config-file key, its
flag (``--key``, matched by the full name only), its parser and its help
text.  ``--config`` names a file of such keys; flags override it.  The
coefficient rule is :class:`bell.ExperimentConfig`'s own.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bell
from .errors import ConfigError, NotNormalized, QrsError
from .linalg import StateVector, tensor_product
from .reference import ReferenceSystem, internal_state_candidates, state_of

SCENARIOS = ("intro-measurement", "pair-correlations", "bell", "bell-ancilla", "chsh-scan")
RESIDUAL_GATE = 1e-10
MAX_ANGLE = 2.0 * math.pi + 1e-9
DEFAULT_QUADRUPLE = (0.0, math.pi / 2.0, math.pi / 4.0, 3.0 * math.pi / 4.0)
#: input caps: every grid point adds four settings to each route's batch
#: (1000 steps peak near 50 MB RSS), and the draws are counted in one pass
#: (1e6 bell-ancilla draws peak near 53 MB RSS, against 32 MB unsampled)
MAX_GRID_STEPS = 1000
MAX_SAMPLES = 1_000_000

#: a value argparse would read as an option, such as ``-0.8,0`` or ``-1,1,3``
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


@dataclass(frozen=True)
class ScenarioSpec:
    """Validated run configuration (defaults: maximally entangled pair,
    settings (0, pi/2), JSON format, seed 0, no sampling)."""

    scenario: str
    a: complex = complex(bell.ROOT_HALF)
    b: complex = complex(bell.ROOT_HALF)
    theta1: float = 0.0
    theta2: float = math.pi / 2.0
    angles: tuple[float, float, float, float] | None = None
    grid: tuple[float, float, int] | None = None
    seed: int = 0
    samples: int = 0
    format: str = "json"
    out: str | None = None

    @functools.cached_property
    def config(self) -> bell.ExperimentConfig:
        """The single-setting experiment, built on first use, once."""
        return bell.ExperimentConfig(a=self.a, b=self.b, theta1=self.theta1, theta2=self.theta2)


@dataclass
class ReportTable:
    kind: str
    values: np.ndarray
    axis_names: tuple[str, ...]
    settings: tuple[float, float] | None = None


@dataclass
class RunReport:
    spec: ScenarioSpec
    tables: list[ReportTable] = field(default_factory=list)
    empirical: ReportTable | None = None
    residuals: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_residual < RESIDUAL_GATE

    @property
    def all_tables(self) -> list[ReportTable]:
        """``tables`` followed by the empirical table, if there is one."""
        return self.tables + ([self.empirical] if self.empirical is not None else [])


# ---------------------------------------------------------------------------
# configuration parsing


def _fail(flag: str, message: str) -> ConfigError:
    return ConfigError(f"--{flag}: {message}")


def _parse_complex(text: str, flag: str) -> complex:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) not in (1, 2) or not all(parts):
        raise _fail(flag, f"expected 're' or 're,im', got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise _fail(flag, f"expected numbers, got {text!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise _fail(flag, f"expected finite numbers, got {text!r}")
    return complex(re, im)


def _parse_float(text: str, flag: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise _fail(flag, f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise _fail(flag, f"expected a finite number, got {text!r}")
    return value


def _parse_bounded(text: str, flag: str, low: int = 0, high: int | None = None, name: str = "") -> int:
    """An integer in [low, high], or >= low for no ``high``; ``name``
    leads the out-of-range message."""
    try:
        value = int(str(text), 10)
    except ValueError:
        raise _fail(flag, f"expected an integer, got {text!r}") from None
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise _fail(flag, f"{name}must be {bound}, got {value}")
    return value


def _parse_angle(text: str, flag: str) -> float:
    value = _parse_float(text, flag)
    if abs(value) > MAX_ANGLE:
        raise _fail(
            flag,
            f"{value!r} is outside [-2*pi, 2*pi]; angles are radians, not degrees",
        )
    return float(value)


def _parse_scenario(text: str, flag: str) -> str:
    if text not in SCENARIOS:
        raise _fail(flag, f"unknown scenario {text!r}; choose from {', '.join(SCENARIOS)}")
    return text


def _parse_quadruple(text: str, flag: str) -> tuple[float, float, float, float]:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 4:
        raise _fail(flag, f"expected four comma-separated angles, got {text!r}")
    return tuple(_parse_angle(p, flag) for p in parts)


def _parse_grid(text: str, flag: str) -> tuple[float, float, int]:
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 3:
        raise _fail(flag, f"expected 'start,stop,steps', got {text!r}")
    start = _parse_angle(parts[0], flag)
    stop = _parse_angle(parts[1], flag)
    steps = _parse_bounded(parts[2], flag, 1, MAX_GRID_STEPS, "steps ")
    return (start, stop, steps)


def _parse_format(text: str, flag: str) -> str:
    fmt = str(text).strip().lower()
    if fmt not in ("csv", "json"):
        raise _fail(flag, f"expected 'csv' or 'json', got {text!r}")
    return fmt


#: the options of ``run``, in validation order: each key is a config-file
#: key and, as ``--key``, a flag; maps to (parser of its raw text, --help text)
OPTIONS = {
    "scenario": (_parse_scenario, "scenario to run"),
    "a": (_parse_complex, "first pair coefficient, 're' or 're,im'"),
    "b": (_parse_complex, "second pair coefficient, 're' or 're,im'"),
    "theta1": (_parse_angle, "first measurement angle from z, radians"),
    "theta2": (_parse_angle, "second measurement angle from z, radians"),
    "angles": (_parse_quadruple, "CHSH quadruple 'alpha,alpha2,beta,beta2', radians"),
    "grid": (_parse_grid, f"scan grid 'start,stop,steps' (chsh-scan only; 1 <= steps <= {MAX_GRID_STEPS})"),
    "seed": (_parse_bounded, "sampling seed (default 0)"),
    "samples": (functools.partial(_parse_bounded, high=MAX_SAMPLES), f"number of samples to draw (default 0, at most {MAX_SAMPLES})"),
    "format": (_parse_format, "report format: csv or json (default json)"),
    "out": (lambda text, flag: str(text) or None, "path for the machine-readable report"),
}
#: every flag of ``run`` takes one value; ``--config`` is the one that is no key
_VALUE_FLAGS = frozenset(f"--{key}" for key in (*OPTIONS, "config"))


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` file, ``#`` comments; returns raw strings."""
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config: cannot read {path!r}: {exc}") from None
    for number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{number}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{number}: unknown key {key!r}")
        values[key] = value
    return values


def build_spec(values: dict[str, str]) -> ScenarioSpec:
    """Validate merged file/flag values into a :class:`ScenarioSpec`: each
    key by its parser in ``OPTIONS``, then the coefficients (by the rule
    of :class:`bell.ExperimentConfig`), then the rules across keys."""
    if not values.get("scenario"):
        raise ConfigError("--scenario: missing (required field)")
    spec = ScenarioSpec(**{key: parse(values[key], key) for key, (parse, _) in OPTIONS.items() if key in values})
    bell._check_coefficients(spec.a, spec.b)

    if spec.scenario != "chsh-scan":
        if spec.grid is not None:
            raise _fail("grid", "only the chsh-scan scenario takes a grid")
        if spec.angles is not None:
            raise _fail("angles", "only the chsh-scan scenario takes an angle quadruple")
    elif spec.samples > 0:
        raise _fail("samples", "the chsh-scan scenario has no distribution to sample")

    return spec


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; built on first use, never changed.
    Flags are matched by their full names only."""
    parser = argparse.ArgumentParser(
        prog="qrs-sim",
        description="Deterministic spin-correlation scenario runner.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser(
        "run",
        help="evaluate one scenario",
        description=(
            "Evaluate one scenario and print a summary; --out writes a CSV or "
            "JSON report.  All angles are radians (values beyond 2*pi are "
            "rejected as likely degrees).  Defaults: the maximally entangled "
            "pair a = b = 1/sqrt(2) at settings theta1 = 0, theta2 = pi/2."
        ),
        epilog=(
            "chsh-scan uses the quadruple from --angles (default 0, pi/2, "
            "pi/4, 3*pi/4); with --grid start,stop,steps it scans the third "
            "angle over the grid, keeping the first two fixed and the fourth "
            "at its original offset from the third."
        ),
        allow_abbrev=False,
    )
    run_p.add_argument("--scenario", choices=SCENARIOS, help=OPTIONS["scenario"][1])
    run_p.add_argument("--config", help="flat key=value config file; flags override it")
    for key, (_, text) in list(OPTIONS.items())[1:]:
        run_p.add_argument(f"--{key}", help=text)
    return parser


def parse_config(argv) -> ScenarioSpec:
    """Parse command-line arguments (and an optional config file) into a
    validated spec.  Flags override file values."""
    tokens: list[str] = []
    for token in argv:
        # '--b -0.8,0' is read as '--b=-0.8,0'
        if tokens and tokens[-1] in _VALUE_FLAGS and _NEGATIVE_VALUE.match(token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = _build_parser().parse_args(tokens)
    values: dict[str, str] = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return build_spec(values)


# ---------------------------------------------------------------------------
# scenario evaluation


def _max_abs(x, y=0.0) -> float:
    """max |x - y| over all cells: the one form of every residual."""
    return float(np.abs(x - y).max())


def _report(spec: ScenarioSpec, tables, pairs, metrics, sampled=None) -> RunReport:
    """A table per ``(kind, values, axis_names[, settings])``, the residual
    of each ``(name, x, y)`` pair in order, the metrics, and for samples the
    empirical table of ``sampled = (distribution, axis_names)``."""
    residuals = {name: _max_abs(x, y) for name, x, y in pairs}
    report = RunReport(spec, [ReportTable(*table) for table in tables], None, residuals, metrics)
    if sampled is not None and spec.samples > 0:
        dist, axis_names = sampled
        freq = dist.frequencies(spec.seed, spec.samples)
        report.empirical = ReportTable("empirical", freq, axis_names)
        report.metrics["empirical_max_deviation"] = _max_abs(freq, dist.probabilities)
    return report


def _run_intro(spec: ScenarioSpec) -> RunReport:
    spin = StateVector(bell.particle_space("P"), [spec.a, spec.b])
    start = tensor_product(spin, bell.pointer_ready_state("M"))
    unitary = bell.measurement_unitary(spec.theta1, "P", "M")
    final = unitary.apply(start)
    reference = ReferenceSystem(final, isolated=True)

    dist = bell.pointer_tables(final, ("M",))[0]
    marginal = dist.probabilities
    xi = bell.spin_eigenstates(spec.theta1, "P")
    born = np.array([abs(state.overlap(spin)) ** 2 for state in xi])
    candidates = internal_state_candidates(("M",), reference)
    device_state = state_of("M", reference).matrix

    tables = [
        ("device_marginal", marginal, ("j",)),
        ("device_state_diagonal", np.real(np.diag(device_state)), ("m",)),
        ("candidate_weights", candidates.eigenvalues, ("n",)),
    ]
    pairs = [
        ("state_norm", final.norm(), 1.0),
        ("table_sum:device_marginal", marginal.sum(), 1.0),
        ("route:born_vs_direct", marginal, born),
        ("device_state_offdiagonal", device_state, np.diag(np.diag(device_state))),
    ]
    metrics = {"candidate_degenerate": float(candidates.degenerate)}
    return _report(spec, tables, pairs, metrics, (dist, ("j",)))


def _run_pair(spec: ScenarioSpec) -> RunReport:
    config = spec.config
    dist = bell.pair_distribution(config)
    pairs = [
        ("table_sum:pair_table", dist.probabilities.sum(), 1.0),
        ("route:direct_vs_coefficients", dist.probabilities, np.diag(config._weights)),
    ]
    return _report(spec, [("pair_table", dist.probabilities, ("j", "k"))], pairs, {}, (dist, ("j", "k")))


def _run_bell(spec: ScenarioSpec) -> RunReport:
    config = spec.config
    final = bell.evolve_experiment(config)
    entangled = bell.correlation_entangled(config)
    factorized = bell.correlation_factorized(config)
    direct = bell.pointer_tables(final, (bell.M1, bell.M2))[0]
    marginal1 = bell.device_marginal(final, 1)
    marginal2 = bell.device_marginal(final, 2)

    settings = (spec.theta1, spec.theta2)
    tables = [
        ("entangled", entangled.probabilities, ("j", "k"), settings),
        ("factorized", factorized.probabilities, ("j", "k"), settings),
        ("direct", direct.probabilities, ("j", "k"), settings),
        ("device_marginal_1", marginal1, ("j",)),
        ("device_marginal_2", marginal2, ("k",)),
    ]
    # each side's marginal of the entangled table against that side's device
    routed = np.concatenate([entangled.probabilities.sum(axis=1), entangled.probabilities.sum(axis=0)])
    pairs = [
        ("state_norm", final.norm(), 1.0),
        ("route:entangled_vs_direct", entangled.probabilities, direct.probabilities),
        ("table_sum:entangled", entangled.probabilities.sum(), 1.0),
        ("table_sum:factorized", factorized.probabilities.sum(), 1.0),
        ("marginal:entangled_vs_device", routed, np.concatenate([marginal1, marginal2])),
    ]
    metrics = {"correlator_entangled": bell.correlator(entangled), "correlator_factorized": bell.correlator(factorized)}
    return _report(spec, tables, pairs, metrics, (direct, ("j", "k")))


def _run_ancilla(spec: ScenarioSpec) -> RunReport:
    config = spec.config
    state = bell.ancilla_experiment(config)
    # one pass for both tables validates M1 and M2 once
    n4, direct = bell.pointer_tables(state, (bell.A1, bell.A2, bell.M1, bell.M2), (bell.M1, bell.M2))
    intuitive = bell.intuitive_joint(config)
    collapsed = direct.probabilities
    factorized = bell.correlation_factorized(config)
    entangled = bell.correlation_entangled(config)

    settings = (spec.theta1, spec.theta2)
    tables = [
        ("ancilla_joint", n4.probabilities, ("l1", "l2", "j", "k"), settings),
        ("direct", collapsed, ("j", "k"), settings),
        ("factorized", factorized.probabilities, ("j", "k"), settings),
        ("entangled", entangled.probabilities, ("j", "k"), settings),
    ]
    pairs = [
        ("state_norm", state.norm(), 1.0),
        ("route:ancilla_joint_vs_intuitive", n4.probabilities, intuitive),
        ("route:devices_vs_factorized", collapsed, factorized.probabilities),
        ("table_sum:ancilla_joint", n4.probabilities.sum(), 1.0),
    ]
    metrics = {"correlation_change": _max_abs(collapsed, entangled.probabilities)}
    return _report(spec, tables, pairs, metrics, (n4, ("l1", "l2", "j", "k")))


@functools.lru_cache(maxsize=4)
def _scan_angles(bits: str, angles, grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A scan's grid points and each side's angles over its settings, all
    read-only; ``bits``, the repr of ``(angles, grid)``, keeps a -0.0 grid
    apart from the 0.0 one that equals it."""
    alpha, alpha_p, beta, beta_p = angles if angles else DEFAULT_QUADRUPLE
    points = np.linspace(*grid) if grid else np.array([beta])
    arrays = (points, *bell._chsh_angles((alpha, alpha_p, points, points + (beta_p - beta)))[:2])
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _run_chsh_scan(spec: ScenarioSpec) -> RunReport:
    # the whole grid is one settings batch, its angles built once per grid;
    # each route takes it in one call, and S is taken for all three in one pass
    points, theta1, theta2 = _scan_angles(repr((spec.angles, spec.grid)), spec.angles, spec.grid)
    config = bell.ExperimentConfig(spec.a, spec.b, theta1, theta2)
    s_ent, s_fac, s_direct = bell._chsh_value([route(config) for route in bell._TABLE_ROUTES.values()], False)

    tables = [
        ("scan_angle", points.astype(float), ("point",)),
        ("chsh_entangled", s_ent, ("point",)),
        ("chsh_factorized", s_fac, ("point",)),
    ]
    metrics = {"chsh_entangled_max_abs": _max_abs(s_ent), "chsh_factorized_max_abs": _max_abs(s_fac)}
    return _report(spec, tables, [("route:chsh_closed_vs_direct", s_ent, s_direct)], metrics)


_RUNNERS = {
    "intro-measurement": _run_intro,
    "pair-correlations": _run_pair,
    "bell": _run_bell,
    "bell-ancilla": _run_ancilla,
    "chsh-scan": _run_chsh_scan,
}


def run(spec: ScenarioSpec) -> RunReport:
    """Evaluate the scenario and collect tables plus consistency residuals."""
    return _RUNNERS[spec.scenario](spec)


# ---------------------------------------------------------------------------
# report rendering


def _spec_dict(spec: ScenarioSpec) -> dict:
    """The spec's options but the output ones, a complex value as [re, im]."""
    values = {key: getattr(spec, key) for key in OPTIONS if key not in ("format", "out")}
    return {key: [v.real, v.imag] if isinstance(v, complex) else v for key, v in values.items()}


def _table_dict(table: ReportTable) -> dict:
    out = {
        "kind": table.kind,
        "axis_names": list(table.axis_names),
        "shape": list(table.values.shape),
        "values": table.values.tolist(),
    }
    if table.settings is not None:
        out["settings"] = list(table.settings)
    return out


def report_dict(report: RunReport) -> dict:
    out = {
        "spec": _spec_dict(report.spec),
        "tables": [_table_dict(t) for t in report.tables],
        "residuals": report.residuals,
        "metrics": report.metrics,
        "ok": report.ok,
    }
    if report.empirical is not None:
        out["empirical"] = _table_dict(report.empirical)
    return out


def _csv_rows(report: RunReport):
    scenario = report.spec.scenario
    for table in report.all_tables:
        for index in np.ndindex(table.values.shape):
            cells = [str(i + 1) for i in index] + [""] * (4 - len(index))
            yield [scenario, table.kind, *cells, f"{float(table.values[index]):.17g}"]
    for name in sorted(report.residuals):
        yield [scenario, f"residual:{name}", "", "", "", "", f"{report.residuals[name]:.17g}"]


def emit(report: RunReport, fmt: str, path: str) -> None:
    """Write the machine-readable report; byte-identical for identical
    specs (including the seed)."""
    if fmt == "json":
        payload = json.dumps(report_dict(report), indent=2) + "\n"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(payload)
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["scenario", "kind", "i1", "i2", "i3", "i4", "value"])
            writer.writerows(_csv_rows(report))
    else:
        raise ConfigError(f"--format: expected 'csv' or 'json', got {fmt!r}")


def format_text(report: RunReport) -> str:
    lines = [f"scenario: {report.spec.scenario}"]
    spec = report.spec
    lines.append(
        f"  a = {spec.a}, b = {spec.b}, theta1 = {spec.theta1!r}, theta2 = {spec.theta2!r}"
    )
    if spec.angles:
        lines.append(f"  angles = {tuple(spec.angles)}")
    if spec.grid:
        lines.append(f"  grid = {tuple(spec.grid)}")
    for table in report.all_tables:
        label = table.kind
        if table.settings is not None:
            label += f" @ ({table.settings[0]:.6g}, {table.settings[1]:.6g})"
        body = np.array2string(table.values, precision=12, suppress_small=False)
        lines.append(f"{label} {table.axis_names}:")
        lines.extend("  " + row for row in body.splitlines())
    for name, value in report.metrics.items():
        lines.append(f"metric {name} = {value:.12g}")
    for name in sorted(report.residuals):
        lines.append(f"residual {name} = {report.residuals[name]:.3e}")
    verdict = "OK" if report.ok else "FAIL"
    lines.append(f"invariants {verdict} (max residual {report.max_residual:.3e}, gate {RESIDUAL_GATE:g})")
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        spec = parse_config(sys.argv[1:] if argv is None else argv)
    except (ConfigError, NotNormalized) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(spec)
    except QrsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_text(report))
    if spec.out:
        try:
            emit(report, spec.format, spec.out)
        except OSError as exc:
            print(f"error: cannot write {spec.out!r}: {exc}", file=sys.stderr)
            return 2
    if not report.ok:
        print(
            f"invariant failure: max residual {report.max_residual:.3e} >= {RESIDUAL_GATE:g}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
