import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrs_sim.cli import (
    DEFAULT_QUADRUPLE,
    MAX_GRID_STEPS,
    MAX_SAMPLES,
    OPTIONS,
    RESIDUAL_GATE,
    SCENARIOS,
    ReportTable,
    RunReport,
    ScenarioSpec,
    build_spec,
    emit,
    load_config_file,
    main,
    parse_config,
    run,
)
from qrs_sim import bell, cli, linalg, reference
from qrs_sim.bell import COEFF_MARGIN, COEFF_TOL, ExperimentConfig
from qrs_sim.errors import ConfigError, NotNormalized

import cli_corpus

SINGLET_FLAGS = [
    "run",
    "--scenario",
    "bell",
    "--a",
    "0.7071067811865476",
    "--b",
    "0.7071067811865476",
    "--theta1",
    "0",
    "--theta2",
    "1.5707963267948966",
]


#: per key of the option table: a value it parses, plus the other keys it needs
KEY_CASES = {
    "scenario": ("bell-ancilla", {}),
    "a": ("-0.6,0", {"b": "0.8"}),
    "b": ("0,-0.8", {"a": "0.6"}),
    "theta1": ("-1.25", {}),
    "theta2": ("0.5", {}),
    "angles": ("-0.5,0,1,2", {"scenario": "chsh-scan"}),
    "grid": ("-1,1,3", {"scenario": "chsh-scan"}),
    "seed": ("7", {}),
    "samples": ("12", {}),
    "format": ("CSV", {}),
    "out": ("report.csv", {}),
}


def table_by_kind(report, kind):
    for table in report.tables:
        if table.kind == kind:
            return table.values
    raise KeyError(kind)


class TestParsing:
    def test_flag_roundtrip(self):
        spec = parse_config(SINGLET_FLAGS)
        assert spec.scenario == "bell"
        assert spec.a == complex(0.7071067811865476)
        assert spec.b == complex(0.7071067811865476)
        assert spec.theta1 == 0.0
        assert spec.theta2 == 1.5707963267948966
        assert spec.samples == 0 and spec.seed == 0 and spec.format == "json"

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config(["run", "--theta1", "0"])

    def test_unnormalized_coefficients(self):
        with pytest.raises(NotNormalized):
            parse_config(["run", "--scenario", "bell", "--a", "1", "--b", "1"])

    def test_degrees_rejected_with_hint(self):
        with pytest.raises(ConfigError, match="radians"):
            parse_config(["run", "--scenario", "bell", "--theta1", "90"])

    def test_complex_coefficient_syntax(self):
        spec = parse_config(["run", "--scenario", "bell", "--a", "0.6,0.0", "--b", "0,-0.8"])
        assert spec.a == 0.6 + 0j
        assert spec.b == -0.8j

    def test_grid_only_for_scan(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_config(["run", "--scenario", "bell", "--grid", "0,1,5"])

    def test_angles_only_for_scan(self):
        with pytest.raises(ConfigError, match="angles"):
            parse_config(["run", "--scenario", "bell", "--angles", "0,1,2,3"])

    def test_sampling_not_defined_for_scan(self):
        with pytest.raises(ConfigError, match="samples"):
            parse_config(["run", "--scenario", "chsh-scan", "--samples", "10"])

    def test_bad_grid_steps(self):
        with pytest.raises(ConfigError, match="steps"):
            parse_config(["run", "--scenario", "chsh-scan", "--grid", "0,1,0"])
        with pytest.raises(ConfigError, match="steps"):
            build_spec({"scenario": "chsh-scan", "grid": f"0,1,{MAX_GRID_STEPS + 1}"})

    def test_sampling_bounds(self):
        with pytest.raises(ConfigError, match="samples"):
            build_spec({"scenario": "bell", "samples": str(MAX_SAMPLES + 1)})
        with pytest.raises(ConfigError, match="seed"):
            build_spec({"scenario": "bell", "seed": "-1", "samples": "5"})

    def test_config_file_merge_and_override(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# scenario file\n"
            "scenario = bell\n"
            "a = 0.6\n"
            "b = 0.8\n"
            "theta2 = 0.5  # radians\n"
        )
        spec = parse_config(["run", "--config", str(path), "--b", "0.8,0"])
        assert spec.scenario == "bell"
        assert spec.a == 0.6 + 0j
        assert spec.b == 0.8 + 0j
        assert spec.theta2 == 0.5

    def test_parses_are_independent(self, tmp_path):
        first_file, second_file = tmp_path / "first.cfg", tmp_path / "second.cfg"
        first_file.write_text("scenario = bell\nsamples = 7\nseed = 3\n")
        second_file.write_text("scenario = pair-correlations\na = 0.6\nb = 0.8\n")
        first = parse_config(["run", "--config", str(first_file), "--theta1", "0.5"])
        second = parse_config(["run", "--config", str(second_file), "--format", "csv"])
        assert (first.scenario, first.samples, first.seed, first.theta1, first.format) == ("bell", 7, 3, 0.5, "json")
        assert (second.scenario, second.samples, second.seed, second.theta1, second.format) == (
            "pair-correlations", 0, 0, 0.0, "csv"
        )
        assert (second.a, second.b) == (0.6, 0.8)
        assert parse_config(["run", "--config", str(first_file), "--theta1", "0.5"]) == first

    def test_negative_values_in_space_separated_form(self):
        spec = parse_config(["run", "--scenario", "bell", "--a", "0.6", "--b", "-0.8,0", "--theta1", "-1e-3"])
        assert (spec.b, spec.theta1) == (-0.8 + 0j, -1e-3)
        spec = parse_config(["run", "--scenario", "chsh-scan", "--grid", "-1,1,3", "--angles", "-.5,0,1,2"])
        assert spec.grid == (-1.0, 1.0, 3) and spec.angles == (-0.5, 0.0, 1.0, 2.0)
        with pytest.raises(ConfigError, match="seed"):
            parse_config(["run", "--scenario", "bell", "--seed", "-1,0"])

    def test_option_table(self):
        assert tuple(OPTIONS) == (
            "scenario", "a", "b", "theta1", "theta2", "angles", "grid", "seed", "samples", "format", "out"
        )
        assert set(KEY_CASES) == set(OPTIONS)

    @pytest.mark.parametrize("key", list(OPTIONS))
    def test_each_key_parses_alike_in_every_form(self, key, tmp_path):
        value, context = KEY_CASES[key]
        context = {"scenario": "bell", **context}
        rest = [f"--{k}={v}" for k, v in context.items() if k != key]
        path = tmp_path / "one.cfg"
        path.write_text(f"{key} = {value}\n")
        spaced = parse_config(["run", f"--{key}", value, *rest])
        joined = parse_config(["run", f"--{key}={value}", *rest])
        from_file = parse_config(["run", "--config", str(path), *rest])
        assert spaced == joined == from_file
        assert getattr(spaced, key) == OPTIONS[key][0](value, key)
        assert getattr(spaced, key) != getattr(ScenarioSpec(scenario="bell"), key)

    @pytest.mark.parametrize("a,b", [("1", "1"), ("0.6", "0.8000001"), ("1e155,1e155", "0.8"), ("0,-1e308", "0")])
    def test_coefficient_check_is_the_library_one(self, a, b):
        with pytest.raises(NotNormalized) as from_cli:
            build_spec({"scenario": "bell", "a": a, "b": b})
        with pytest.raises(NotNormalized) as from_library:
            ExperimentConfig(a=complex(*map(float, a.split(","))), b=complex(*map(float, b.split(","))))
        assert str(from_cli.value) == str(from_library.value)
        assert "must be 1 within 1e-12" in str(from_cli.value)

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario = bell\nbogus = 1\n")
        with pytest.raises(ConfigError, match="bad.cfg:2"):
            load_config_file(str(path))

    def test_config_file_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scenario bell\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            load_config_file(str(path))

    def test_config_file_not_utf8(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"scenario = bell\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file(str(path))

    def test_build_spec_requires_known_scenario(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            build_spec({"scenario": "everything"})


class TestScenarios:
    def test_bell_equal_settings(self):
        spec = build_spec({"scenario": "bell", "theta1": "0", "theta2": "0"})
        report = run(spec)
        assert_allclose(table_by_kind(report, "entangled"), [[0, 0.5], [0.5, 0]], atol=1e-12)
        assert report.ok

    def test_intro_measurement_weights(self):
        spec = build_spec({"scenario": "intro-measurement", "a": "0.6", "b": "0.8"})
        report = run(spec)
        assert_allclose(table_by_kind(report, "device_marginal"), [0.36, 0.64], atol=1e-12)
        assert_allclose(table_by_kind(report, "candidate_weights"), [0.64, 0.36], atol=1e-12)

    def test_pair_correlations_table(self):
        spec = build_spec({"scenario": "pair-correlations", "a": "0.6", "b": "0.8"})
        report = run(spec)
        assert_allclose(table_by_kind(report, "pair_table"), np.diag([0.36, 0.64]), atol=1e-12)

    def test_ancilla_scenario_collapses(self):
        spec = build_spec({"scenario": "bell-ancilla"})
        report = run(spec)
        assert_allclose(
            table_by_kind(report, "direct"),
            table_by_kind(report, "factorized"),
            atol=1e-12,
        )
        assert report.ok

    def test_chsh_scan_quadruple(self):
        spec = build_spec(
            {
                "scenario": "chsh-scan",
                "angles": "0,1.5707963267948966,0.7853981633974483,2.356194490192345",
            }
        )
        report = run(spec)
        s_ent = table_by_kind(report, "chsh_entangled")
        s_fac = table_by_kind(report, "chsh_factorized")
        assert abs(s_ent[0] - (-2.8284271247461903)) < 1e-9
        assert -2.0 - 1e-9 <= s_fac[0] <= 2.0 + 1e-9

    def test_chsh_scan_grid_shape(self):
        spec = build_spec({"scenario": "chsh-scan", "grid": "0,1.5707963267948966,7"})
        report = run(spec)
        assert table_by_kind(report, "scan_angle").shape == (7,)
        assert table_by_kind(report, "chsh_entangled").shape == (7,)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_one_single_setting_config_per_run(self, scenario, monkeypatch):
        # build_spec validates the coefficients by their rule alone; the
        # runners that read the spec's config build it once, and chsh-scan
        # and intro-measurement build none (the scan builds only its batch)
        batches = []
        post_init = ExperimentConfig.__post_init__

        def counting(config):
            post_init(config)
            batches.append(config.batch)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counting)
        run(build_spec({"scenario": scenario, "a": "0.6", "b": "0.8"}))
        assert batches.count(None) == (scenario not in ("chsh-scan", "intro-measurement"))

    def test_one_validation_pass_per_ancilla_run(self, monkeypatch):
        # the four-way and the device table come from one pass over the
        # state, so M1 and M2 are validated once
        passes = []
        check = reference._check_supplied
        monkeypatch.setattr(reference, "_check_supplied", lambda systems, *rest: passes.append(systems) or check(systems, *rest))
        run(build_spec({"scenario": "bell-ancilla", "theta1": "0.3", "theta2": "-1.1"}))
        assert passes == [[("A1",), ("A2",), ("M1",), ("M2",)]]

    @pytest.mark.parametrize("scenario, builds", [("bell-ancilla", 0), ("chsh-scan", 0)])
    def test_fixed_registries_are_built_once(self, scenario, builds, monkeypatch):
        # once a first run has filled the builders' caches, a run builds no
        # registry: the start states are placed on cached registries
        spec = build_spec({"scenario": scenario, "a": "0.6", "b": "0.8"} | ({"grid": "0,3.1,25"} if scenario == "chsh-scan" else {}))
        run(spec)
        built = []
        original = linalg.SpaceRegistry.__init__
        monkeypatch.setattr(linalg.SpaceRegistry, "__init__", lambda self, entries: built.append(1) or original(self, entries))
        run(spec)
        assert len(built) == builds

    def test_ancilla_run_checks_eight_states(self, monkeypatch):
        # a placed start per route, two applies per route and the two chi batches
        spec = build_spec({"scenario": "bell-ancilla", "theta1": "0.3", "theta2": "-1.1"})
        run(spec)
        checked = []
        own = linalg.StateVector._own
        monkeypatch.setattr(linalg.StateVector, "_own", lambda self, *rest: checked.append(1) or own(self, *rest))
        run(spec)
        assert len(checked) == 8

    def test_scan_builds_one_settings_batch(self, monkeypatch):
        # one settings batch that all three routes share, and no config of the spec's own
        built = []
        post_init = ExperimentConfig.__post_init__
        monkeypatch.setattr(ExperimentConfig, "__post_init__", lambda config: post_init(config) or built.append(config.batch))
        run(build_spec({"scenario": "chsh-scan", "a": "0.6", "b": "0.8", "grid": "0,3.1,25"}))
        assert built == [100]

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_no_scenario_calls_eigvalsh(self, scenario, monkeypatch):
        # every reduced state a default run validates is settled by its Gershgorin bound
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda *args, **kwargs: calls.append(1) or eigvalsh(*args, **kwargs))
        run(build_spec({"scenario": scenario}))
        assert calls == []

    @pytest.mark.parametrize("kind", ["entangled", "factorized", "direct"])
    @pytest.mark.parametrize("angles", [DEFAULT_QUADRUPLE, (0.1, 0.7, np.linspace(-1.0, 2.0, 5), np.linspace(0.0, 3.0, 5))], ids=["scalar", "array"])
    def test_chsh_is_the_helpers_composition(self, kind, angles):
        theta1, theta2, scalar = bell._chsh_angles(angles)
        config = ExperimentConfig(0.6, 0.8j, theta1, theta2)
        route = {"entangled": bell.correlation_entangled, "factorized": bell.correlation_factorized, "direct": bell.correlation_direct}[kind]
        s, composed = bell.chsh(kind, angles, 0.6, 0.8j), bell._chsh_value([route(config)], scalar)[0]
        assert type(s) is type(composed) and np.asarray(s).tobytes() == np.asarray(composed).tobytes()
        assert scalar == (angles is DEFAULT_QUADRUPLE)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_no_scenario_calls_tensordot(self, scenario, monkeypatch):
        calls = []
        tensordot = np.tensordot
        monkeypatch.setattr(np, "tensordot", lambda *args, **kwargs: calls.append(1) or tensordot(*args, **kwargs))
        run(build_spec({"scenario": scenario}))
        assert calls == []

    def test_sampling_smoke(self):
        spec = build_spec({"scenario": "bell", "samples": "20000", "seed": "3"})
        report = run(spec)
        exact = table_by_kind(report, "direct")
        freq = report.empirical.values
        sigma = np.sqrt(exact * (1 - exact) / 20000)
        assert np.all(np.abs(freq - exact) <= 3 * sigma + 1e-12)


class TestEmit:
    def test_json_deterministic_and_normalized(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        spec = build_spec({"scenario": "bell", "samples": "500", "out": str(out1)})
        emit(run(spec), "json", str(out1))
        emit(run(spec), "json", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        for table in payload["tables"]:
            if table["kind"] in ("entangled", "factorized", "direct"):
                assert abs(np.array(table["values"]).sum() - 1.0) < 1e-10
        assert payload["ok"] is True
        assert abs(np.array(payload["empirical"]["values"]).sum() - 1.0) < 1e-10

    def test_csv_deterministic_rows(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        spec = build_spec({"scenario": "bell"})
        emit(run(spec), "csv", str(out1))
        emit(run(spec), "csv", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "scenario,kind,i1,i2,i3,i4,value"
        entangled_rows = [l for l in lines if l.startswith("bell,entangled,")]
        assert len(entangled_rows) == 4
        assert entangled_rows[0].split(",")[2:6] == ["1", "1", "", ""]
        values = [float(l.split(",")[6]) for l in entangled_rows]
        assert abs(sum(values) - 1.0) < 1e-10

    def test_csv_empirical_and_residual_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        spec = build_spec({"scenario": "pair-correlations", "samples": "100"})
        emit(run(spec), "csv", str(out))
        lines = out.read_text().splitlines()
        assert any(l.startswith("pair-correlations,empirical,") for l in lines)
        assert any(",residual:" in l for l in lines)


class TestMain:
    def test_success_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(SINGLET_FLAGS + ["--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "invariants OK" in capsys.readouterr().out

    def test_config_error_exit_code(self, capsys):
        assert main(["run", "--theta1", "0"]) == 2
        assert "scenario" in capsys.readouterr().err

    def test_not_normalized_exit_code(self, capsys):
        assert main(["run", "--scenario", "bell", "--a", "1", "--b", "1"]) == 2

    @pytest.mark.parametrize(
        "flag,named",
        [
            ("--theta1=nan", "--theta1"),
            ("--a=nan", "--a"),
            ("--b=0.6,inf", "--b"),
            ("--a=1e308", "a = (1e+308+0j)"),
        ],
    )
    def test_non_finite_or_overflowing_number_exit_code(self, flag, named, capsys):
        assert main(["run", "--scenario=bell", flag]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "Traceback" not in err

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        missing_dir = tmp_path / "nope" / "report.json"
        assert main(SINGLET_FLAGS + ["--out", str(missing_dir)]) == 2

    def test_invariant_failure_exit_code(self, monkeypatch, capsys):
        doctored = RunReport(spec=ScenarioSpec(scenario="bell"))
        doctored.tables.append(ReportTable("entangled", np.full((2, 2), 0.25), ("j", "k")))
        doctored.residuals["route:entangled_vs_direct"] = 10 * RESIDUAL_GATE
        monkeypatch.setattr("qrs_sim.cli.run", lambda spec: doctored)
        code = main(["run", "--scenario", "bell"])
        assert code == 1
        err = capsys.readouterr().err
        assert "invariant failure" in err and "1.000e-09" in err

    @pytest.mark.parametrize(
        "flags", [["--scenario", "chsh-scan", "--grid", "-1,1,3"], ["--scenario", "bell", "--a", "0.6", "--b", "-0.8,0"]]
    )
    def test_negative_values_exit_code(self, flags, capsys):
        assert main(["run", *flags]) == 0
        spaced = capsys.readouterr()
        joined = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
        assert main(["run", *joined]) == 0
        assert capsys.readouterr() == spaced
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *flags, "--frequency", "-40"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--scen", "chsh-scan"],
            ["--scenario", "chsh-scan", "--gri=0,1,3"],
            ["--scenario", "chsh-scan", "--gri", "-1,1,3"],
            ["--scenario", "bell", "--theta", "0.5"],
        ],
    )
    def test_flags_only_by_full_name(self, flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *flags])
        assert excinfo.value.code == 2

    def test_argparse_rejects_unknown_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", "bell", "--frequency", "40"])
        assert excinfo.value.code == 2

    def test_ok_property_gate(self):
        report = RunReport(spec=ScenarioSpec(scenario="bell"))
        report.residuals["x"] = RESIDUAL_GATE / 2
        assert report.ok
        report.residuals["y"] = RESIDUAL_GATE
        assert not report.ok


NUMBER_TEXTS = st.one_of(
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e155,1e155", "-0.8,0", "0.6", "0.8",
         "0.7071067811865476", "0", "1", "-1", "3.2", "7", "1e-320", "0x1", "abc", "", ","]
    ),
    st.floats().map(repr),
    st.text(max_size=6),
)
ANGLES = st.one_of(st.floats(-6.28, 6.28).map(repr), NUMBER_TEXTS)
COEFFICIENTS = st.one_of(
    st.sampled_from(["0.6", "0.8", "-0.8,0", "0,0.6", "0.7071067811865476"]),
    NUMBER_TEXTS,
    st.tuples(NUMBER_TEXTS, NUMBER_TEXTS).map(",".join),
)
# grid steps <= 5 and samples <= 50 keep each run small
SMALL_COUNTS = st.one_of(st.integers(-3, 5).map(str), st.sampled_from(["", "abc", "1.5", "nan", "2e1"]))
FUZZ_VALUES = {
    "scenario": st.sampled_from(SCENARIOS + ("everything",)),
    "a": COEFFICIENTS,
    "b": COEFFICIENTS,
    "theta1": ANGLES,
    "theta2": ANGLES,
    "angles": st.lists(ANGLES, min_size=3, max_size=5).map(",".join),
    "grid": st.tuples(ANGLES, ANGLES, SMALL_COUNTS).map(",".join),
    "seed": st.one_of(st.integers(-1, 2**40).map(str), NUMBER_TEXTS),
    "samples": st.one_of(st.integers(-1, 50).map(str), st.sampled_from(["", "1e1", "nan"])),
    "format": st.sampled_from(["csv", "json", "JSON", "xml"]),
    "out": st.sampled_from(["report.out", "missing/report.out", ""]),
}
FILE_FIELDS = st.fixed_dictionaries({}, optional=FUZZ_VALUES)
# a scenario on every command line: without one, every run stops at the same error
FLAG_FIELDS = st.fixed_dictionaries(
    {"scenario": FUZZ_VALUES["scenario"]},
    optional={key: value for key, value in FUZZ_VALUES.items() if key != "scenario"},
)


def quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


#: inputs whose |a|^2 + |b|^2 lies 1 ulp below 1 + 1e-12; without the
#: rounding margin the first ended in a traceback and the second in exit 1
#: with no failing residual
EDGE_CASES = [
    ("bell", "0.9898540398594534", "0.14208792972986695"),
    ("bell-ancilla", "0.9155933978875106", "0.4021053714460958"),
]


@st.composite
def edge_pairs(draw):
    """(a, b) whose |a|^2 + |b|^2 sits within a few ulp of 1 +- 1e-12, or of
    1 +- (1e-12 - COEFF_MARGIN), the edge the coefficient rule accepts."""
    total = 1.0 + draw(st.sampled_from((-1.0, 1.0))) * draw(st.sampled_from((COEFF_TOL, COEFF_TOL - COEFF_MARGIN)))
    split, phase, steps = draw(st.floats(0.05, 1.5)), draw(st.floats(-math.pi, math.pi)), draw(st.integers(-6, 6))
    a, b = math.sqrt(total) * math.cos(split), math.sqrt(total) * math.sin(split)
    re, im = a * math.cos(phase), a * math.sin(phase)
    for _ in range(abs(steps)):
        re = math.nextafter(re, math.copysign(math.inf, steps))
    return complex(re, im), complex(b)


class TestEdgeOfNorm:
    @pytest.mark.parametrize("scenario, a, b", EDGE_CASES)
    def test_pinned_cases_are_refused(self, scenario, a, b, capsys):
        assert quiet_main(["run", "--scenario", scenario, "--a", a, "--b", b]) == 2
        assert capsys.readouterr().err == (
            f"error: |a|^2 + |b|^2 = 1.0000000000009999 must be 1 within 1e-12 less a rounding margin of {COEFF_MARGIN:.3g}\n"
        )

    @settings(max_examples=60, deadline=None)
    @given(pair=edge_pairs())
    @example(pair=(complex(0.7648421872847838), complex(0.6442176872379399)))
    @example(pair=(complex(0.7648421872841931), complex(0.6442176872374421)))
    def test_every_scenario_exits_cleanly(self, pair):
        # a pair the coefficient rule accepts passes every later rule, in
        # every scenario; one it refuses stops at configuration
        a, b = pair
        try:
            ExperimentConfig(a=a, b=b)
            expected = 0
        except NotNormalized:
            expected = 2
        for scenario in SCENARIOS:
            argv = ["run", f"--scenario={scenario}", f"--a={a.real!r},{a.imag!r}", f"--b={b.real!r},{b.imag!r}"]
            with contextlib.redirect_stderr(io.StringIO()):
                assert quiet_main(argv) == expected, (scenario, a, b)


#: (run, warm-up run, traced heap budget in bytes): the README's memory
#: budgets of the two input caps, each the peak measured before this test
#: existed (13.03 MB and 16.02 MB, numpy 2.4) rounded up to 0.1 MB
CAP_BUDGETS = [
    (["--scenario=chsh-scan", "--grid=0,3.14,1000"], ["--scenario=chsh-scan", "--grid=0,3.14,2"], 13.1e6),
    (["--scenario=bell-ancilla", "--samples=1000000"], ["--scenario=bell-ancilla", "--samples=10"], 16.1e6),
]


@pytest.mark.parametrize("flags, warm_up, budget", CAP_BUDGETS, ids=["grid", "samples"])
def test_cap_stays_within_its_memory_budget(flags, warm_up, budget):
    assert quiet_main(["run", *warm_up]) == 0
    tracemalloc.start()
    try:
        assert quiet_main(["run", *flags]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget


#: the README's budget of the angle cache at the grid cap: its 4 entries of
#: 328 B per setting at 4 MAX_GRID_STEPS settings a side (5,248,000 B of
#: arrays) rounded up to 0.1 MB
ANGLE_CACHE_BUDGET = 5.3e6


def test_angle_cache_stays_within_its_budget():
    # two capped scans on different quadruples fill every entry; the bytes
    # still allocated from bell.py afterwards are what the cache holds, once
    # the scan-angle cache, whose settings arrays bell._chsh_angles builds,
    # lets go of exactly those two scans' arrays (8 B per setting a side)
    assert quiet_main(["run", "--scenario=chsh-scan", "--grid=0,3.14,2"]) == 0
    bell._angle_work.cache_clear()
    tracemalloc.start()
    try:
        for angles in ("0,1.6,0.8,2.4", "0.1,1.7,0.9,2.5"):
            assert quiet_main(["run", "--scenario=chsh-scan", f"--angles={angles}", f"--grid=0,3.14,{MAX_GRID_STEPS}"]) == 0
        only_bell = [tracemalloc.Filter(True, bell.__file__)]
        with_scans = tracemalloc.take_snapshot().filter_traces(only_bell)
        cli._scan_angles.cache_clear()
        held = tracemalloc.take_snapshot().filter_traces(only_bell)
    finally:
        tracemalloc.stop()
    scan_arrays = sum(t.size for t in with_scans.traces) - sum(t.size for t in held.traces)
    assert 2 * 2 * 4 * MAX_GRID_STEPS * 8 <= scan_arrays <= 2 * 2 * 4 * MAX_GRID_STEPS * 8 + 1024
    assert bell._angle_work.cache_info().currsize == bell._angle_work.cache_info().maxsize
    assert 4 * MAX_GRID_STEPS * 328 * bell._angle_work.cache_info().maxsize <= sum(t.size for t in held.traces) <= ANGLE_CACHE_BUDGET


def _leaves(value, path=()):
    """(path, value) of every leaf of a report dict."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))
    else:
        yield path, value


class TestScanAngles:
    """A scan's grid points and settings angles depend on its quadruple and
    grid alone, so they are built once per grid and shared by its runs."""

    def test_arrays_match_a_fresh_build_and_are_read_only(self):
        cli._scan_angles.cache_clear()
        spec = build_spec({"scenario": "chsh-scan", "angles": "0.1,1.7,0.9,2.5", "grid": "0,3.14,25"})
        first, again = run(spec), run(spec)
        assert cli.report_dict(first) == cli.report_dict(again)
        assert cli._scan_angles.cache_info()[:2] == (1, 1)
        cached = cli._scan_angles(repr((spec.angles, spec.grid)), spec.angles, spec.grid)
        points = np.linspace(0.0, 3.14, 25)
        fresh = (points, *bell._chsh_angles((0.1, 1.7, points, points + (2.5 - 0.9)))[:2])
        for array, expected in zip(cached, fresh):
            assert array.dtype == expected.dtype and array.shape == expected.shape and array.tobytes() == expected.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_an_entry_holds_nine_floats_per_grid_point(self):
        # the grid points and four settings a side per point: 72,000 B at the cap
        grid = (0.0, 3.14, MAX_GRID_STEPS)
        assert sum(array.nbytes for array in cli._scan_angles(repr((None, grid)), None, grid)) == 9 * 8 * MAX_GRID_STEPS == 72_000

    @pytest.mark.parametrize(
        "grids, differ",
        [(("-0.0,3.14,25", "0,3.14,25"), {("spec", "grid", 0)}), (("0,-0.0,2", "0,0,2"), {("spec", "grid", 1), ("tables", 0, "values", 1)})],
        ids=["signed-start", "signed-stop"],
    )
    def test_signed_zero_grids_keep_their_own_entries(self, grids, differ):
        # equal as tuples, so only the bits in the key keep them apart; the
        # reports differ where they always did, in the grid and its points
        cli._scan_angles.cache_clear()
        reports = [dict(_leaves(cli.report_dict(run(build_spec({"scenario": "chsh-scan", "grid": grid}))))) for grid in grids]
        assert cli._scan_angles.cache_info().misses == 2
        assert {path for path, value in reports[0].items() if json.dumps(value) != json.dumps(reports[1][path])} == differ


def test_coefficient_free_caches_stay_bounded():
    for stop in range(10):
        run(build_spec({"scenario": "chsh-scan", "grid": f"0,{1 + stop / 2},25"}))
        for cache in (cli._scan_angles, bell._angle_work, linalg._moves, reference._orthonormal):
            assert cache.cache_info().currsize <= cache.cache_info().maxsize
    assert bell._pair_basis.cache_info().currsize <= 2


def test_import_fills_no_cache():
    # every cached builder fills on first use, so importing the package,
    # as a benchmark's setup does, builds nothing
    code = (
        "import json, sys, qrs_sim, qrs_sim.cli\n"
        "print(json.dumps({f'{name}.{key}': value.cache_info().currsize for name, module in sorted(sys.modules.items())"
        " if name.split('.')[0] == 'qrs_sim' for key, value in vars(module).items() if hasattr(value, 'cache_info')}))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    caches = json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout)
    assert {"qrs_sim.bell._space", "qrs_sim.bell._angle_work", "qrs_sim.bell.pointer_ready_state", "qrs_sim.cli._build_parser"} <= caches.keys()
    assert {"qrs_sim.bell._pair_basis", "qrs_sim.cli._scan_angles", "qrs_sim.linalg._moves", "qrs_sim.reference._orthonormal"} <= caches.keys()
    assert caches == dict.fromkeys(caches, 0)


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(flags=FLAG_FIELDS, file_fields=FILE_FIELDS)
    def test_main_exit_contract(self, flags, file_fields):
        with tempfile.TemporaryDirectory() as work:
            for fields in (flags, file_fields):
                if fields.get("out"):
                    fields["out"] = os.path.join(work, fields["out"])
            argv = ["run"] + [f"--{key}={value}" for key, value in flags.items()]
            if file_fields:
                path = os.path.join(work, "scenario.cfg")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.writelines(f"{key} = {value}\n" for key, value in file_fields.items())
                argv.append(f"--config={path}")
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()


def test_corpus_script_is_repeatable(tmp_path, monkeypatch, capsys):
    # the byte-identity check between two trees relies on a run of the
    # corpus script printing the same lines every time
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    outputs = []
    for _ in range(2):
        assert cli_corpus.main(["14", str(tmp_path)]) == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert outputs[0] == outputs[1] and len(outputs[0]) == 2 + 14 + 1
    assert outputs[0][-1].endswith("(bad:2 x 2, help:0 x 2, norm:2 x 2, success:0 x 10)")
