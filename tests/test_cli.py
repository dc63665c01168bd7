import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrs_sim.cli import (
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
from qrs_sim.bell import ExperimentConfig
from qrs_sim.errors import ConfigError, NotNormalized

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
        # build_spec validates the coefficients by building the spec's
        # config; the runners reuse it (chsh-scan builds only batches)
        batches = []
        post_init = ExperimentConfig.__post_init__

        def counting(config):
            post_init(config)
            batches.append(config.batch)

        monkeypatch.setattr(ExperimentConfig, "__post_init__", counting)
        run(build_spec({"scenario": scenario, "a": "0.6", "b": "0.8"}))
        assert batches.count(None) == 1

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
