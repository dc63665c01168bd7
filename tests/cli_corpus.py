"""Seeded corpus of in-process ``qrs-sim`` runs, hashed for byte comparison.

Usage::

    PYTHONPATH=src python tests/cli_corpus.py RUNS WORKDIR [--seed N]

Runs both ``--help`` texts and then ``RUNS`` seeded ``cli.main`` calls
inside ``WORKDIR`` (created if missing; reports and config files are
written there under relative names, so no path reaches the output).  Each
call is hashed over its argv, config file, exit code, stdout, stderr and
report bytes; the script prints one line per run and a total.  Running the
same script against two source trees (``PYTHONPATH=<tree>/src``) and
comparing the totals checks that a change keeps every run byte-identical.

The mix is stratified in blocks of seven: one success per scenario, one
off-norm or overflowing coefficient pair and one bad value.  Each run
passes its options in one of three forms: ``--key value``, ``--key=value``
or a config file with some keys overridden by flags.  Successes cover CSV
and JSON reports, sampling (a few runs at 1e5 draws), chsh-scan grids and
quadruples, and negative values.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from qrs_sim import cli

FORMS = ("spaced", "joined", "file")
BAD_VALUES = (
    ("theta1", "90"),
    ("theta2", "nan"),
    ("a", "abc"),
    ("b", "0.6,inf"),
    ("angles", "0,1,2"),
    ("angles", "0,1,2,7"),
    ("grid", "0,1,0"),
    ("grid", "0,1"),
    ("grid", f"0,1,{cli.MAX_GRID_STEPS + 1}"),
    ("grid", "-1,1,2.5"),
    ("seed", "-1"),
    ("seed", "1.5"),
    ("samples", f"{cli.MAX_SAMPLES + 1}"),
    ("samples", "-3"),
    ("format", "xml"),
    ("scenario", "everything"),
    ("bogus", "1"),
)


def _number(value: float) -> str:
    return repr(float(value))


def _pair(rng) -> tuple[str, str]:
    """A normalized coefficient pair as CLI text, real or complex."""
    phi = rng.uniform(0.0, math.pi / 2)
    texts = []
    for magnitude in (math.cos(phi), math.sin(phi)):
        if rng.random() < 0.5:
            texts.append(_number(magnitude * rng.choice([-1.0, 1.0])))
        else:
            phase = rng.uniform(-math.pi, math.pi)
            texts.append(f"{_number(magnitude * math.cos(phase))},{_number(magnitude * math.sin(phase))}")
    return texts[0], texts[1]


def _success(rng, scenario: str, index: int) -> dict[str, str]:
    values = {"scenario": scenario}
    if rng.random() < 0.8:
        values["a"], values["b"] = _pair(rng)
    if scenario == "chsh-scan":
        if rng.random() < 0.5:
            values["angles"] = ",".join(_number(t) for t in rng.uniform(-math.pi, math.pi, size=4))
        if rng.random() < 0.5:
            start, stop = rng.uniform(-math.pi, math.pi, size=2)
            values["grid"] = f"{_number(start)},{_number(stop)},{int(rng.integers(1, 40))}"
    else:
        for key in ("theta1", "theta2"):
            if rng.random() < 0.8:
                values[key] = _number(rng.uniform(-2 * math.pi, 2 * math.pi))
        if rng.random() < 0.5:
            values["seed"] = str(int(rng.integers(0, 2**40)))
            values["samples"] = str(100_000 if rng.random() < 0.03 else int(rng.integers(1, 5000)))
    if rng.random() < 0.8:
        fmt = ("csv", "json")[index % 2]
        values["format"] = fmt.upper() if rng.random() < 0.1 else fmt
        values["out"] = f"report.{fmt}"
    return values


def _off_norm(rng, scenario: str) -> dict[str, str]:
    values = {"scenario": scenario}
    if rng.random() < 0.5:
        values["a"] = _number(0.6 + 10.0 ** rng.uniform(-11, -0.5))
        values["b"] = "0.8"
    else:
        values["a"] = str(rng.choice(["1e200", "1e155,1e155", "-1e308", "0,1e300"]))
    return values


def _bad_value(rng, scenario: str) -> dict[str, str]:
    if rng.random() < 0.3:
        # a rule across keys instead of a bad value of one key
        key, text = ("samples", "10") if scenario == "chsh-scan" else ("grid", "0,1,3")
    else:
        key, text = BAD_VALUES[int(rng.integers(len(BAD_VALUES)))]
    return {"scenario": scenario, key: text}


def _argv(rng, values: dict[str, str], form: str) -> tuple[list[str], str]:
    """The command line for ``values`` in ``form``, plus the config-file
    text (empty unless the form is ``file``)."""
    argv, text = ["run"], ""
    flags = dict(values)
    if form == "file":
        keys = list(values)
        in_file = [key for key in keys if key in ("scenario", "bogus") or rng.random() < 0.6]
        text = "# corpus run\n" + "".join(f"{key} = {values[key]}\n" for key in in_file)
        flags = {key: values[key] for key in keys if key not in in_file or rng.random() < 0.2}
        argv += ["--config=corpus.cfg"] if rng.random() < 0.5 else ["--config", "corpus.cfg"]
    for key, value in flags.items():
        if key == "bogus":
            continue
        if form == "joined" or (form == "file" and rng.random() < 0.5):
            argv.append(f"--{key}={value}")
        else:
            argv += [f"--{key}", value]
    return argv, text


def _call(argv: list[str], config_text: str) -> dict:
    if config_text:
        with open("corpus.cfg", "w", encoding="utf-8") as handle:
            handle.write(config_text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report = b""
    for name in ("report.csv", "report.json"):
        if os.path.exists(name):
            with open(name, "rb") as handle:
                report += handle.read()
            os.remove(name)
    if config_text:
        os.remove("corpus.cfg")
    return {"argv": argv, "config": config_text, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "report": report.hex()}


def corpus(runs: int, seed: int):
    """Yield (label, argv, config text) for the help texts and ``runs``
    seeded calls."""
    yield "help", ["--help"], ""
    yield "help", ["run", "--help"], ""
    rng = np.random.default_rng(seed)
    for index in range(runs):
        kind = index % 7
        scenario = cli.SCENARIOS[int(rng.integers(len(cli.SCENARIOS)))] if kind >= 5 else cli.SCENARIOS[kind]
        if kind < 5:
            label, values = "success", _success(rng, scenario, index)
        elif kind == 5:
            label, values = "norm", _off_norm(rng, scenario)
        else:
            label, values = "bad", _bad_value(rng, scenario)
        # an unknown key can only come from a config file
        form = "file" if "bogus" in values else FORMS[int(rng.integers(len(FORMS)))]
        yield label, *_argv(rng, values, form)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("runs", type=int, help="number of seeded runs after the two --help texts")
    parser.add_argument("workdir", help="directory the runs write their reports and config files in")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    # argparse wraps --help to the terminal width
    os.environ["COLUMNS"] = "80"
    total = hashlib.sha256()
    codes: collections.Counter = collections.Counter()
    for number, (label, run_argv, config_text) in enumerate(corpus(args.runs, args.seed)):
        record = _call(run_argv, config_text)
        digest = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        total.update(digest.encode())
        codes[f"{label}:{record['exit']}"] += 1
        print(f"{number:5d} {label:7s} exit {record['exit']} {digest}")
    summary = ", ".join(f"{key} x {count}" for key, count in sorted(codes.items()))
    print(f"total {total.hexdigest()} ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
