"""Seeded fuzzing of the config schema: one key path at a time gets a bad value.

The key paths are enumerated from the schema's tables in ``epitaxy.cli``, not
from a hand-kept list, starting from the README's example config at N = 3 and
T = 0.01.  Whatever the value, ``main`` must exit 0, 2, 3 or 4, print the JSON
status object as its last line, and raise nothing.  The memory guard sees a
64 MiB machine, so a case that asks for a huge run is refused, not run.
"""

import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from epitaxy import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# wrong types, null, booleans, zero, negatives, non-finite and huge numbers,
# a non-string path, and empty containers; a misspelt key is the extra case
POOL = [
    "0.2", "no-such-file.json", None, True, 0, -1, -0.5, math.nan, math.inf, 1e308, 10**18, 3,
    [], {},
]
MISSPELT = object()
CASES = 300
SEED = 20261019


def readme_example() -> dict:
    text = README.read_text(encoding="utf-8")
    example = re.search(r"Example configuration \(JSON\):\s*```json\n(.*?)```", text, re.S)
    return json.loads(example.group(1))


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A stored trajectory and initial field of a tiny 1-D solve."""
    folder = tmp_path_factory.mktemp("stored")
    config = {
        "initial_data": {"preset": "random-decay", "amplitude": 0.2, "seed": 7},
        "solver": {"truncation": 3, "dt": 0.001, "t_final": 0.01},
        "output_dir": str(folder),
    }
    (folder / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["solve", "--config", str(folder / "config.json")]) == cli.EXIT_OK
    return folder


def base_config(mode: str, form: str, stored: Path) -> dict:
    """The README example at N = 3 and T = 0.01, with the initial-data form and
    the mode options that make ``mode`` exit 0."""
    config = readme_example()
    config["solver"].update(truncation=3, t_final=0.01)
    config["output_dir"] = "out"
    initial = {
        "single-mode": config["initial_data"],
        "two-mode": {"preset": "two-mode", "amplitude": 0.2},
        "random-decay": {"preset": "random-decay", "amplitude": 0.2, "decay": 1.0},
        "path": {"path": str(stored / "initial_field.json")},
    }
    config["initial_data"] = initial[form]
    trajectory = str(stored / "picard_trajectory.json")
    config["mode_options"] = {
        "probe-operator": {
            "trajectories": 2, "alphas": [0.5], "dims": [1, 2], "max_truncation": 3,
            "t_final": 0.05, "dt": 0.01,
        },
        "sweep": {"amplitudes": [0.1, 0.3], "solve": True},
        "compare": {"trajectory_a": trajectory, "trajectory_b": trajectory},
        "radius": {"trajectory": trajectory, "alpha": 0.5, "fit_window": [0.0, 0.01]},
    }.get(mode, {})
    return config


def key_paths(mode: str, form: str) -> list[tuple[str, ...]]:
    """Every key path the schema's tables allow in a ``mode`` run with this form."""
    tables = {
        (): cli.TOP,
        ("solver",): cli.SOLVER,
        ("solver", "taylor"): cli.TAYLOR,
        ("initial_data",): cli.INITIAL_DATA[form],
        ("mode_options",): cli.MODE_OPTIONS[mode],
    }
    return [section + (key,) for section, table in tables.items() for key in table]


def combos():
    """(mode, initial-data form): every mode with the README's preset, and
    ``certify`` with every other form of the initial-data table."""
    return [(mode, "single-mode") for mode in cli.MODES] + [
        ("certify", form) for form in cli.INITIAL_DATA if form != "single-mode"
    ]


def with_value(config: dict, path: tuple[str, ...], value) -> dict:
    """A copy of ``config`` whose key ``path`` holds ``value``, or is misspelt."""
    config = json.loads(json.dumps(config))
    section = config
    for key in path[:-1]:
        section = section.setdefault(key, {})
    if value is MISSPELT:
        section[path[-1] + path[-1][-1]] = section.pop(path[-1], 1)
    else:
        section[path[-1]] = value
    return config


@pytest.fixture
def small_machine(monkeypatch, tmp_path):
    """Runs in ``tmp_path`` on a machine the memory guard sees with 64 MiB."""
    sysconf = os.sysconf
    fake = {"SC_PHYS_PAGES": 64 * 2**20, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(cli.os, "sysconf", lambda name: fake.get(name) or sysconf(name))
    monkeypatch.chdir(tmp_path)


def run(config: dict, mode: str, capsys) -> tuple[int, dict]:
    Path("config.json").write_text(json.dumps(config), encoding="utf-8")
    try:
        code = cli.main([mode, "--config", "config.json"])
    except Exception as err:  # anything raised past main is the failure
        pytest.fail(f"{mode} raised {type(err).__name__}: {err} for {json.dumps(config)}")
    lines = capsys.readouterr().out.strip().splitlines()
    status = json.loads(lines[-1]) if lines else None
    return code, status


@pytest.mark.parametrize("mode,form", combos())
def test_base_configs_run(small_machine, stored, capsys, mode, form):
    code, status = run(base_config(mode, form, stored), mode, capsys)
    assert code == cli.EXIT_OK, status


def test_one_bad_key_exits_cleanly(small_machine, stored, capsys):
    cases = [
        (mode, form, path, value)
        for mode, form in combos()
        for path in key_paths(mode, form)
        for value in [*POOL, MISSPELT]
    ]
    rng = np.random.default_rng(SEED)
    codes = set()
    for index in sorted(rng.choice(len(cases), size=CASES, replace=False)):
        mode, form, path, value = cases[index]
        config = with_value(base_config(mode, form, stored), path, value)
        code, status = run(config, mode, capsys)
        where = f"{mode} with {'.'.join(path)} = {'misspelt' if value is MISSPELT else value!r}"
        assert code in (0, 2, 3, 4), where
        assert isinstance(status, dict) and status["exit_code"] == code, where
        if value is MISSPELT:
            assert code == cli.EXIT_VALIDATION and path[-1] in status["error"]["message"], where
        codes.add(code)
    assert {0, 2} <= codes
