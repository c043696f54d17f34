"""Seeded fuzzing of the config schema and of the stored files.

Config: one key path at a time gets a bad value.  The key paths are
enumerated from the schema's tables in ``epitaxy.cli``, not from a hand-kept
list, starting from the README's example config at N = 3 and T = 0.01.

Stored files: one key of a stored trajectory manifest or field file at a
time gets a bad value or goes missing, or the manifest's ``.npy`` tables are
rewritten with another dtype or shape and digested again, so that the
reader's checks past the digest run.  The files are those of a tiny solve,
read by ``compare``, ``radius``, ``certify`` and ``solve``.

Whatever the value, ``main`` must exit 0, 2, 3 or 4, print the JSON status
object as its last line, strict JSON without NaN or Infinity, and raise
nothing.  The memory guard sees a 64 MiB machine, so a case that asks for a
huge run is refused, not run.
"""

import hashlib
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


def strict(constant):
    raise ValueError(f"{constant} is not JSON")


def run(config: dict, mode: str, capsys, case=None) -> tuple[int, dict]:
    Path("config.json").write_text(json.dumps(config), encoding="utf-8")
    case = case or json.dumps(config)
    try:
        code = cli.main([mode, "--config", "config.json"])
    except Exception as err:  # anything raised past main is the failure
        pytest.fail(f"{mode} raised {type(err).__name__}: {err} for {case}")
    lines = capsys.readouterr().out.strip().splitlines()
    status = json.loads(lines[-1], parse_constant=strict) if lines else None
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


# -- stored files ---------------------------------------------------------------

MISSING = object()
STORED_CASES = 200

# values for one key of a stored file beside the config pool: each is a form
# the reader must refuse or a valid one it must take
FILE_VALUES = {
    "dim": [2, "1"],
    "truncation": [1, 2, 10**6],
    "times": [
        [], [0.0], [0.0, 0.0], list(range(11)), list(range(10, -1, -1)), [math.nan] * 11,
        [0.0] + [1e308] * 10, [10**400] * 11, ["0.0"] * 11, [[0.0]] * 11,
    ],
    "modes": [[[0]], [[1.5]], [[1, 1]], [[99]], [[1], [1], [2]], [[-1], [2], [3]], [["1"]]],
    "file": ["", ".", "..", "../t.npy", "missing.npy", "t.json", "out", "/t.npy"],
    "sha256": ["0" * 64, "", "T.NPY"],
    "coeffs": [
        [[1, 1e308, 0.0]], [[1, math.nan, 0.0]], [[0, 1.0, 0.0]], [[1.5, 1.0, 0.0]],
        [[99, 1.0, 0.0]], [[1, 1.0]], [[1, 0.5, 0.0], [-1, 0.5, 0.1]], [["1", 1.0, 0.0]],
        [5], [[]],
    ],
}

# the stored tables in another dtype or shape; each is digested again
TABLE_FORMS = {
    "float32": lambda t: t.astype(np.float32),
    "big-endian": lambda t: t.astype(">f8"),
    "complex": lambda t: t.astype(complex),
    "int64": lambda t: t.astype(np.int64),
    "object": lambda t: t.astype(object),
    "fortran": np.asfortranarray,
    "first-table": lambda t: t[0],
    "scalar": lambda t: t[0, 0, 0],
    "extra-node": lambda t: np.concatenate([t, t[:, :1]], axis=1),
    "extra-mode": lambda t: np.concatenate([t, t[:, :, :1]], axis=2),
    "no-modes": lambda t: t[:, :, :0],
    "nan": lambda t: np.where(t != 0, math.nan, t),
    "huge": lambda t: t * 1e308,
}


def stored_cases():
    """(mode, file kind, key path, value) for every stored-file case; the kind
    "tables" is a trajectory whose tables take the form named by the value."""
    keys = {
        "trajectory": [("dim",), ("truncation",), ("times",), ("modes",), ("tables",),
                       ("tables", "file"), ("tables", "sha256")],
        "field": [("dim",), ("truncation",), ("coeffs",)],
    }
    modes = {"trajectory": ("compare", "radius"), "field": ("certify", "solve")}
    cases = [
        (mode, kind, path, value)
        for kind, paths in keys.items()
        for mode in modes[kind]
        for path in paths
        for value in [*POOL, *FILE_VALUES.get(path[-1], []), MISSING]
    ]
    return cases + [
        (mode, "tables", (), form) for mode in modes["trajectory"] for form in TABLE_FORMS
    ]


def write_stored(stored: Path, kind: str, path: tuple[str, ...], value) -> str:
    """The stored file of ``kind`` with ``value`` at ``path``, or missing it,
    written to the working directory; its name."""
    if kind == "field":
        body = json.loads((stored / "initial_field.json").read_text(encoding="utf-8"))
    else:
        body = json.loads((stored / "picard_trajectory.json").read_text(encoding="utf-8"))
        tables = np.load(stored / body["tables"]["file"], allow_pickle=False)
        if kind == "tables":
            tables = TABLE_FORMS[value](tables)
        np.save("t.npy", tables, allow_pickle=True)
        digest = hashlib.sha256(Path("t.npy").read_bytes()).hexdigest()
        body["tables"] = {"file": "t.npy", "sha256": digest}
    section = body
    for key in path[:-1]:
        section = section[key]
    if path and value is MISSING:
        del section[path[-1]]
    elif path:
        section[path[-1]] = value
    name = "f.json" if kind == "field" else "t.json"
    Path(name).write_text(json.dumps(body), encoding="utf-8")
    return name


def test_one_bad_stored_file_exits_cleanly(small_machine, stored, capsys):
    cases = stored_cases()
    rng = np.random.default_rng(SEED)
    codes = set()
    for index in sorted(rng.choice(len(cases), size=STORED_CASES, replace=False)):
        mode, kind, path, value = cases[index]
        name = write_stored(stored, kind, path, value)
        config = base_config(mode, "path" if kind == "field" else "single-mode", stored)
        if kind == "field":
            config["initial_data"] = {"path": name}
        else:
            config["mode_options"]["trajectory_b" if mode == "compare" else "trajectory"] = name
        shown = "missing" if value is MISSING else repr(value)
        where = f"{mode} with the {kind} file's {'.'.join(path) or 'tables'} = {shown}"
        code, status = run(config, mode, capsys, where)
        assert code in (0, 2, 3, 4), where
        assert isinstance(status, dict) and status["exit_code"] == code, where
        codes.add(code)
    assert {0, 2} <= codes
