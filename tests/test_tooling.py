"""Source checks: invariants must survive ``python -O``, which strips ``assert``,
the series route must not exponentiate, the two routes to the right-hand side
must share no product code, every function the benchmark's tracer
hooks must still exist and be the one the engines call, ``solve`` and
``probe-operator`` must not import numpy.ma, the README's memory
estimate must be the one the guard applies, the README's library sketch must
run, every public name in the package must be used by it, exported or hooked
(every public method used by it, through its own class when named by one, or
hooked), every private function and method must be used by the package, and
no number of a trajectory's tables may pass through ``json``."""

import ast
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epitaxy
from epitaxy import cli, nonlinear
from epitaxy.presets import random_decay
from epitaxy.semigroup import linear_trajectory
from epitaxy.stepper import SolverConfig

PACKAGE = Path(epitaxy.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"


def test_package_has_no_assert_statements():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, f"no modules found under {PACKAGE}"
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements vanish under python -O; raise instead: {found}"


def _calls(name: str) -> list[tuple[str, int]]:
    """(called name, line) of every call in the top-level function ``name`` of
    ``nonlinear``, the callee by its name or its attribute."""
    tree = ast.parse((PACKAGE / "nonlinear.py").read_text(encoding="utf-8"))
    (function,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
    return [
        (getattr(node.func, "attr", getattr(node.func, "id", None)), node.lineno)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
    ]


SERIES_ROUTE = ("_series_batch", "taylor_sum")


def test_series_route_never_exponentiates():
    # the series route is the exponential route's independent oracle: an
    # exp in it would make the engine cross-check compare a route with itself
    found = [
        f"{name}:{line}"
        for name in SERIES_ROUTE
        for call, line in _calls(name)
        if call in ("exp", "expm1")
    ]
    assert not found, f"the series route calls an exponential: {found}"


def test_one_time_grid_builder():
    # every grid the package runs on comes from ``stepper.uniform_grid``, the
    # one that the step check guards and the memory guards count
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {
            id(node): function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
        }
        found += [
            f"{path.stem}.{owner.get(id(node), '<module>')}:{node.lineno}"
            for node in ast.walk(tree)
            if "linspace" in (getattr(node, "attr", None), getattr(node, "id", None))
            or (isinstance(node, ast.alias) and node.name.endswith("linspace"))
        ]
    assert [site.split(":")[0] for site in found] == ["stepper.uniform_grid"], found


def test_routes_share_no_product_code():
    # the routes share the DFT matrices and the real layout, but a product
    # both ran would be checked against itself by the engine cross-check
    exponential = {"rhs_exponential", "exponential_route", "_ExponentialRoute"}
    banned = {
        "rhs_exponential": {"synthesize", "analyze"},
        "_series_batch": exponential,
        "taylor_sum": exponential,
    }
    found = [
        f"{name} calls {call} at line {line}"
        for name, calls in banned.items()
        for call, line in _calls(name)
        if call in calls
    ]
    assert not found, f"the routes share product code: {found}"


def test_benchmark_hooks_resolve():
    # a renamed or removed target would silently turn its per-layer metrics absent;
    # run_path executes the file without importing it or caching its bytecode
    tracing = runpy.run_path(str(TRACING))
    targets = [(module, path) for _name, module, path in tracing["SPAN_HOOKS"]]
    targets.append(tracing["CONSTRUCTION_HOOK"])
    missing = []
    for module, path in targets:
        importlib.import_module(module)
        if tracing["_resolve"](module, path) is None:
            missing.append(f"{module}.{path}")
    assert not missing, f"benchmark hooks no longer resolve: {missing}"


@pytest.mark.parametrize("dim", [1, 2])
def test_tracer_sees_the_hot_paths(tmp_path, monkeypatch, capsys, dim):
    # the per-layer counts of steps, right-hand sides and transforms come from
    # the functions the engines call: a twin that only tests call reads 0
    tracing = runpy.run_path(str(TRACING))
    config = {
        "initial_data": {"preset": "random-decay", "amplitude": 0.2, "seed": 7, "dim": dim},
        "solver": {"truncation": 3, "dt": 1e-3, "t_final": 0.01},
        "output_dir": "out",
    }
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(config), encoding="utf-8")
    with tracing["Tracer"]().install() as tracer:
        assert cli.main(["solve", "--config", "config.json"]) == cli.EXIT_OK
    iterations = json.loads(capsys.readouterr().out)["iterations"]
    values, _absent = tracer.metrics()
    steps = 10
    # 11 nodes fit one series chunk, so each series sum is one transform pair
    assert nonlinear.series_chunk_nodes(dim, nonlinear.padded_grid_size(3, 2.0)) > steps
    chunks = values["nonlinear.taylor_sum.calls"]
    assert values["stepper.step.calls"] == steps
    assert values["nonlinear.rhs_exponential.calls"] == 4 * steps
    assert chunks > 0
    # the exponential route runs on DFT matrices: only the series chunks transform
    assert values["spectral.synthesize.calls"] == values["spectral.analyze.calls"] == chunks
    # Picard applies the Duhamel operator once per iteration, through its module name
    assert values["semigroup.duhamel_Iplus.calls"] == iterations


NUMPY_MA_SCRIPT = """
import json, sys
from epitaxy.cli import main

def run(mode, path, **config):
    config = {"schema_version": 1, "seed": 3, "output_dir": path + "-out", **config}
    with open(path, "w") as file:
        json.dump(config, file)
    assert main([mode, "--config", path]) == 0

run("solve", sys.argv[1], initial_data={"preset": "random-decay", "amplitude": 0.2, "dim": 2},
    solver={"truncation": 4, "dt": 0.01, "t_final": 0.05})
run("probe-operator", sys.argv[2], initial_data={"preset": "single-mode"},
    mode_options={"trajectories": 20, "dims": [1, 2], "max_truncation": 6, "t_final": 0.2})
print("numpy.ma" in sys.modules, file=sys.stderr)
"""


def test_solve_and_probe_never_import_numpy_ma(tmp_path):
    # np.unique's first call imports numpy.ma, +1.7 MiB RSS, far above the
    # benchmark's 0.1 MiB bound on peak_rss_mb: ``semigroup.distinct`` stands
    # in for it.  A fresh interpreter, since this one may hold numpy.ma
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    args = [str(tmp_path / "solve.json"), str(tmp_path / "probe.json")]
    done = subprocess.run(
        [sys.executable, "-c", NUMPY_MA_SCRIPT, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.strip().splitlines()[-1] == "False"


def test_readme_memory_estimate_matches_guard():
    # "... × 16 bytes × <live>", once each for solve, probe-operator and a
    # stored trajectory
    text = " ".join(README.read_text(encoding="utf-8").split())
    pattern = r"\(2(N|·max_truncation|·truncation)\+1\)\^\S+ × 16 bytes × (\d+)"
    found = dict(re.findall(pattern, text))
    assert found.keys() == {"N", "·max_truncation", "·truncation"}, f"README estimates: {found}"
    assert int(found["N"]) == max(cli.PICARD_LIVE_TRAJECTORIES, cli.WRITE_LIVE_TRAJECTORIES)
    assert int(found["·max_truncation"]) == cli.PROBE_LIVE_TRAJECTORIES
    assert int(found["·truncation"]) == cli.READ_LIVE_TRAJECTORIES
    # and the series sum's term: "plus <k> real grid arrays", each of one
    # chunk of "⌊2^<e> / M^dim⌋" nodes
    grids = re.findall(r"plus (\d+) real grid arrays", text)
    assert [int(k) for k in grids] == [cli.SERIES_GRID_ARRAYS], f"README grid arrays: {grids}"
    exponents = re.findall(r"⌊2\^(\d+) / M\^dim⌋", text)
    assert [2 ** int(e) for e in exponents] == [nonlinear._BATCH_GRID_POINTS], exponents
    # and the probe's table: "counts <b> bytes for each row"
    rows = re.findall(r"counts (\d+) bytes for each row", text)
    assert [int(b) for b in rows] == [cli.TABLE_ROW_BYTES], f"README row bytes: {rows}"


def _readme_sketch() -> str:
    readme = README.read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\s*```python\n(.*?)```", readme, re.S)
    assert sketch, "README has no library sketch"
    return sketch.group(1)


def test_readme_sketch_runs():
    namespace = {}
    exec(compile(_readme_sketch(), str(README), "exec"), namespace)
    assert namespace["gap"] < 1e-6


def _package_names():
    """The package's definitions and the references to them.

    Returns ``defined``, (module, name, is_class) for every top-level def or
    class and every method other than a dunder, where a method's name is
    "Class.method", and ``is_used(module, name)``: whether the name appears
    in the package outside its own definition.  A method (a property too)
    must be used as such, its class being used does not count, and a
    reference Class.method counts for that class alone.
    """
    # (identifier, module, definition it appears in, qualifier) for every name
    # and attribute, where a method's definition is "Class.method" and the
    # qualifier is the name an attribute is read from ("Class" in Class.method)
    references, defined, classes = set(), [], set()

    def record(tree, module, owner):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.add((node.id, module, owner, None))
            elif isinstance(node, ast.Attribute):
                qualifier = node.value.id if isinstance(node.value, ast.Name) else None
                references.add((node.attr, module, owner, qualifier))

    for path in sorted(PACKAGE.glob("*.py")):
        module = f"epitaxy.{path.stem}"
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(statement, "name", None)
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, owner, isinstance(statement, ast.ClassDef)))
            if not isinstance(statement, ast.ClassDef):
                record(statement, module, owner)
                continue
            classes.add(owner)
            for node in statement.bases + statement.decorator_list:
                record(node, module, owner)
            for item in statement.body:
                if isinstance(item, ast.FunctionDef):
                    method = f"{owner}.{item.name}"
                    if not item.name.startswith("__"):  # dunders are exempt
                        defined.append((module, method, False))
                    record(item, module, method)
                else:
                    record(item, module, owner)

    def uses(ref, module, name):
        ident, ref_module, ref_owner, qualifier = ref
        if ident != name.split(".")[-1]:
            return False
        if qualifier in classes and f"{qualifier}.{ident}" != name:
            return False  # Other.method
        where = ref_owner if "." in name else str(ref_owner).split(".")[0]
        return (ref_module, where) != (module, name)

    def is_used(module, name):
        return any(uses(ref, module, name) for ref in references)

    return defined, is_used


def test_public_names_are_used():
    # code that only tests call belongs in tests/, so every public top-level
    # def or class must be referenced by the package, exported or hooked, and
    # every public method referenced by the package or hooked
    missing = [name for name in epitaxy.__all__ if not hasattr(epitaxy, name)]
    assert not missing, f"names in epitaxy.__all__ that do not resolve: {missing}"
    imported = {
        alias.name
        for node in ast.walk(ast.parse(_readme_sketch()))
        if isinstance(node, ast.ImportFrom) and node.module == "epitaxy"
        for alias in node.names
    }
    assert imported, "the library sketch imports nothing from epitaxy"
    assert imported <= set(epitaxy.__all__), f"not exported: {imported - set(epitaxy.__all__)}"
    hooks = runpy.run_path(str(TRACING))["SPAN_HOOKS"]
    hooked = {(module, path) for _name, module, path in hooks}
    hooked |= {(module, path.split(".")[0]) for module, path in hooked}
    defined, is_used = _package_names()
    unused = [
        f"{module}.{name}"
        for module, name, _is_class in defined
        if name.split(".")[-1][0] != "_"
        and name not in epitaxy.__all__
        and (module, name) not in hooked
        and not is_used(module, name)
    ]
    assert not unused, f"public names that only tests use; move them to tests/: {unused}"


def test_private_names_are_used():
    # a private top-level function or private method is the package's own
    # helper: nothing outside the package may be its only caller
    defined, is_used = _package_names()
    private = [
        (module, name)
        for module, name, is_class in defined
        if name.split(".")[-1][0] == "_" and not is_class
    ]
    assert private, "no private functions or methods found"
    unused = [f"{module}.{name}" for module, name in private if not is_used(module, name)]
    assert not unused, f"private names the package never uses; move them to tests/: {unused}"


def test_trajectory_tables_never_pass_through_json(tmp_path, monkeypatch):
    # the tables go to the .npy file as binary; formatting them as JSON text
    # was the largest single cost of a 2-D solve
    spec = cli.RunSpec(
        mode="solve",
        initial_data={"preset": "random-decay", "amplitude": 0.2, "seed": 7, "dim": 2},
        solver=SolverConfig(truncation=4, dt=0.01, t_final=1.0),
        alpha=None,
        seed=7,
        output_dir=str(tmp_path),
        mode_options={},
        override_certificate=False,
    )
    traj = linear_trajectory(random_decay(4, seed=7, amplitude=0.2, dim=2), np.linspace(0.0, 1.0, 11))
    table_numbers = set(traj.to_json_dict()["tables"].ravel().tolist()) - {0.0}
    assert len(table_numbers) > 100
    encoded = []
    dumps = json.dumps

    def recording(value, *args, **kwargs):
        encoded.append(value)
        return dumps(value, *args, **kwargs)

    def numbers(value):
        if isinstance(value, dict):
            return set().union(*map(numbers, value.values()))
        if isinstance(value, (list, tuple)):
            return set().union(*map(numbers, value))
        return {value} if isinstance(value, float) else set()

    monkeypatch.setattr(json, "dumps", recording)
    cli.write_trajectory(tmp_path / "trajectory.json", traj, spec)
    assert encoded, "the manifest was not written by json.dumps"
    assert not any(isinstance(value, np.ndarray) for value in encoded)
    assert not set().union(*map(numbers, encoded)) & table_numbers


def test_artifact_gate_compares_two_solves(tmp_path, monkeypatch, capsys):
    # the gate's comparison on two tiny in-process solves under the same
    # relative output path: identical runs pass, and each kind of drift fails
    gate = runpy.run_path(str(ROOT / "tools" / "artifact_gate.py"))
    config = {
        "schema_version": 1,
        "initial_data": {"preset": "random-decay", "amplitude": 0.2, "seed": 7, "dim": 2},
        "solver": {"truncation": 3, "dt": 0.01, "t_final": 0.05},
        "output_dir": "out/solve",
    }
    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
        monkeypatch.chdir(tmp_path / tree)
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["solve", "--config", "config.json"]) == cli.EXIT_OK
    capsys.readouterr()
    parent, change = tmp_path / "parent" / "out", tmp_path / "change" / "out"
    passed, lines = gate["compare_outputs"](parent, change)
    assert passed, lines
    assert len(lines) == 11 and all("byte-identical" in line for line in lines[:10])
    assert lines[10].startswith("ok   solve: Picard iterations")

    summary = change / "solve" / "summary.json"
    body = json.loads(summary.read_text(encoding="utf-8"))

    def rewritten(**changes):
        text = json.dumps({**body, **changes}, indent=2, sort_keys=True) + "\n"
        summary.write_text(text, encoding="utf-8")
        return gate["compare_outputs"](parent, change)

    delta = body["final_delta"]
    passed, lines = rewritten(final_delta=float(np.nextafter(delta, np.inf)))  # one ulp
    assert passed and re.search(r"solve/summary\.json: numbers within \S+e-16", "\n".join(lines))
    passed, lines = rewritten(final_delta=delta * (1.0 + 1e-12))
    assert not passed and "above 1e-15" in "\n".join(lines)
    passed, lines = rewritten(iterations=body["iterations"] + 1)
    assert not passed and "FAIL solve: Picard iterations" in "\n".join(lines)
    rewritten()
    tables = change / "solve" / "picard_trajectory.npy"
    raw = bytearray(tables.read_bytes())
    raw[-1] ^= 1
    tables.write_bytes(bytes(raw))
    passed, lines = gate["compare_outputs"](parent, change)
    assert not passed and "FAIL solve/picard_trajectory.npy: bytes differ" in lines


def test_artifact_gate_compares_two_probes(tmp_path, monkeypatch, capsys):
    # two tiny in-process probe runs under the same relative output path:
    # the table is byte-identical, and a one-ulp change of a ratio is a
    # difference within the gate's tolerance
    gate = runpy.run_path(str(ROOT / "tools" / "artifact_gate.py"))
    config = {
        "schema_version": 1,
        "seed": 42,
        "mode_options": {"trajectories": 4, "max_truncation": 4, "t_final": 0.2, "dt": 0.01},
        "output_dir": "out/probe",
    }
    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
        monkeypatch.chdir(tmp_path / tree)
        Path("config.json").write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["probe-operator", "--config", "config.json"]) == cli.EXIT_OK
    capsys.readouterr()
    parent, change = tmp_path / "parent" / "out", tmp_path / "change" / "out"
    passed, lines = gate["compare_outputs"](parent, change)
    assert passed, lines
    assert "ok   probe/operator_probe.csv: byte-identical" in lines
    assert len(lines) == 3 and all("byte-identical" in line for line in lines)

    table = change / "probe" / "operator_probe.csv"
    text = table.read_text(encoding="utf-8")
    header, row = text.splitlines()[1:3]
    ratio = row.split(",")[header.split(",").index("ratio")]
    bumped = repr(float(np.nextafter(float(ratio), np.inf)))
    table.write_text(text.replace(f",{ratio},", f",{bumped},", 1), encoding="utf-8")
    passed, lines = gate["compare_outputs"](parent, change)
    report = "\n".join(lines)
    assert passed and re.search(r"probe/operator_probe\.csv: numbers within \S+e-16", report)


def test_artifact_gate_sizes_a_changed_table(tmp_path):
    # a changed .npy table still fails, and the report says by how much,
    # relative to the parent table's largest entry
    gate = runpy.run_path(str(ROOT / "tools" / "artifact_gate.py"))
    table = np.array([[[1.0, -8.0], [2.0, 0.5]], [[0.0, 3.0], [-1.0, 0.25]]])
    changed = table.copy()
    changed[0, 1, 0] += 2.0**-40  # exactly representable: 2^-43 of the largest entry
    for tree, values in (("parent", table), ("change", changed)):
        (tmp_path / tree / "solve").mkdir(parents=True)
        np.save(tmp_path / tree / "solve" / "picard_trajectory.npy", values)
    passed, lines = gate["compare_outputs"](tmp_path / "parent", tmp_path / "change")
    assert not passed
    assert lines == [
        "FAIL solve/picard_trajectory.npy: bytes differ",
        f"     solve/picard_trajectory.npy: largest |change - parent| {2.0**-43:.2g} "
        "of the parent's largest entry",
    ]
    np.save(tmp_path / "change" / "solve" / "picard_trajectory.npy", changed[:, :1])
    _passed, lines = gate["compare_outputs"](tmp_path / "parent", tmp_path / "change")
    shapes = "table shapes differ: (2, 2, 2) -> (2, 1, 2)"
    assert lines[1] == f"     solve/picard_trajectory.npy: {shapes}"
