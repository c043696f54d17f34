"""Source checks: invariants must survive ``python -O``, which strips ``assert``,
every function the benchmark's tracer hooks must still exist, and the README's
memory estimate must be the one the guard applies."""

import ast
import importlib
import re
import runpy
from pathlib import Path

import epitaxy
from epitaxy import cli

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


def test_readme_memory_estimate_matches_guard():
    # "... × 16 bytes × <live>", once for solve and once for probe-operator
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = dict(re.findall(r"\(2(N|·max_truncation)\+1\)\^\S+ × 16 bytes × (\d+)", text))
    assert found.keys() == {"N", "·max_truncation"}, f"README estimates found: {found}"
    assert int(found["N"]) == max(cli.PICARD_LIVE_TRAJECTORIES, cli.WRITE_LIVE_TRAJECTORIES)
    assert int(found["·max_truncation"]) == cli.PROBE_LIVE_TRAJECTORIES
