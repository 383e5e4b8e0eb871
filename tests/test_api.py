"""The public API: one name per concept, the README quick tour runs as
written, and every name the benchmark harness in ``perfbench/`` looks up
still exists.  The harness files are only parsed here, never imported."""

import ast
import importlib
import re
from pathlib import Path

import jetforge

ROOT = Path(__file__).resolve().parent.parent


def test_no_public_name_is_an_alias_of_another():
    names_by_object = {}
    for name, value in vars(jetforge).items():
        if not name.startswith("_") and callable(value):
            names_by_object.setdefault(id(value), []).append(name)
    assert [names for names in names_by_object.values() if len(names) > 1] == []


def test_readme_quick_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    exec(compile(tour, "README.md", "exec"), {})


def _perfbench(name: str) -> ast.Module:
    return ast.parse((ROOT / "perfbench" / name).read_text(encoding="utf-8"))


def test_every_name_perfbench_looks_up_exists():
    timed = next(
        ast.literal_eval(node.value)
        for node in _perfbench("tracer.py").body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TIMED"]
    )
    missing = [
        f"jetforge.{layer}.{name}"
        for layer, names in timed.items()
        for name in names
        if not hasattr(importlib.import_module(f"jetforge.{layer}"), name)
    ]
    used = {
        node.attr
        for node in ast.walk(_perfbench("verify.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "jf"
    }
    missing += [
        f"jetforge.{name}" for name in sorted(used) if not hasattr(jetforge, name)
    ]
    assert missing == []
    # the tracer counts derivative-cache hits through this
    assert callable(jetforge.symbols._total_derivative_cached.cache_info)
