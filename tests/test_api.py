"""The public API: one name per concept, the README quick tour and CLI
session run as written, every name the benchmark harness in
``perfbench/`` looks up still exists, and the package imports only the
standard library.  The harness files are only parsed here, never
imported."""

import ast
import importlib
import re
import shlex
import sys
from pathlib import Path

import jetforge
from jetforge.cli import run_command

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


def test_readme_cli_session_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    session = re.search(r"Example session:\n\n```sh\n(.*?)```", readme, re.DOTALL)
    lewy = re.search(r"^(d\[1,0,0\].*?)\s+# the Lewy operator$", readme, re.M)
    (tmp_path / "lewy.pdo").write_text(
        f"dim 3 order 1\n{lewy.group(1)}\n", encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    runs = re.split(r"^\$ jetforge ", session.group(1), flags=re.M)[1:]
    assert len(runs) == 3
    for run in runs:
        command, _, shown = run.strip("\n").partition("\n")
        note = re.fullmatch(r"(.*?)(?:\s+# exit code (\d+))?", shown, re.S)
        shown, code = note.groups()
        assert run_command(shlex.split(command)) == int(code or 0), command
        assert capsys.readouterr().out == shown + "\n", command


def _perfbench(name: str) -> ast.Module:
    return ast.parse((ROOT / "perfbench" / name).read_text(encoding="utf-8"))


def _jf_chain(node) -> tuple | None:
    """``("A", "b")`` for the expression ``jf.A.b``, ``()`` for ``jf``
    itself, None for any other."""
    if isinstance(node, ast.Name):
        return () if node.id == "jf" else None
    if isinstance(node, ast.Attribute):
        head = _jf_chain(node.value)
        return None if head is None else head + (node.attr,)
    return None


def _resolves(chain) -> bool:
    value = jetforge
    for name in chain:
        if not hasattr(value, name):
            return False
        value = getattr(value, name)
    return True


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
    # jf.Name and jf.Name.attr chains alike
    used = {_jf_chain(node) for node in ast.walk(_perfbench("verify.py"))} - {None, ()}
    missing += [
        ".".join(("jetforge", *chain)) for chain in sorted(used) if not _resolves(chain)
    ]
    assert missing == []
    # the tracer counts derivative-cache hits through this
    assert callable(jetforge.symbols._total_derivative_cached.cache_info)


def test_the_package_imports_only_the_standard_library():
    # pyproject.toml declares dependencies = []
    outside = []
    for path in sorted((ROOT / "src" / "jetforge").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in modules
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
