"""Build and run artefacts stay out of version control, every package
that the program imports is declared, the module attributes that the
benchmark harness patches exist, every per-layer metric names a function
it times, the README documents every exported function, no chain
function reads a file, and only the chain runner makes a chain's
counters."""
import ast
import importlib
import importlib.util
import inspect
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", *args], cwd=REPO_ROOT,
                          capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    if _git("rev-parse", "--is-inside-work-tree").stdout.strip() != "true":
        pytest.skip("not a git work tree")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == "", (
        "tracked files matched by .gitignore:\n" + listed.stdout)


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    imported = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.partition(".")[0], path.name)
    third_party = {name: where for name, where in imported.items()
                   if name not in sys.stdlib_module_names and name != "stiefel_mcmc"}
    undeclared = {name: where for name, where in third_party.items()
                  if name not in declared}
    assert "numpy" in third_party
    assert not undeclared, f"imported in src/ but not in dependencies: {undeclared}"


def test_the_seams_the_benchmark_patches_exist(tmp_path):
    # perfbench/child.py wraps these names from outside; a refactor that
    # renames or bypasses one would otherwise fail only a benchmark run.
    # Loading it by path runs its top level only, which patches nothing
    spec = importlib.util.spec_from_file_location(
        "child", REPO_ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    from stiefel_mcmc import cli, kernels, samplers

    cli_calls = {(node.func.value.id, node.func.attr)
                 for node in ast.walk(ast.parse(inspect.getsource(cli)))
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute)
                 and isinstance(node.func.value, ast.Name)}
    for short, attr in child.RUNNERS:
        module = importlib.import_module(f"stiefel_mcmc.{short}")
        assert callable(getattr(module, attr, None)), f"{short}.{attr}"
        assert getattr(cli, short) is module
        assert (short, attr) in cli_calls, f"cli does not call {short}.{attr}"
    for short in child.LAYER_MODULES:
        importlib.import_module(f"stiefel_mcmc.{short}")
    impl = inspect.getmodule(kernels.mf_vector)
    assert [name for name in kernels.__all__ if name not in vars(impl)] == []
    assert callable(samplers.orthonormalize)
    assert callable(cli.derive_rng)
    assert cli.main(["svd-sim", "--m", "3", "--n", "2", "--rank-true", "1",
                     "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["backend"] == kernels.BACKEND


def test_every_per_layer_metric_names_a_traced_function():
    # perfbench/child.py times the public functions of its LAYER_MODULES and
    # the kernels in kernels.__all__; a per-layer metric of BENCHMARK.json
    # whose function was renamed or made private would silently read 0
    spec = importlib.util.spec_from_file_location(
        "child", REPO_ROOT / "perfbench" / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    from stiefel_mcmc import kernels

    def traced(short):
        module = importlib.import_module(f"stiefel_mcmc.{short}")
        if short == "kernels":
            impl = inspect.getmodule(kernels.mf_vector)
            return {name for name in kernels.__all__
                    if inspect.isfunction(getattr(impl, name, None))}
        return {name for name, fn in vars(module).items()
                if inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not name.startswith("_")}

    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    checked = set()
    for metric in benchmark["per_layer"]:
        short, _, rest = metric["name"].partition(".")
        fn, _, stat = rest.rpartition(".")
        if (stat not in {"self_s", "total_s", "calls"}
                or short not in {*child.LAYER_MODULES, "kernels"}):
            continue
        if (short, fn) == ("csvio", "read"):
            assert any(name.startswith(("read_", "parse_"))
                       for name in traced("csvio")), metric["name"]
        elif (short, fn) == ("csvio", "write"):
            assert any(name.startswith("write_") for name in traced("csvio")), \
                metric["name"]
        else:
            assert fn in traced(short), metric["name"]
        checked.add(short)
    assert checked == {"csvio", "kernels", "samplers", "svd_model", "eigenmodel"}


def test_readme_table_lists_exactly_the_exported_functions():
    # each row of the README's sampling-primitives table starts with
    # | `name(...)`; a public function added or removed without its row
    # fails here, and so does a row left for a function that is gone
    import stiefel_mcmc

    exported = {name for name in stiefel_mcmc.__all__
                if inspect.isfunction(getattr(stiefel_mcmc, name))}
    readme = (REPO_ROOT / "README.md").read_text()
    table = readme.partition("| function | draw |")[2].partition("\n\n")[0]
    documented = set(re.findall(r"^\| `(\w+)\(", table, flags=re.MULTILINE))
    assert documented, "no sampling-primitives table in README.md"
    assert exported - documented == set(), "exported but not in the README table"
    assert documented - exported == set(), "in the README table but not exported"


def test_no_chain_function_reads_a_file():
    # the inputs are read and checked once, in the parent, before any
    # chain runs; a chain function (the one each _fan_out call is handed)
    # gets them as arguments and opens no file
    from stiefel_mcmc import cli

    tree = ast.parse(inspect.getsource(cli))
    chain_fns = {node.args[2].id for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "_fan_out"}
    assert chain_fns == {"_svd_fit_chain", "_eigen_fit_chain"}
    reads = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in chain_fns):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                reads.append(f"{fn.name}: open")
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id == "csvio"
                  and func.attr.startswith(("read_", "parse_"))):
                reads.append(f"{fn.name}: csvio.{func.attr}")
    assert reads == []


def test_only_the_runner_makes_a_chain_s_counts():
    # samplers.run_chain makes each chain's one DrawCounts and hands it to
    # every step; kernels.bingham_spectral may make a throwaway one when
    # called without. A runner or update making its own would split a
    # chain's diagnostics across two sinks
    makers = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        if path.name == "kernels.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        fns = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if not (isinstance(node, ast.Call) and "DrawCounts" in (
                    getattr(func, "id", None), getattr(func, "attr", None))):
                continue
            owner = max((fn for fn in fns
                         if fn.lineno <= node.lineno <= fn.end_lineno),
                        key=lambda fn: fn.lineno, default=None)
            makers.append(f"{path.stem}.{owner.name if owner else '<module>'}")
    assert makers == ["samplers.run_chain"]
