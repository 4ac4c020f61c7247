"""Package surface and demos: every exported name resolves, every demo
runs against the current API, no module keeps a dead import, and the
benchmark's tracer still finds every name it wraps."""

import argparse
import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import os
import re
import runpy
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import saddlescape

MODULES = ["saddlescape"] + [
    f"saddlescape.{info.name}" for info in pkgutil.iter_modules(saddlescape.__path__)
]
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted(
    path for path in Path(saddlescape.__file__).parent.glob("*.py")
    if path.stem != "__init__"
)


def test_all_names_resolve():
    missing = [name for name in saddlescape.__all__ if not hasattr(saddlescape, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES[1:])
def test_submodule_keeps_no_export_list(module):
    # The package's surface is what __init__ imports; inside a module a name
    # without a leading underscore is public.  A second list would restate it.
    assert not hasattr(importlib.import_module(module), "__all__")


def _defined_names(path: Path) -> set[str]:
    """The names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_package_exports_only_what_submodules_declare():
    # saddlescape.__all__ is derived from __init__'s imports, so a stray
    # helper import there (say, typing's Callable) would become an export:
    # each export must be defined, not imported, at the top of a submodule.
    # And no exported name is spelled as a string there, so the hand-kept
    # list does not come back.
    defined = set().union(*map(_defined_names, SOURCES))
    exported = set(saddlescape.__all__) - {"__version__"}
    assert exported and sorted(exported - defined) == []
    tree = ast.parse(Path(saddlescape.__file__).read_text())
    strings = {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert sorted(strings & exported) == []


# The first line each demo prints (blank lines aside).
DEMO_FIRST_LINES = {
    "accelerated_escape": "one trace, event timeline:",
    "curvature_search_concentration":
        "landscape     quartic, saddle at [0. 0.], lambda_min = -1.0",
    "dimension_scaling": "     n  nc steps  nc rate  pgd steps  pgd rate",
    "quartic_escape_comparison":
        "curvature search (nc): escape rate 1.000 (bar: decrease >= 0.9)",
    "stochastic_escape": "trials 200, threshold: decrease >= 0.6",
    "verification_tour": "catalog sweep: OK (49 checks, 0 failures)",
}


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, monkeypatch, capsys):
    # Each demo runs in full, as `python3 demos/<name>.py` with no argument
    # (dimension_scaling reads sys.argv[1] as its trial count).
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert lines[0] == DEMO_FIRST_LINES[path.stem]


def test_verification_tour_runs(capsys):
    # The one demo that cross-checks declared bottom eigenvalues, run in full:
    # nc_find scored by fd_quadform at n = 300, the dense Hessian at n = 10.
    runpy.run_path(str(ROOT / "demos" / "verification_tour.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "catalog sweep: OK (49 checks, 0 failures)"
    assert lines[-2:] == [
        "  n = 300 nc_find + fd_quadform: lambda_min ~ -1.0000 (declared -1.0000)",
        "  n = 10 dense Hessian: lambda_min = -1.0000 (declared -1.0000)",
    ]


def test_readme_quick_tour_runs(capsys):
    # The README's one python block is the documented example of the API,
    # and it prints what its comments claim: the certificate is about -1,
    # and the exploit lands below f(saddle) by at least the lemma bound.
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    namespace = {"__name__": "readme"}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    quadform, f_next = map(float, capsys.readouterr().out.split())
    assert abs(quadform + 1.0) <= 1e-6
    assert f_next <= namespace["f0"] - saddlescape.lemma_decrease_bound(0.04, 1.0)


@pytest.mark.parametrize("module", SOURCES, ids=lambda path: path.stem)
def test_no_unused_imports(module):
    # A name bound by a top-level import must be used in the code or named
    # in a string constant (the harness looks its run functions up by name).
    tree = ast.parse(module.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    assert sorted(imported - used) == []


def test_cli_import_leaves_out_process_pool_modules():
    # The harness forks its trial workers itself and imports neither.
    code = (
        "import sys, saddlescape.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    src = str(Path(saddlescape.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_dimscale_real_fork_matches_serial():
    # End to end with real os.fork workers: rows do not depend on the job
    # count, and the run ends (it is timed out otherwise).
    src = str(Path(saddlescape.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "saddlescape.cli", "dimscale", "--p", "1,2", "--trials", "6"]
    runs = [
        subprocess.run(argv + ["--jobs", jobs], env=env, capture_output=True, timeout=120)
        for jobs in ("2", "1")
    ]
    assert [run.returncode for run in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout != b""


def _names_used(tree: ast.AST) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_tests_import_no_private_name_that_src_does_not_use():
    # A private helper kept in src/ only for the tests to import belongs in
    # the tests (tests/conftest.py holds the references).
    src_used = set().union(*(
        _names_used(ast.parse(path.read_text()))
        for path in Path(saddlescape.__file__).parent.glob("*.py")
    ))
    imported = {
        (path.name, alias.name)
        for path in sorted((ROOT / "tests").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "saddlescape"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert imported  # the check sees the tests' private imports
    assert sorted((f, name) for f, name in imported if name not in src_used) == []


def test_perfbench_tracer_finds_every_point_it_wraps(monkeypatch):
    # The benchmark's tracer wraps library names (harness.pgd_nc_run,
    # drivers.nc_find, GradientOracle.gradient, ...) by looking them up; a
    # rename would otherwise fail only inside a traced benchmark run.
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read-only: no cache file
    spec.loader.exec_module(spans)
    mods = {
        name: importlib.import_module(f"saddlescape.{name}")
        for name in (
            "ancgd", "cli", "core", "drivers", "harness", "ncfind", "stochastic", "testbed",
            "verify",
        )
    }
    tracer = spans.Tracer()
    try:
        tracer.install(mods, full=True)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        assert tracer.uninstall() == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


def test_readme_cli_section_names_only_what_exists():
    # The CLI section documents every way into a run: each flag it names is
    # one that build_parser() defines, and each SADDLESCAPE_* variable is
    # one that src/ reads.
    from saddlescape.cli import build_parser

    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## CLI\n(.*?)^## ", readme, re.DOTALL | re.MULTILINE).group(1)
    parsers = [build_parser()]
    for action in parsers[0]._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers.extend(action.choices.values())
    flags = {opt for p in parsers for action in p._actions for opt in action.option_strings}
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    assert named and sorted(named - flags) == []
    source = "".join(path.read_text() for path in Path(saddlescape.__file__).parent.glob("*.py"))
    env_read = r"""(?:environ\.get\(|environ\[|getenv\()\s*["'](SADDLESCAPE_\w+)"""
    read = set(re.findall(env_read, source))
    assert sorted(set(re.findall(r"\bSADDLESCAPE_\w+", section)) - read) == []


def _defines_test(file: str, name: str) -> bool:
    """Whether tests/<file> defines the test function or class name, a
    ::-separated path such as TestNorm::test_planar_length_bit_identical_to_numpy."""
    body = ast.parse((ROOT / "tests" / file).read_text()).body
    for part in name.split("::"):
        found = [
            node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == part
        ]
        if not found or not part.startswith(("test_", "Test")):
            return False
        body = found[0].body
    return True


def test_readme_stays_a_map():
    # Contracts live in the docstrings of the code they describe; the README
    # only points at them, and a restatement creeping back shows as length.
    assert len((ROOT / "README.md").read_text().splitlines()) <= 260


def test_readme_references_resolve():
    # Each backticked `module.name` in the README names something that
    # saddlescape.<module> defines (file names such as `harness.py` are not
    # references), and each --flag on a `saddlescape <command>` line is one
    # that the command's parser defines, so a rename or deletion in src/
    # leaves no stale name in the README.
    from saddlescape.cli import build_parser

    readme = (ROOT / "README.md").read_text()
    modules = {name.rsplit(".", 1)[1] for name in MODULES[1:]}
    refs = [
        (module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", readme)
        if module in modules and name != "py"
    ]
    assert refs
    unresolved = [
        f"{module}.{name}" for module, name in refs
        if not hasattr(importlib.import_module(f"saddlescape.{module}"), name)
    ]
    assert unresolved == []
    # Each `tests/<file>.py::<name>` (or ::<Class>::<name>) names a test
    # that the file defines.
    cited = re.findall(r"`tests/(\w+\.py)::([\w:]+)`", readme)
    assert cited
    assert [f"{file}::{name}" for file, name in cited if not _defines_test(file, name)] == []
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    commands = re.findall(rf"\bsaddlescape ({'|'.join(sub.choices)})\b(.*)", readme)
    assert commands
    unknown = [
        f"{command}: {flag}" for command, rest in commands
        for flag in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", rest)
        if flag not in {opt for a in sub.choices[command]._actions for opt in a.option_strings}
    ]
    assert unknown == []


def _readme_cli_lines() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## CLI\n(.*?)^## ", readme, re.DOTALL | re.MULTILINE).group(1)
    block = re.search(r"^```sh\n(.*?)^```", section, re.DOTALL | re.MULTILINE).group(1)
    return [line for line in block.splitlines() if line.startswith("saddlescape ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_runs(line, tmp_path, monkeypatch, capsys):
    # Each command the README's CLI block shows exits 0 as written.
    from saddlescape.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line, comments=True)[1:]) == 0


def test_readme_cli_block_is_found():
    # An empty block would leave test_readme_cli_line_runs with no cases.
    assert _readme_cli_lines()


def test_schedule_constants_are_written_once():
    # K = 384 of the certified decrease sqrt(eps^3 / rho) / K is written once,
    # beside lemma_decrease_bound; the schedules write 768 and 2304 as 2 K and
    # 6 K.  Comments and strings do not count.
    numbers = []
    for path in Path(saddlescape.__file__).parent.glob("*.py"):
        with open(path) as fh:
            numbers += [
                ast.literal_eval(tok.string)
                for tok in tokenize.generate_tokens(fh.readline)
                if tok.type == tokenize.NUMBER
            ]
    assert [numbers.count(c) for c in (384, 768, 2304)] == [1, 0, 0]


def test_algorithm_table_is_written_once():
    # harness._ALGORITHMS is the one dict keyed by every algorithm id: its
    # rows carry the run function, the params builder and the knob contract,
    # and the CLI's --alg help reads ALGORITHMS.
    from saddlescape.cli import build_parser
    from saddlescape.harness import ALGORITHMS

    tables = [
        path.name
        for path in sorted(Path(saddlescape.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Dict)
        and set(ALGORITHMS) <= {k.value for k in node.keys if isinstance(k, ast.Constant)}
    ]
    assert tables == ["harness.py"]
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    run_help = sub.choices["run"].format_help()
    assert [alg for alg in ALGORITHMS if not re.search(rf"\b{alg}\b", run_help)] == []


def test_every_params_field_is_read_by_a_run(monkeypatch, capsys):
    # A field that no run reads would be validated and printed by `params`
    # without changing any run.  Reads count only from the run modules, and
    # not from __post_init__, so dataclasses.replace and the checks do not.
    from saddlescape import (
        ANCParams, BaselineParams, NCDescentParams, NCParams, SNCParams,
    )
    from saddlescape.cli import main
    from saddlescape.harness import RECIPES

    runs = {"ncfind", "ancgd", "stochastic", "drivers"}
    read = set()

    def spy(self, name):
        caller = sys._getframe(1).f_code
        if Path(caller.co_filename).stem in runs and caller.co_name != "__post_init__":
            read.add((type(self).__name__, name))
        return object.__getattribute__(self, name)

    classes = (NCParams, SNCParams, ANCParams, NCDescentParams, BaselineParams)
    for cls in classes:
        monkeypatch.setattr(cls, "__getattribute__", spy)
    recipes = [(alg, fn) for alg, fn in RECIPES if fn != "highdim"]
    assert len(recipes) == 6
    for alg, fn in recipes:
        assert main(["run", "--alg", alg, "--fn", fn, "--trials", "3", "--jobs", "1"]) == 0
    capsys.readouterr()
    unread = [
        (cls.__name__, f.name) for cls in classes for f in dataclasses.fields(cls)
        if (cls.__name__, f.name) not in read
    ]
    assert unread == []


def test_vectors_are_checked_in_one_place():
    # core.require_vector is the one check of a vector a caller hands the
    # library, and only core calls np.isfinite: an inline copy fails here.
    modules = {
        path.name
        for path in Path(saddlescape.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.isfinite"
    }
    assert modules == {"core.py"}


def test_output_paths_are_checked_in_one_place():
    # harness._check_out is the one rule for an output path, so run and
    # dimscale refuse a bad --out alike: os.path used anywhere else fails here.
    users = set()
    for path in Path(saddlescape.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "os.path":
                # ast.walk meets an outer function before one nested in it.
                owners = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                users.add(f"{path.stem}.{owners[-1] if owners else '<module>'}")
    assert users == {"harness._check_out"}


def test_episode_holds_are_built_in_one_place():
    # ncfind._episode bills the held iterations of both escape loops: an
    # ncf-step TraceRecord built anywhere else fails here.
    builders = {
        f"{path.stem}.{func.name}"
        for path in Path(saddlescape.__file__).parent.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "TraceRecord"
        and "EVENT_NCF_STEP" in map(ast.unparse, node.args)
    }
    assert builders == {"ncfind._episode"}


def test_momentum_reset_is_written_once():
    # The reset's step to nce_radius is written once, inline in accelerate,
    # and the loop carries its momentum's length, so ancgd builds no zero
    # momentum array.
    resets = [
        f"{path.stem}.{func.name}"
        for path in Path(saddlescape.__file__).parent.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_lower_step"
        and "nce_radius" in ast.unparse(node)
    ]
    assert resets == ["ancgd.accelerate"]
    ancgd = (Path(saddlescape.__file__).parent / "ancgd.py").read_text()
    assert "zeros_like" not in ancgd


def test_ancgd_takes_every_length_from_core_norm():
    # numpy's 2-d dot product is fused, so a hand-written planar length
    # rounds differently from core._norm and a planar path would lose its
    # bytes.  The same holds for the power search kernel and the finders'
    # steps with their planar twins; snc_find's steps take their lengths
    # from the kernel.  The rest of ncfind and snc_find is not checked,
    # since lemma_decrease_bound, exploit and the noise scale take scalar
    # square roots.
    pkg = Path(saddlescape.__file__).parent

    def parse(module):
        return ast.parse((pkg / f"{module}.py").read_text())

    def defs(name, body):
        return {f"{name}.{node.name}": node for node in body if isinstance(node, ast.FunctionDef)}

    ncfind = defs("ncfind", parse("ncfind").body)
    snc_find = defs("stochastic", parse("stochastic").body)["stochastic.snc_find"]
    snc_steps = defs("stochastic.snc_find", snc_find.body)
    assert list(snc_steps) == ["stochastic.snc_find.step", "stochastic.snc_find.planar"]
    trees = {
        "ancgd": parse("ancgd"),
        "ncfind._power_search": ncfind["ncfind._power_search"],
        "ncfind._difference_step": ncfind["ncfind._difference_step"],
        **snc_steps,
    }
    lengths = [
        (name, ast.unparse(node)) for name, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and ast.unparse(node) in {"math.sqrt", "math.hypot", "np.linalg.norm"}
        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and ast.unparse(node.right) == "0.5"
    ]
    assert lengths == []
    norms = [name for name, tree in trees.items() if "_norm(" in ast.unparse(tree)]
    assert norms == ["ancgd", "ncfind._power_search", "ncfind._difference_step"]


def test_no_length_or_check_builds_an_array():
    # core._norm2 and core._check_planar take a pair's Python floats with
    # _norm's and check_iterate's bytes, so no path builds a 2-element
    # array only to measure or check it.
    built = [
        f"{path.stem}: {call}"
        for path in Path(saddlescape.__file__).parent.glob("*.py")
        for call in ("_norm(np.array(", "check_iterate(np.array(")
        if call in path.read_text()
    ]
    assert built == []


def test_no_planar_query_builds_an_array():
    # The planar steps query gradients and additive differences through the
    # callables' float twins (GradientOracle._gradient_pair, core._float_pair),
    # so no path builds a 2-element array only to query it.  The twin is set
    # in two places: on every 2-d landscape callable, and on the additive
    # difference.
    pkg = Path(saddlescape.__file__).parent
    built = [
        f"{path.stem}: {call}"
        for path in pkg.glob("*.py")
        for call in ("gradient(np.array(", "diff(np.array(")
        if call in path.read_text()
    ]
    assert built == []

    def setters(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from setters(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(child, "targets", None) or [child.target]
                if any(isinstance(t, ast.Attribute) and t.attr == "twin" for t in targets):
                    yield scope
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "setattr":
                yield scope
            yield from setters(child, scope)

    found = sorted(
        name for path in pkg.glob("*.py")
        for name in setters(ast.parse(path.read_text()), path.stem)
    )
    assert found == ["core.AdditiveNoiseOracle.diff_sampler", "testbed._on_floats"]


def test_testbed_catches_overflow_in_two_places():
    # _on_floats is the one fallback of every 2-d formula; exponential's
    # math.exp guard is the other handler.
    tree = ast.parse((Path(saddlescape.__file__).parent / "testbed.py").read_text())
    caught = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and "OverflowError" in ast.unparse(node.type)
    ]
    assert len(caught) == 2


def test_overflow_is_caught_only_by_the_float_fallbacks():
    # A float twin that overflows falls back to numpy's inf or NaN; every
    # other overflow is refused where the input enters (core.require_square).
    def handlers(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from handlers(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                if "OverflowError" in ast.unparse(child.type):
                    yield scope
            yield from handlers(child, scope)

    caught = sorted(
        name for path in Path(saddlescape.__file__).parent.glob("*.py")
        for name in handlers(ast.parse(path.read_text()), path.stem)
    )
    assert caught == [
        "core._float_pair", "testbed._on_floats.evaluate", "testbed.make_exponential._parts",
    ]


def _perfbench_module(name: str, monkeypatch):
    """perfbench/<name>.py imported under its own name, read-only (no cache
    file), and forgotten after the test."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_perfbench_certify_runs_one_saddle(monkeypatch):
    # The certify workload calls derive_nc_params, derive_anc_params and
    # derive_snc_params by package name; a move or rename would otherwise
    # fail only inside a benchmark run.
    monkeypatch.setattr(sys, "path", list(sys.path))  # load_package prepends src/
    _perfbench_module("spans", monkeypatch)  # run.py imports it by that name
    run = _perfbench_module("run", monkeypatch)
    pkg = run.load_package()
    certify = run.Certify(pkg)
    exps = certify.run_saddle(pkg, 0, certify.landscapes[0], None)
    assert [(exp.label, exp.error) for exp in exps] == [
        (f"{finder}/{certify.landscapes[0]}", None) for finder in certify.finder_seeds
    ]


def test_perfbench_capture_reads_summary_traces(monkeypatch, tmp_path, capsys):
    # The benchmark's quality metrics (escape_iter_p50, certified_rate) come
    # from its capture tracer, which reads each harness trial's records and
    # meta; harness trials keep no iterates, and the tracer must not need
    # them.
    spans = _perfbench_module("spans", monkeypatch)
    monkeypatch.chdir(tmp_path)
    from saddlescape import harness
    from saddlescape.cli import main

    tracer = spans.Tracer()
    tracer.install({"harness": harness}, full=False)
    try:
        assert main(["run", "--alg", "nc", "--fn", "quartic", "--trials", "5"]) == 0
    finally:
        assert tracer.uninstall() == []
    assert [o.alg for o in tracer.outcomes] == ["nc"] * 5
    assert all(0 <= o.escape_iter <= 91 and o.records == 91 for o in tracer.outcomes)
    assert all(o.first_certified for o in tracer.outcomes)
