"""Smoke tests of the scripts under scripts/, run as a user runs them or
imported, of the README's lists of the scripts and of the search's prune
rules, of the source's line length, of the names the benchmark's tracer
looks up in the package, and of the package's modules imported one at a
time, of the layers they import each other in, of the one command
that shares unit graphs and of the one function that makes a family."""

from __future__ import annotations

import ast
import importlib
import re
import subprocess
from collections import Counter

import antimagic.cli as cli
from antimagic.search import RULES
from helpers import ROOT, run_python


def run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    return run_python(str(ROOT / "scripts" / script), *args)


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_lists_every_script():
    # the code block of the README's "Scripts" section runs each script,
    # in name order
    block = _readme().split("\n## Scripts\n", 1)[1].split("```")[1]
    assert re.findall(r"^python scripts/(\S+)$", block, re.MULTILINE) == sorted(
        p.name for p in (ROOT / "scripts").glob("*.py"))


def test_readme_names_every_search_prune_rule():
    # what `search` prints: the README lists the keys of prunes_by_rule in
    # search.RULES order
    rules = re.search(r"the prunes per rule \(([^)]*)\)", _readme()).group(1)
    assert re.findall(r"`(\w+)`", rules) == list(RULES)


def test_no_source_line_is_longer_than_100_columns():
    long = [f"{path.relative_to(ROOT)}:{number}"
            for folder in ("src", "scripts", "tests")
            for path in sorted((ROOT / folder).rglob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []


def test_s60_draws_the_baseline_sample(monkeypatch):
    # the first graph that the draw of the ROADMAP Baseline keeps, in the
    # drawn edge order, which is the order the search labels it in
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    s60 = importlib.import_module("s60")
    graphs = s60.draw_s60()
    assert len(graphs) == 60 and all(len(pairs) == 11 for pairs in graphs)
    assert graphs[0] == [(0, 6), (4, 5), (1, 5), (1, 2), (2, 5), (1, 4), (3, 4), (0, 4),
                         (1, 6), (2, 3), (1, 3)]
    g = s60.graph_of(graphs[0])
    assert g.names == tuple(f"v{i}" for i in range(7))
    assert g.edges[:2] == ((0, 6, 1), (4, 5, 2))
    # the first graph of S60@12 and of S60@13 (--edges 12, 13): each extends
    # the first graph at 11 edges
    assert s60.draw_s60(12)[0] == graphs[0] + [(5, 6)]
    assert s60.draw_s60(13)[0] == graphs[0] + [(5, 6), (3, 6)]


def test_s60_refuses_an_edge_count_it_cannot_draw():
    # 4 edges never connect 6 vertices; 16 are more than a 6-vertex draw's pairs
    for edges in ("4", "16"):
        proc = run_script("s60.py", "--edges", edges)
        assert proc.returncode == 2 and "--edges must be 5 to 15" in proc.stderr


def test_loc_counts_each_module_and_sums_them():
    proc = run_script("loc.py")
    assert proc.returncode == 0, proc.stderr
    *rows, total = [line.split() for line in proc.stdout.splitlines()]
    assert [name for name, _ in rows] == sorted(
        p.name for p in (ROOT / "src" / "antimagic").glob("*.py"))
    assert total[0] == "total" and int(total[1]) == sum(int(n) for _, n in rows)


def test_loc_leaves_out_blank_comment_and_docstring_lines(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    loc = importlib.import_module("loc")
    source = ('"""Module\ndocstring."""\n\n# a comment\nx = """two\nlines"""\n\n'
              'def f():\n    """Docstring."""\n    return x  # counted\n')
    assert loc.code_lines(source) == 4  # x's two lines, def and return


def test_bench_tracer_finds_every_name_it_wraps(monkeypatch):
    # bench/tracing.py resolves each wrap target with getattr and no
    # default, so a deleted or renamed package name breaks every traced run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    importlib.import_module("tracing").Tracer()  # AttributeError if one is gone


def test_traced_selftest_spans_every_build_coloring_and_check(monkeypatch, capsys):
    # selftest reaches build_family, induced_coloring and check_expected
    # through the cli names the tracer wraps, so their time is not filed
    # under cli.main
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    tracer = importlib.import_module("tracing").Tracer()
    argv = ["selftest", "--max-param", "0"]
    assert cli.main(argv) == 0
    untraced = capsys.readouterr().out
    tracer.install()
    try:
        assert tracer.root(cli.main)(argv) == 0
    finally:
        tracer.remove()
    assert capsys.readouterr().out == untraced
    spans = Counter(name for _, _, name, _, _ in tracer.spans)
    assert [spans[name] for name in ("families.build", "verify.coloring", "verify.check")] \
        == [260, 260, 260]


def test_each_module_imports_alone_and_the_version_is_the_projects():
    # the package __init__ imports nothing, so each module must pull in
    # what it needs itself
    modules = sorted(p.stem for p in (ROOT / "src" / "antimagic").glob("*.py")
                     if p.stem != "__init__")
    assert modules == ["cli", "document", "families", "graph", "matrices",
                       "search", "verify"]
    for name in modules:
        proc = run_python("-c", f"import antimagic.{name}")
        assert proc.returncode == 0, (name, proc.stderr)

    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    assert importlib.import_module("antimagic").__version__ == version


def test_a_cold_start_loads_no_dataclasses_and_no_inspect():
    # each command runs in a fresh interpreter, where importing dataclasses
    # would also import inspect, ast, dis and tokenize; -S keeps site's
    # .pth imports out of the count
    code = ("import sys\n"
            "from antimagic.cli import build_parser\n"
            "build_parser()\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = run_python("-S", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# Each module's package-internal imports: the layers below it.  verify and
# search compute; only document knows how a result is written.
LAYERS = {
    "graph": set(),
    "verify": {"graph"},
    "matrices": {"verify"},
    "families": {"graph", "matrices", "verify"},
    "search": {"graph", "verify"},
    "document": {"families", "graph", "matrices", "search", "verify"},
    "cli": {"document", "families", "graph", "matrices", "search", "verify"},
}


def _package_imports(source: str) -> set[str]:
    """The antimagic modules ``source`` imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("antimagic."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("antimagic."))
    return {name.split(".")[0] for name in found}


def test_each_module_imports_only_the_layers_below_it():
    assert _package_imports("from . import document as d\nfrom .graph import g\n"
                            "import antimagic.search\nfrom antimagic.verify import v\n"
                            "import json") == {"document", "graph", "search", "verify"}
    package = ROOT / "src" / "antimagic"
    imports = {p.stem: _package_imports(p.read_text(encoding="utf-8"))
               for p in package.glob("*.py") if p.stem != "__init__"}
    assert imports == LAYERS


def _callers(source: str, name: str) -> set[str]:
    """The functions of ``source`` that call ``name``, by name or as an
    attribute, ``<module>`` for a call outside any function."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None)) == name:
                    found.add(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_only_selftest_opens_a_shared_units_block():
    # a single build never asks for a unit point twice, so a memo there
    # would only keep a dead unit graph alive through the document write
    assert _callers("def f():\n    with m.shared_units():\n        g()\n"
                    "shared_units()\n", "shared_units") == {"f", "<module>"}
    package = ROOT / "src" / "antimagic"
    callers = {(p.stem, caller) for p in package.glob("*.py")
               for caller in _callers(p.read_text(encoding="utf-8"), "shared_units")}
    assert callers == {("cli", "cmd_selftest")}


def test_only_build_family_makes_a_family():
    # the builders return the graph and its claim; build_family alone
    # stamps the registry's tag and the caller's parameters
    package = ROOT / "src" / "antimagic"
    callers = {(p.stem, caller) for p in package.glob("*.py")
               for caller in _callers(p.read_text(encoding="utf-8"), "BuiltFamily")}
    assert callers == {("families", "build_family")}
    tree = ast.parse((package / "families.py").read_text(encoding="utf-8"))
    public = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name.startswith("build_")]
    assert public == ["build_family"]
