"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

from etass.bockstein import SAMPLE_DIM_CAP, run_bockstein

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "etass"
# benchmark hooks that may name nothing: the page-dump dict builder gave
# way to the streamed writer, and the engine no longer calls the
# Monomial Leibniz rule from bockstein
HOOKS_ALLOWED_MISSING = {"cli.page_dump", "bockstein.leibniz_apply"}


def test_no_assert_in_src():
    """Correctness checks raise real exceptions: an assert statement
    would vanish under python -O."""
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/etass: {found}"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_hooks_resolve():
    """Every (module, attribute) the benchmark tracer wraps exists on
    etass, apart from the allow-list; a renamed function would otherwise
    read 0 in the per-layer metrics."""
    tracer = load_tracer()
    assert tracer.HOOKS
    missing = {
        f"{mod}.{attr}"
        for mod, attr, *_ in tracer.HOOKS
        if not hasattr(importlib.import_module(f"etass.{mod}"), attr)
    }
    assert missing <= HOOKS_ALLOWED_MISSING, sorted(missing - HOOKS_ALLOWED_MISSING)


def test_tracer_coverage_reads_pages():
    """The tracer's replay coverage, which only traced benchmark runs
    reach, still reads the page: (eligible, skipped by the cap) per
    mw-32 Bockstein transition as before the sampler kept its dimension
    tables to itself, with the page's dims_column cache restored."""
    tracer = load_tracer()
    pages, _ = run_bockstein(32, verify="off")
    got = {cap: [] for cap in (SAMPLE_DIM_CAP, 30)}
    for page in pages:
        page.dims_column(5)
        cached = dict(page._dims_cache)
        for cap, out in got.items():
            out.append(tracer.coverage(page, "sample", cap))
            assert page._dims_cache == cached
    assert got == {
        SAMPLE_DIM_CAP: [(2164, 0), (1171, 0), (646, 0), (486, 0)],
        30: [(2164, 204), (1171, 0), (646, 0), (486, 0)],
    }


def _imports_etass(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "etass"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "etass" for alias in node.names)
    return False


def test_no_function_level_etass_imports():
    """The package's modules import each other at module level only, so
    that the import graph is what the module headers say; an import
    inside a function body hides a dependency or a cycle.  Imports under
    `if TYPE_CHECKING:` are exempt."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        exempt = {
            id(node)
            for block in ast.walk(tree)
            if isinstance(block, ast.If) and ast.unparse(block.test).endswith("TYPE_CHECKING")
            for node in ast.walk(block)
        }
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if _imports_etass(node) and id(node) not in exempt
                )
    assert not found, f"function-level etass imports in src/etass: {sorted(found)}"


# parameter annotations of a page, a column table or a group list that
# may be left unset; a check takes what it reads from its caller
OPTIONAL_INPUTS = {"Page | None", "dict[int, Column] | None", "list[HomotopyGroup] | None"}


def test_no_optional_page_parameters():
    """No function in src/etass takes a page, a column table or a group
    list that it builds itself when the caller leaves it unset."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = func.args
                found.extend(
                    f"{path.name}:{func.name}({arg.arg})"
                    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                    if arg.annotation is not None and ast.unparse(arg.annotation) in OPTIONAL_INPUTS
                )
    assert not found, f"optional page inputs in src/etass: {found}"
