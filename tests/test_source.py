"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from etass.bockstein import run_bockstein

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
    tables to itself, with the page's dims_column cache restored.  The
    tracer takes the cap as an argument: 1500 is the size cap of the
    retired sampler."""
    tracer = load_tracer()
    pages, _ = run_bockstein(32, verify="off")
    got = {cap: [] for cap in (1500, 30)}
    for page in pages:
        page.dims_column(5)
        cached = dict(page._dims_cache)
        for cap, out in got.items():
            out.append(tracer.coverage(page, "sample", cap))
            assert page._dims_cache == cached
    assert got == {
        1500: [(2164, 0), (1171, 0), (646, 0), (486, 0)],
        30: [(2164, 204), (1171, 0), (646, 0), (486, 0)],
    }


def test_no_unused_imports():
    """Every name a module of src/etass imports is read in that module,
    apart from names on a line marked `# noqa: F401`.  Such a name must
    be one the module never reads and that the benchmark tracer wraps on
    that module (perfbench/tracer.py HOOKS), so the marker keeps exactly
    the names the tracer needs.  No linter ships with the package, so
    this is the check."""
    hooked = {(mod, attr) for mod, attr, *_ in load_tracer().HOOKS}
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                marked = {lines[node.lineno - 1], lines[alias.lineno - 1]}
                if not any("# noqa: F401" in line for line in marked):
                    if name not in read:
                        found.append(f"{path.name}:{alias.lineno} {name}")
                elif name in read or (path.stem, name) not in hooked:
                    found.append(f"{path.name}:{alias.lineno} {name} (marked, but read or no hook)")
    assert not found, f"unused imports in src/etass: {found}"


def _imports_etass(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "etass"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "etass" for alias in node.names)
    return False


def test_no_function_level_etass_imports():
    """The package's modules import each other at module level only, so
    that the import graph is what the module headers say; an import
    inside a function body hides a dependency or a cycle, and so does
    one under `if TYPE_CHECKING:`, which no module needs."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for block in ast.walk(tree):
            if isinstance(block, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                isinstance(block, ast.If) and ast.unparse(block.test).endswith("TYPE_CHECKING")
            ):
                found.update(
                    f"{path.name}:{node.lineno}" for node in ast.walk(block) if _imports_etass(node)
                )
    assert not found, f"etass imports in functions or TYPE_CHECKING blocks: {sorted(found)}"


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


def _definitions(tree: ast.Module):
    """The top-level functions and classes of a module, and the methods
    of its classes that are not dunders."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*funcs, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (
                method
                for method in node.body
                if isinstance(method, funcs)
                and not (method.name.startswith("__") and method.name.endswith("__"))
            )


def _names(node: ast.AST) -> Counter:
    """How often each name occurs under node: as a Name, an Attribute's
    attribute, or a string constant (the tracer's hook strings)."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def test_no_dead_definitions():
    """Every top-level function and class, and every method that is not
    a dunder, of src/etass is named somewhere in src/etass, scripts/ or
    perfbench/ outside its own definition.  Code only the tests call
    belongs with the tests."""
    paths = [*SRC.glob("*.py"), *(ROOT / "scripts").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    found = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        if path.parent == SRC
        for node in _definitions(tree)
        if named[node.name] <= _names(node)[node.name]
    ]
    assert not found, f"definitions in src/etass that nothing names: {found}"
