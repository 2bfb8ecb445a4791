"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

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


def test_benchmark_hooks_resolve():
    """Every (module, attribute) the benchmark tracer wraps exists on
    etass, apart from the allow-list; a renamed function would otherwise
    read 0 in the per-layer metrics."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOOKS
    missing = {
        f"{mod}.{attr}"
        for mod, attr, *_ in tracer.HOOKS
        if not hasattr(importlib.import_module(f"etass.{mod}"), attr)
    }
    assert missing <= HOOKS_ALLOWED_MISSING, sorted(missing - HOOKS_ALLOWED_MISSING)
