"""In-memory spans and counters around the calls into etass's modules.

Nothing inside `src/` is edited: `install` replaces module attributes
with timing wrappers at the places where the callers look the names up
(`bockstein.kernel_basis`, not `gf2.kernel_basis`, because bockstein
imported the name).  Each wrapped call is a span with a name, a start,
an end and a parent.  Spans of the hot layers (gf2 and the Leibniz
rule, called tens of thousands of times) are folded into per-name
totals instead of being kept one by one.

A layer's self time is its span's duration minus the time its child
spans cover.  Spans named `perfbench.*` are the benchmark's own; their
self time is time that no layer span accounts for, and `check` bounds
its share of the traced wall time so that an unwrapped layer cannot
hide.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# Largest share of the traced wall time left in perfbench.* self time.
UNATTRIBUTED_MAX = 0.05


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float]] = []  # name, parent, start, end
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counters: Counter[str] = Counter()
        self.max_dim = 0
        self.violations: list[str] = []
        self.missing_hooks: list[str] = []
        self._stack: list[list] = []  # [name, start, child time, span index]
        self._active: Counter[str] = Counter()
        self._thread = threading.get_ident()

    def active(self, name: str) -> bool:
        return self._active[name] > 0

    def _enter(self, name: str, keep: bool) -> None:
        index = -1
        if keep:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, parent, 0.0, 0.0))
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, index])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, index = self._stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self._active[name] -= 1
        if not self._active[name]:
            self.total_s[name] += dur  # outermost occurrence only
        if self._stack:
            self._stack[-1][2] += dur
        if index >= 0:
            self.spans[index] = (name, self.spans[index][1], start, end)

    @contextmanager
    def span(self, name: str, keep: bool = True):
        self._enter(name, keep)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, name, fn, keep: bool = True, after=None):
        """fn timed as span `name` (a string, or a function of the call's
        arguments); `after(tracer, result, args, kwargs)` then records
        counts from the call."""

        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                self.violations.append(f"{fn.__name__} called from another thread")
                return fn(*args, **kwargs)
            self._enter(name(*args, **kwargs) if callable(name) else name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(self, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def check(self, root: str) -> list[str]:
        """Nesting and coverage self-checks; returns the failures."""
        problems = list(self.violations)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                pname, _, pstart, pend = self.spans[parent]
                if start < pstart or end > pend:
                    problems.append(f"span {name} is outside its parent {pname}")
        wall = self.total_s.get(root, 0.0)
        share = self.unattributed_s() / wall if wall else 1.0
        if share > UNATTRIBUTED_MAX:
            problems.append(
                f"layer self times leave {share:.1%} of the traced wall time "
                f"unattributed (bound {UNATTRIBUTED_MAX:.0%})"
            )
        return problems

    def unattributed_s(self) -> float:
        return sum(s for n, s in self.self_s.items() if n.startswith("perfbench."))

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "parent": p, "start": s, "end": e} for n, p, s, e in self.spans
            ],
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "max_dim": self.max_dim,
            "missing_hooks": self.missing_hooks,
        }


# ---------------------------------------------------------------------------
# hooks: what each wrapped call adds to the counters


def _families(key):
    def after(t, cols, args, kwargs):
        t.counters[key] += sum(len(col.fams) for col in cols.values())

    return after


def _rank(t, result, args, kwargs):
    m = args[0]
    t.max_dim = max(t.max_dim, m.cols, len(m.rows))


def _kernel(t, result, args, kwargs):
    _rank(t, result, args, kwargs)
    if t.active("adams.e3_step"):
        t.counters["adams.e3_bidegrees"] += 1


def _quotient(t, result, args, kwargs):
    subspace, ambient = args[0], args[1]
    if ambient:
        t.max_dim = max(t.max_dim, ambient[0].length, len(ambient), len(subspace))


def _replay(prefix, bockstein):
    def after(t, checked, args, kwargs):
        t.counters[f"{prefix}.replay_bidegrees"] += checked
        page = args[0]
        mode = args[3] if len(args) > 3 else kwargs.get("mode")
        if mode == "off":
            return
        with t.span("trace.coverage"):
            eligible, skipped = coverage(page, mode, getattr(bockstein, "SAMPLE_DIM_CAP", None))
        t.counters[f"{prefix}.replay_eligible"] += eligible
        t.counters[f"{prefix}.replay_skipped_cap"] += skipped

    return after


def coverage(page, mode: str, cap: int | None) -> tuple[int, int]:
    """(eligible, skipped by the size cap) over the bidegrees of one
    transition: eligible bidegrees carry classes; in 'sample' mode those
    whose three columns hold more than `cap` classes are never picked.
    The page's dimension cache is restored afterwards."""
    saved = dict(page._dims_cache)
    eligible = skipped = 0
    try:
        for mw in sorted(page.alive):
            dims = {d: page.dims_column(mw + d) for d in (-1, 0, 1)}
            for c, n in dims[0].items():
                if c > page.c_internal:
                    continue
                eligible += 1
                if (
                    mode == "sample"
                    and cap is not None
                    and n + dims[1].get(c, 0) + dims[-1].get(c, 0) > cap
                ):
                    skipped += 1
    finally:
        page._dims_cache.clear()
        page._dims_cache.update(saved)
    return eligible, skipped


def _compare_name(computed, *args, **kwargs):
    return f"{computed.kind}.compare"


def _page_dump(t, doc, args, kwargs):
    t.counters["cli.dump_classes"] += len(doc["classes"])


def _dump_pages(t, result, args, kwargs):
    pages, einf, directory = args[0], args[1], args[2]
    for page in list(pages) + [einf]:
        t.counters["cli.bytes_written"] += (Path(directory) / f"{page.label}.json").stat().st_size


def _render(t, doc, args, kwargs):
    t.counters["charts.bytes"] += len(doc.encode("utf-8"))


# (module, attribute, span name, keep each span, after-hook)
HOOKS = [
    ("bockstein", "enumerate_families", "bockstein.enumerate", True, _families("bockstein.families")),
    ("bockstein", "run_bockstein", "bockstein.run", True, None),
    ("bockstein", "verify_transition", "bockstein.replay", True, None),  # after-hook set in install
    ("bockstein", "kernel_basis", "gf2.kernel", False, _kernel),
    ("bockstein", "quotient_basis", "gf2.quotient", False, _quotient),
    ("bockstein", "leibniz_apply", "algebra.leibniz", False, None),
    ("bockstein", "compare_pages", _compare_name, True, None),
    ("bockstein", "closed_form_einfty", "bockstein.compare", True, None),
    ("bockstein", "rho_inverted_check", "bockstein.compare", True, None),
    ("ext", "enumerate_ext_families", "ext.enumerate", True, _families("ext.families")),
    ("ext", "unique_detection_scan", "ext.scans", True, None),
    ("ext", "vanishing_scan", "ext.scans", True, None),
    ("ext", "massey_scan", "ext.scans", True, None),
    ("ext", "product_consistency", "ext.scans", True, None),
    ("ext", "stem_finiteness_scan", "ext.scans", True, None),
    ("adams", "enumerate_ext_families", "ext.enumerate", True, _families("ext.families")),
    ("adams", "build_e2", "adams.e2_build", True, None),
    ("adams", "_e3_from_e2", "adams.e3_step", True, None),
    ("adams", "run_adams", "adams.run", True, None),
    ("adams", "verify_transition", "adams.replay", True, None),  # after-hook set in install
    ("adams", "kernel_basis", "gf2.kernel", False, _kernel),
    ("adams", "quotient_basis", "gf2.quotient", False, _quotient),
    ("adams", "rank", "gf2.rank", False, _rank),
    ("adams", "leibniz_apply", "algebra.leibniz", False, None),
    ("adams", "closed_form_e3", "adams.compare", True, None),
    ("adams", "closed_form_einfty", "adams.compare", True, None),
    ("adams", "check_e3_products", "adams.scans", True, None),
    ("adams", "mod4_vanishing_scan", "adams.scans", True, None),
    ("adams", "exhaustive_hit_scan", "adams.scans", True, None),
    ("adams", "dga_homology_oracle", "adams.oracle", True, None),
    ("adams", "oracle_spot_check", "adams.oracle", True, None),
    ("homotopy", "extract_groups", "homotopy.groups", True, None),
    ("homotopy", "groups_vs_order_formula", "homotopy.groups", True, None),
    ("homotopy", "ring_structure_report", "homotopy.groups", True, None),
    ("brackets", "table5_report", "brackets.table", True, None),
    ("brackets", "decompose", "brackets.table", True, None),
    ("brackets", "render", "brackets.table", True, None),
    ("brackets", "chow_obstruction_check", "brackets.table", True, None),
    ("cli", "page_dump", "cli.page_dump", True, _page_dump),
    ("cli", "_dump_pages", "cli.write", True, _dump_pages),
    ("cli", "main", "cli.main", True, None),
    ("charts", "render", "charts.render", True, _render),
]


def install(tracer: Tracer) -> None:
    """Wrap every hooked attribute that exists; record the ones that do
    not, so a renamed function shows up instead of silently reading 0."""
    import importlib

    mods = {}
    for mod_name, attr, name, keep, after in HOOKS:
        mod = mods.get(mod_name)
        if mod is None:
            mod = mods[mod_name] = importlib.import_module(f"etass.{mod_name}")
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.missing_hooks.append(f"{mod_name}.{attr}")
            continue
        if attr == "verify_transition":
            after = _replay(mod_name, mods["bockstein"])
        setattr(mod, attr, tracer.wrap(name, fn, keep, after))

    monomial = importlib.import_module("etass.algebra").Monomial
    post_init = monomial.__post_init__

    def counted(self):
        tracer.counters["algebra.monomials_built"] += 1
        post_init(self)

    monomial.__post_init__ = counted


def layer_metrics(t: Tracer, root: str) -> dict[str, float]:
    """The per-layer metrics of one traced solve."""
    total, self_s, calls, n = t.total_s, t.self_s, t.calls, t.counters
    out = {
        "bockstein.enumerate_s": total["bockstein.enumerate"],
        "bockstein.families": n["bockstein.families"],
        "bockstein.transition_s": self_s["bockstein.run"],
        "bockstein.compare_s": total["bockstein.compare"],
        "bockstein.replay_s": total["bockstein.replay"],
        "bockstein.replay_bidegrees": n["bockstein.replay_bidegrees"],
        "bockstein.replay_eligible": n["bockstein.replay_eligible"],
        "bockstein.replay_skipped_cap": n["bockstein.replay_skipped_cap"],
        "gf2.kernel_calls": calls["gf2.kernel"],
        "gf2.kernel_s": total["gf2.kernel"],
        "gf2.quotient_calls": calls["gf2.quotient"],
        "gf2.quotient_s": total["gf2.quotient"],
        "gf2.rank_calls": calls["gf2.rank"],
        "gf2.rank_s": total["gf2.rank"],
        "gf2.max_dim": t.max_dim,
        "algebra.leibniz_calls": calls["algebra.leibniz"],
        "algebra.leibniz_s": total["algebra.leibniz"],
        "algebra.monomials_built": n["algebra.monomials_built"],
        "ext.enumerate_s": total["ext.enumerate"],
        "ext.families": n["ext.families"],
        "ext.scans_s": total["ext.scans"],
        "adams.e2_build_s": total["adams.e2_build"],
        "adams.e3_step_s": total["adams.e3_step"],
        "adams.e3_bidegrees": n["adams.e3_bidegrees"],
        "adams.rule_pages_s": self_s["adams.run"],
        "adams.replay_s": total["adams.replay"],
        "adams.replay_bidegrees": n["adams.replay_bidegrees"],
        "adams.replay_eligible": n["adams.replay_eligible"],
        "adams.replay_skipped_cap": n["adams.replay_skipped_cap"],
        "adams.compare_s": total["adams.compare"],
        "adams.scans_s": total["adams.scans"],
        "adams.oracle_s": total["adams.oracle"],
        "homotopy.groups_s": total["homotopy.groups"],
        "brackets.table_s": total["brackets.table"],
        "cli.page_dump_s": total["cli.page_dump"],
        "cli.dump_classes": n["cli.dump_classes"],
        "cli.write_s": self_s["cli.write"],
        "cli.bytes_written": n["cli.bytes_written"],
        "cli.main_s": self_s["cli.main"],
        "charts.render_s": total["charts.render"],
        "charts.bytes": n["charts.bytes"],
        "trace.coverage_s": total["trace.coverage"],
        "trace.wall_s": total[root],
        "trace.unattributed_s": t.unattributed_s(),
        "trace.spans": len(t.spans),
    }
    return out
