"""Corrupted page transitions for the replay's mutation tests.

A transition is the pair (new_alive, new_zero) that `_advance` computes
from a page.  `corrupt` makes it wrong at one class in one of three
ways; every replay mode but "off" checks every eligible bidegree, so a
corruption anywhere must raise.
"""

from __future__ import annotations

import pytest

from etass import bockstein

KINDS = ("drop-survivor", "add-dying", "drop-newly-hit")


def eligible_bidegrees(page) -> list[tuple[int, int]]:
    """Every bidegree of the page that carries a class, c <= c_max."""
    out = set()
    for mw in page.alive:
        for fam, c0, (lo, hi) in page._column_alive(mw):
            out.update((mw, c) for c in range(c0 + lo, min(c0 + hi, page.c_max + 1)))
    return sorted(out)


def _classes_at(page, mw: int, c: int):
    return [(fam, c - c0) for fam, c0, (lo, hi) in page._column_alive(mw) if lo <= c - c0 < hi]


def _holds(run, b: int) -> bool:
    return run is not None and run[0] <= b < run[1]


def _cut(run, b: int) -> tuple[int, int]:
    """run without class b: less its bottom class alone when that is b,
    else less b and every class above it."""
    lo, hi = run
    return (b + 1, hi) if b == lo else (lo, b)


def _stretch(run, b: int) -> tuple[int, int]:
    """run with class b, and every class between b and run."""
    lo, hi = run or (b, b + 1)
    return min(lo, b), max(hi, b + 1)


def _edit(table, mw: int, fam, run):
    out = dict(table)
    col = dict(out.get(mw, {}))
    if run[0] < run[1]:
        col[fam] = run
    else:
        col.pop(fam, None)
    out[mw] = col
    return out


def corrupt(page, new_alive, new_zero, kind: str, bidegrees):
    """(bidegree, new_alive', new_zero') wrong at one class of the first
    bidegree in `bidegrees` that has a class of the right sort, or None.

    drop-survivor: a surviving class is left out of new_alive.
    add-dying: a class that dies (killed or hit) is put into new_alive.
    drop-newly-hit: a class hit on this page is left out of new_zero.

    A table holds one interval per family, so each edit truncates
    (_cut) or extends (_stretch) the family's interval at the class,
    where leaving out or adding that class alone would split it.
    """
    for mw, c in bidegrees:
        for fam, b in _classes_at(page, mw, c):
            alive = new_alive.get(mw, {}).get(fam)
            zero = new_zero.get(mw, {}).get(fam)
            old_zero = page.zero.get(mw, {}).get(fam)
            if kind == "drop-survivor" and _holds(alive, b):
                return (mw, c), _edit(new_alive, mw, fam, _cut(alive, b)), new_zero
            if kind == "add-dying" and not _holds(alive, b):
                return (mw, c), _edit(new_alive, mw, fam, _stretch(alive, b)), new_zero
            if kind == "drop-newly-hit" and _holds(zero, b) and not _holds(old_zero, b):
                return (mw, c), new_alive, _edit(new_zero, mw, fam, _cut(zero, b))
    return None


def check_mutations_caught(page) -> None:
    """The honest transition replays cleanly in 'all' and 'sample' mode;
    each corruption, at the first eligible bidegree with a class of its
    sort, raises EngineError in both, and in the class-at-a-time replay
    alone (which 'all' runs only after the per-family one)."""
    new_alive, new_zero = bockstein._advance(page)
    for mode in ("all", "sample"):
        bockstein.verify_transition(page, new_alive, new_zero, mode, 0)
    everywhere = eligible_bidegrees(page)
    for kind in KINDS:
        found = corrupt(page, new_alive, new_zero, kind, everywhere)
        assert found is not None, f"page {page.label} has no class for {kind}"
        _, bad_alive, bad_zero = found
        for mode in ("all", "sample"):
            with pytest.raises(bockstein.EngineError):
                bockstein.verify_transition(page, bad_alive, bad_zero, mode, 0)
        with pytest.raises(bockstein.EngineError):
            bockstein._Replay(page, bad_alive, bad_zero).sweep()
