"""Corrupted page transitions for the replay's mutation tests.

A transition is the pair (new_alive, new_zero) that `_advance` computes
from a page.  `corrupt` makes it wrong at one class in one of three
ways, and `sampled_bidegrees` records which bidegrees a sample-mode
replay visits, so a test can place a corruption where the sampler is
known to look.
"""

from __future__ import annotations

import random
import types

import pytest

from etass import bockstein
from etass.bockstein import EMPTY, runs_contain, runs_subtract, runs_union

KINDS = ("drop-survivor", "add-dying", "drop-newly-hit")


def eligible_bidegrees(page) -> list[tuple[int, int]]:
    """Every bidegree of the page that carries a class, c <= c_max."""
    out = set()
    for mw in page.alive:
        for fam, c0, runs in page._column_alive(mw):
            for lo, hi in runs:
                out.update((mw, c) for c in range(c0 + lo, min(c0 + hi, page.c_max + 1)))
    return sorted(out)


def sampled_bidegrees(page, new_alive, new_zero, seed: int, monkeypatch) -> list[tuple[int, int]]:
    """The bidegrees a sample-mode replay of this transition visits.

    The sampler seeds one random.Random per column from
    bockstein.sample_seed(seed, page.r, mw); a recording subclass maps
    that seed back to its column and logs what `sample` returns, without
    changing the picks.
    """
    column_of = {bockstein.sample_seed(seed, page.r, mw): mw for mw in page.alive}
    picks: list[tuple[int, int]] = []

    class Recording(random.Random):
        def __init__(self, x=None):
            super().__init__(x)
            self.mw = column_of.get(x)

        def sample(self, population, k, **kwargs):
            out = super().sample(population, k, **kwargs)
            picks.extend((self.mw, c) for c in out)
            return out

    with monkeypatch.context() as m:
        m.setattr(bockstein, "random", types.SimpleNamespace(Random=Recording))
        bockstein.verify_transition(page, new_alive, new_zero, "sample", seed)
    return sorted(picks)


def _classes_at(page, mw: int, c: int):
    return [
        (fam, c - c0)
        for fam, c0, runs in page._column_alive(mw)
        if runs_contain(runs, c - c0)
    ]


def _edit(table, mw: int, fam, runs):
    out = dict(table)
    col = dict(out.get(mw, {}))
    if runs:
        col[fam] = runs
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
    """
    for mw, c in bidegrees:
        for fam, b in _classes_at(page, mw, c):
            alive_runs = new_alive.get(mw, {}).get(fam, EMPTY)
            zero_runs = new_zero.get(mw, {}).get(fam, EMPTY)
            old_zero = page.zero.get(mw, {}).get(fam, EMPTY)
            cls = ((b, b + 1),)
            if kind == "drop-survivor" and runs_contain(alive_runs, b):
                return (mw, c), _edit(new_alive, mw, fam, runs_subtract(alive_runs, cls)), new_zero
            if kind == "add-dying" and not runs_contain(alive_runs, b):
                return (mw, c), _edit(new_alive, mw, fam, runs_union(alive_runs, cls)), new_zero
            if (
                kind == "drop-newly-hit"
                and runs_contain(zero_runs, b)
                and not runs_contain(old_zero, b)
            ):
                return (mw, c), new_alive, _edit(new_zero, mw, fam, runs_subtract(zero_runs, cls))
    return None


def check_mutations_caught(page, monkeypatch, seeds=range(64)) -> None:
    """The honest transition replays cleanly; each corruption raises
    EngineError in 'all' mode, and in 'sample' mode at a seed whose
    recorded picks include the corrupted bidegree."""
    new_alive, new_zero = bockstein._advance(page)
    bockstein.verify_transition(page, new_alive, new_zero, "all", 0)
    bockstein.verify_transition(page, new_alive, new_zero, "sample", 0)
    everywhere = eligible_bidegrees(page)
    for kind in KINDS:
        found = corrupt(page, new_alive, new_zero, kind, everywhere)
        assert found is not None, f"page {page.label} has no class for {kind}"
        _, bad_alive, bad_zero = found
        with pytest.raises(bockstein.EngineError):
            bockstein.verify_transition(page, bad_alive, bad_zero, "all", 0)

        for seed in seeds:
            picks = sampled_bidegrees(page, new_alive, new_zero, seed, monkeypatch)
            found = corrupt(page, new_alive, new_zero, kind, picks)
            if found is not None:
                break
        else:
            raise AssertionError(f"no seed samples a bidegree for {kind} on {page.label}")
        where, bad_alive, bad_zero = found
        assert where in picks
        with pytest.raises(bockstein.EngineError):
            bockstein.verify_transition(page, bad_alive, bad_zero, "sample", seed)
