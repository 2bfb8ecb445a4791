"""Window restriction: enlarging the window changes nothing inside it."""

from functools import lru_cache

import pytest

from etass.adams import run_adams
from etass.algebra import family_monomial
from etass.bockstein import run_bockstein
from etass.homotopy import extract_groups


@lru_cache(maxsize=None)
def stable_summary(mw: int):
    """Towers of both E-infinity pages and the extracted groups at
    window mw, as (stem, generator, length) and describe() strings; a
    tower cut off by the Chow truncation has no length."""
    _, bockstein = run_bockstein(mw, verify="off")
    _, adams = run_adams(mw, verify="off")
    towers = tuple(
        tuple(
            (stem, str(family_monomial(fam, lo)), None if truncated else hi - lo)
            for stem, fam, lo, hi, truncated in einf.window_towers()
        )
        for einf in (bockstein, adams)
    )
    groups = tuple((g.mw, g.describe()) for g in extract_groups(adams))
    return towers, groups


@pytest.mark.parametrize("mw", range(49))
def test_window_restriction(mw):
    """At window mw the towers of both sequences' E-infinity pages and
    the groups are those at window mw + 16 in stems <= mw."""
    towers, groups = stable_summary(mw)
    big_towers, big_groups = stable_summary(mw + 16)
    for small, big in zip(towers, big_towers):
        assert small == tuple(t for t in big if t[0] <= mw)
    assert groups == tuple(g for g in big_groups if g[0] <= mw)
    assert groups and all(towers)
