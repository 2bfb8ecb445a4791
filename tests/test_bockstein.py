import random
from dataclasses import replace

import pytest

from etass.adams import build_e2, d2_rule
from etass.algebra import (
    Bidegree,
    Derivation,
    MissingRule,
    Monomial,
    family_monomial,
    leibniz_apply,
    torsion_bound,
)
from etass.bockstein import (
    EMPTY,
    EngineError,
    Homology,
    Page,
    RepresentativeNotMonomial,
    bockstein_page_indices,
    bockstein_rule,
    build_e1,
    closed_form_einfty,
    compare_pages,
    dense_bidegrees,
    rho_inverted_check,
    run_bockstein,
    runs_contain,
    runs_union,
    sample_seed,
    verify_transition,
    _advance,
)
from etass.gf2 import SubspaceNotContained
from brute_force import default_generators, enumerate_monomials, rho_matrix_at
from dump_reference import image_classes
from gf2_reference import coeff, nrows
from homology_reference import reference_at
from replay_mutations import check_mutations_caught, sampled_bidegrees


def mono(rho=0, p=0, **vs):
    return Monomial.make(rho, p, {int(k[1:]): a for k, a in vs.items()})


def test_e1_basis_examples():
    e1 = build_e1(16)
    assert e1.basis_at(3, 1) == [mono(v2=1)]
    assert e1.basis_at(4, 4) == [mono(p=1)]


def test_e1_matches_enumeration():
    e1 = build_e1(8)
    gens = default_generators(8)
    for deg in [(8, 8), (7, 3), (6, 10), (0, 5)]:
        assert e1.basis_at(*deg) == enumerate_monomials(Bidegree(*deg), gens)


def test_rule_on_block_generators():
    for n, p_exp, image in [
        (2, 1, mono(rho=3, v2=1)),
        (3, 2, mono(rho=7, v3=1)),
        (4, 4, mono(rho=15, v4=1)),
    ]:
        rule = bockstein_rule(n)
        assert rule.r == 2 ** n - 1
        assert leibniz_apply(rule, mono(p=p_exp)) == [image]


def test_page_indices():
    assert bockstein_page_indices(64) == [3, 7, 15, 31, 63]
    assert bockstein_page_indices(16) == [3, 7, 15]


@pytest.fixture(scope="module")
def run32():
    return run_bockstein(32, verify="all")


def test_einfty_matches_closed_form(run32):
    _, einf = run32
    rep = compare_pages(einf, closed_form_einfty(32, einf.columns), "einfty")
    assert rep.ok, rep.to_json()


def test_v2_tower(run32):
    _, einf = run32
    assert [einf.dim_at(3, c) for c in range(5)] == [0, 1, 1, 1, 0]
    assert einf.dim_at(4, 4) == 0  # the periodicity generator dies


def test_rho_inverted(run32):
    _, einf = run32
    assert rho_inverted_check(einf).ok
    towers = {t.mw: t for t in einf.towers() if t.truncated}
    assert list(towers) == [0]


def test_d_squared_zero(run32):
    pages, _ = run32
    for page in pages:
        for mw in range(1, 33):
            for c in range(0, page.c_max + 1, 7):
                for m in page.basis_at(mw, c):
                    for t in image_classes(page, m):
                        assert image_classes(page, t) == []


def test_intermediate_pages_are_identity(run32):
    pages, _ = run32
    page = pages[1]  # basis of the 7-page
    silent = Page(
        kind=page.kind,
        label="identity-step",
        r=page.r - 1,
        max_mw=page.max_mw,
        columns=page.columns,
        alive=page.alive,
        zero=page.zero,
    )
    new_alive, new_zero = _advance(silent)
    assert new_alive == page.alive
    assert new_zero == page.zero


def shortcut_derivation(**kw):
    """P -> rho^5 v2 and v3 -> rho v2^2, v2 a cycle."""
    return Derivation(
        r=1,
        shift=Bidegree(-1, 2),
        v_rules={3: (mono(rho=1, v2=2),)},
        v_cycles=frozenset({2}),
        p_rule=(1, mono(rho=5, v2=1)),
        **kw,
    )


def test_tower_shortcut_rejects_multi_term_image():
    """The tower transition needs single-term family images: P v3 maps
    to rho^5 v2 v3 + rho P v2^2.  P stays attached to the v2 families,
    so no two families share an image first."""
    d = shortcut_derivation(p_attach_min=3)
    with pytest.raises(EngineError, match="not a single monomial"):
        _advance(replace(build_e1(10), differential=d))


def test_tower_shortcut_rejects_shared_image():
    """Two families with one image family would make a 2x1 block: P v2
    and v3 both map to the v2^2 tower."""
    with pytest.raises(EngineError, match="share image"):
        _advance(replace(build_e1(8), differential=shortcut_derivation()))


def test_tower_shortcut_rejects_bockstein_image_below_rho_r():
    """A Bockstein page-r image carries rho^r at least: the page-3 rule
    P -> rho^3 v2 falls short on page 7."""
    d = replace(bockstein_rule(2), r=7)
    with pytest.raises(EngineError, match="below r"):
        _advance(replace(build_e1(8), r=7, differential=d))


def test_closed_form_tower_degrees():
    cf = closed_form_einfty(64)
    towers = {
        (t.mw, t.generator.bidegree.c): (str(t.generator), t.length)
        for t in cf.towers()
        if len(t.generator.v_exps) == 1 and t.generator.v_exps[0][1] == 1
    }
    # P^(2k) v2 at (3,1) + k(8,8), torsion 3
    for k in range(4):
        assert towers[(3 + 8 * k, 1 + 8 * k)] == (str(mono(p=2 * k, v2=1)), 3)
    # P^(2^(n-1)k) v_n at (2^n - 1, 1) + k(2^(n+1), 2^(n+1)), torsion 2^n - 1
    for n, k in [(3, 1), (4, 0), (5, 0), (6, 0)]:
        mw = 2 ** n - 1 + 2 ** (n + 1) * k
        if mw > 64:
            continue
        got = towers[(mw, 1 + 2 ** (n + 1) * k)]
        assert got == (str(mono(p=2 ** (n - 1) * k, **{f"v{n}": 1})), 2 ** n - 1)


def test_run_is_deterministic():
    _, a = run_bockstein(12, verify="all")
    _, b = run_bockstein(12, verify="all")
    assert a.alive == b.alive
    assert [str(t.generator) for t in a.towers()] == [str(t.generator) for t in b.towers()]


def test_verify_modes_agree():
    _, dense = run_bockstein(16, verify="all")
    _, off = run_bockstein(16, verify="off")
    _, sampled = run_bockstein(16, verify="sample")
    assert dense.alive == off.alive == sampled.alive


def test_rho_matrix_tower_shape(run32):
    _, einf = run32
    m = rho_matrix_at(einf, 3, 1)
    assert nrows(m) == 1 and m.cols == 1 and coeff(m.rows[0], 0) == 1
    m = rho_matrix_at(einf, 3, 3)  # top of the tower maps to zero
    assert nrows(m) == 0 and m.cols == 1


def test_replay_catches_corrupted_transitions(monkeypatch):
    pages, _ = run_bockstein(16, verify="off")
    check_mutations_caught(pages[0], monkeypatch)


def bockstein_e3(mw: int) -> Page:
    pages, _ = run_bockstein(mw, verify="off")
    assert pages[0].label == "bockstein-E3"
    return pages[0]


def test_homology_holds_three_columns_in_a_sweep(monkeypatch):
    """An ascending replay sweep keeps the tables of columns mw - 1, mw
    and mw + 1 only, checked whenever a column's table is created."""
    page = bockstein_e3(32)
    new_alive, new_zero = _advance(page)
    held = []
    real_column = Homology.column

    def column(self, mw):
        table = real_column(self, mw)
        held.append(len(self._columns))
        return table

    monkeypatch.setattr(Homology, "column", column)
    checked = verify_transition(page, new_alive, new_zero, "all")
    assert checked > 0
    assert max(held) == 3


def test_homology_builds_each_echelon_once(monkeypatch):
    """A dense ascending sweep eliminates each bidegree's matrix once:
    its echelon serves as the outgoing rank at its source and as the
    boundaries at its target."""
    page = bockstein_e3(32)
    new_alive, new_zero = _advance(page)
    built = []
    real_echelon = Homology.echelon

    def echelon(self, mw, c):
        if c not in self.column(mw).echelons:
            built.append((mw, c))
        return real_echelon(self, mw, c)

    monkeypatch.setattr(Homology, "echelon", echelon)
    checked = verify_transition(page, new_alive, new_zero, "all")
    assert checked > 0 and built
    assert len(built) == len(set(built))
    assert len(built) < 2 * checked


@pytest.mark.parametrize("label", ["bockstein", "adams-E2"])
def test_homology_matches_reference(label):
    """Homology.at gives the basis, reps and boundary span of the
    kernel_basis/quotient_basis reference at every dense bidegree of
    every Bockstein page and of adams-E2 at mw 64.  In the Adams margin
    column it agrees with sum classes allowed and, where a class needs a
    sum, raises the same error as the reference when they are not."""
    pages = run_bockstein(64, verify="off")[0] if label == "bockstein" else [build_e2(64)]

    def outcome(at, homology, mw, c, sums_allowed):
        try:
            mid, reps, boundaries = at(homology, mw, c, sums_allowed)
        except RepresentativeNotMonomial as err:
            return str(err)
        # a fully reduced echelon is determined by its span
        return mid, reps, boundaries.pivots

    reps_seen = rank_seen = raised = 0
    for page in pages:
        homology = Homology(page)
        for mw in sorted(page.alive):
            margin = page.kind == "adams" and mw > page.max_mw
            for c in dense_bidegrees(page, mw):
                for sums_allowed in (True, False) if margin else (False,):
                    got = outcome(Homology.at, homology, mw, c, sums_allowed)
                    assert got == outcome(reference_at, homology, mw, c, sums_allowed), (
                        page.label,
                        mw,
                        c,
                    )
                    if isinstance(got, str):
                        raised += 1
                    else:
                        reps_seen += len(got[1])
                        rank_seen += len(got[2])
    assert reps_seen and rank_seen
    assert raised if label == "adams-E2" else not raised


@pytest.mark.parametrize("mode", ["all", "sample"])
def test_replay_rejects_boundary_that_is_not_a_cycle(monkeypatch, mode):
    """One incoming matrix column changed by a class that is not a cycle
    makes a boundary that is not a cycle: the replay's homology raises
    at the target bidegree, in dense and in sampled replay."""
    page = bockstein_e3(32)
    new_alive, new_zero = _advance(page)
    shift = page.diff_shift()
    probe = Homology(page)

    def target_in(bidegrees):
        for mw, c in bidegrees:
            out = probe.map_columns(mw, c)
            if any(out) and probe.basis(mw - shift.mw, c - shift.c):
                return mw, c, next(i for i, bits in enumerate(out) if bits)
        return None

    if mode == "all":
        seed = 0
        found = target_in((mw, c) for mw in sorted(page.alive) for c in dense_bidegrees(page, mw))
    else:
        for seed in range(16):
            found = target_in(sampled_bidegrees(page, new_alive, new_zero, seed, monkeypatch))
            if found:
                break
    assert found
    mw, c, i = found
    source = (mw - shift.mw, c - shift.c)
    real_map_columns = Homology.map_columns

    def map_columns(self, m, cc):
        out = real_map_columns(self, m, cc)
        return [out[0] ^ (1 << i), *out[1:]] if (m, cc) == source else out

    verify_transition(page, new_alive, new_zero, mode, seed)
    monkeypatch.setattr(Homology, "map_columns", map_columns)
    with pytest.raises(SubspaceNotContained, match=f"mw={mw}, c={c} is not a cycle"):
        verify_transition(page, new_alive, new_zero, mode, seed)


@pytest.mark.parametrize("label", ["bockstein-E3", "adams-E2"])
def test_homology_is_independent_of_call_order(label):
    """Homology.at gives the same (basis, reps, boundary rank) at every
    bidegree whether the sweep ascends, descends or is shuffled."""
    page = bockstein_e3(24) if label == "bockstein-E3" else build_e2(24)
    assert page.label == label
    bidegrees = [(mw, c) for mw in sorted(page.alive) for c in dense_bidegrees(page, mw)]

    def results(order):
        homology = Homology(page)
        out = {}
        for mw, c in order:
            basis, reps, boundaries = homology.at(mw, c, sums_allowed=mw > page.max_mw)
            out[mw, c] = (basis, reps, boundaries.rank)
            assert len(homology._columns) <= 3
        return out

    ascending = results(bidegrees)
    assert any(reps for _, reps, _ in ascending.values())
    assert any(rank for _, _, rank in ascending.values())
    assert results(bidegrees[::-1]) == ascending
    shuffled = list(bidegrees)
    random.Random(5).shuffle(shuffled)
    assert results(shuffled) == ascending


def test_replay_rejects_class_both_alive_and_newly_hit():
    """The survivor and newly-hit checks are independent: a class hit on
    this page that is also claimed to survive must raise."""
    page = bockstein_e3(16)
    new_alive, new_zero = _advance(page)
    mw, fam, b = next(
        (mw, fam, lo)
        for mw, per in new_zero.items()
        for fam, runs in per.items()
        for lo, _ in runs
        if not runs_contain(page.zero.get(mw, {}).get(fam, EMPTY), lo)
    )
    column = dict(new_alive[mw])
    column[fam] = runs_union(column.get(fam, EMPTY), ((b, b + 1),))
    with pytest.raises(EngineError):
        verify_transition(page, {**new_alive, mw: column}, new_zero, "all")


def test_sampler_picks_are_pinned(monkeypatch):
    """The sampler's seed is plain integer arithmetic, so its picks are
    the same on every interpreter; these are the picks of two columns
    of bockstein-E3 at mw 32, seed 7."""
    assert sample_seed(7, 3, 20) == 7_000_045_000_092
    page = bockstein_e3(32)
    new_alive, new_zero = _advance(page)
    picks = sampled_bidegrees(page, new_alive, new_zero, 7, monkeypatch)
    assert [c for mw, c in picks if mw == 20] == [4, 8, 20, 40, 46, 72]
    assert [c for mw, c in picks if mw == 23] == [5, 9, 13, 17, 21, 40]


def model_zero(fam, b):
    """The Ext model's torsion: fam * rho^b is zero from the family's
    tower length on."""
    t = torsion_bound(fam)
    return t is not None and b >= t


def test_family_image_is_rho_linear():
    """The replay shifts each family's image by the rho exponent; that
    must agree with the derivation applied to every class of the tower."""
    pages, _ = run_bockstein(32, verify="off")
    assert [p.r for p in pages] == bockstein_page_indices(32)
    for page in pages:
        assert page.differential == bockstein_rule(page.r.bit_length())
        moved = 0
        for mw in page.alive:
            for fam, _, runs in page._column_alive(mw):
                terms, threshold = page.family_image(fam)
                assert threshold == 0
                moved += bool(terms)
                for lo, hi in runs:
                    for b in range(lo, hi):
                        want = [family_monomial(tfam, b + d) for tfam, d in terms]
                        assert leibniz_apply(page.differential, family_monomial(fam, b)) == want
        assert moved, f"{page.label} moves no family"

    # the Adams page 2: d2 renormalizes, so the shifted family image
    # equals it once the terms torsion kills (model zero) are dropped
    d2 = d2_rule(32)
    e2 = build_e2(32)
    assert e2.differential == d2
    moved = killed = 0
    for mw in e2.alive:
        for fam, _, runs in e2._column_alive(mw):
            terms, threshold = e2.family_image(fam)
            assert threshold == 0
            for lo, hi in runs:
                for b in range(lo, hi):
                    shifted = [(tfam, b + d) for tfam, d in terms]
                    want = leibniz_apply(d2, family_monomial(fam, b))
                    kept = [family_monomial(*t) for t in shifted if not model_zero(*t)]
                    assert kept == want
                    moved += bool(want)
                    killed += len(shifted) - len(want)
    assert moved and killed, f"adams-E2: {moved} classes moved, {killed} terms killed"


def test_derivation_image_matches_leibniz_at_64():
    """The packed-exponent image of every family of every Bockstein page
    and of adams-E2 at mw 64 is leibniz_apply on the family's Monomial,
    exceptions included."""
    pages, _ = run_bockstein(64, verify="off")
    e2 = build_e2(64)
    raised = 0
    for page in [*pages, e2]:
        for col in page.columns.values():
            for fam in col.fams:
                try:
                    want = leibniz_apply(page.differential, family_monomial(fam))
                except MissingRule:
                    with pytest.raises(MissingRule):
                        page.family_image(fam)
                    raised += 1
                    continue
                got, threshold = page.family_image(fam)
                assert threshold == 0
                assert [family_monomial(tfam, rho) for tfam, rho in got] == want, page.label
    assert raised, "no family reached the block-generator check"
