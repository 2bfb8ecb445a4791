import hashlib
import math
import random
from dataclasses import replace

import pytest

from etass import adams, bockstein, ext
from etass.adams import adams_r_max, adams_rule, build_e2, d2_derivation, d2_rule, run_adams
from etass.algebra import (
    V_TOP,
    Bidegree,
    Derivation,
    MissingRule,
    Monomial,
    family_c0,
    family_monomial,
    family_of,
    family_v_exps,
    leibniz_apply,
    torsion_bound,
)
from etass.bockstein import (
    Differential,
    EngineError,
    Homology,
    Page,
    RepresentativeNotMonomial,
    bockstein_page_indices,
    bockstein_rule,
    build_e1,
    closed_form_einfty,
    compare_pages,
    enumerate_families,
    families,
    replay_mode,
    rho_inverted_check,
    run_bockstein,
    tower_page,
    verify_transition,
    _advance,
    _Replay,
    _tower_replay,
)
from etass.gf2 import SubspaceNotContained
from brute_force import default_generators, enumerate_monomials, rho_matrix_at
from dump_reference import image_classes
from gf2_reference import coeff, nrows
from homology_reference import (
    dense_bidegrees,
    reference_at,
    reference_map_columns,
    reference_positions,
)
from replay_mutations import KINDS, check_mutations_caught, corrupt
from rule_reference import as_differential, bockstein_derivation, dr_rule, dr_table


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
        assert leibniz_apply(bockstein_derivation(n), mono(p=p_exp)) == [image]
        want = [(family_of(image), image.rho_exp)]
        assert bockstein_rule(n).family_image(family_of(mono(p=p_exp))) == (want, 0)


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
    towers = {mw: fam for mw, fam, _, _, truncated in einf.window_towers() if truncated}
    assert list(towers) == [0]


def corrupted(page, mw, runs):
    """A copy of page whose column mw has the {Monomial: (lo, hi)} of
    `runs` (None drops the family); the page itself is left as it is."""
    per = dict(page.alive[mw])
    for m, r in runs.items():
        if r is None:
            del per[family_of(m)]
        else:
            per[family_of(m)] = r
    return replace(page, alive={**page.alive, mw: per})


def compare_items(page, predicted=None):
    """The (instance, passed, detail) items of comparing page with
    `predicted`, by default the closed-form stable Bockstein page."""
    if predicted is None:
        predicted = closed_form_einfty(page.max_mw, page.columns)
    rep = compare_pages(page, predicted, "einfty")
    return [(i.instance, i.passed, i.detail) for i in rep.items]


def test_compare_shortened_run(run32):
    """One class cut off the v2 tower: both items fail."""
    _, einf = run32
    assert compare_items(corrupted(einf, 3, {mono(v2=1): (0, 2)})) == [
        ("dimensions", False, "mismatched columns: [(3, {3: (0, 1)})]"),
        ("towers", False, "mw=3: computed v2 of length 2, predicted v2 of length 3"),
    ]


def test_compare_split_run(run32):
    """The v2^6 tower split into two touching towers, its bottom class
    on v2^6 and the rest on P v3^2, the other family of (18, 6): the
    same classes, so the dimensions agree, but the towers do not."""
    _, einf = run32
    split = {mono(v2=6): (0, 1), mono(p=1, v3=2): (1, 3)}
    assert compare_items(corrupted(einf, 18, split)) == [
        ("dimensions", True, ""),
        ("towers", False, "mw=18: computed rho P v3^2 of length 2, predicted v2^6 of length 3"),
    ]


def test_compare_moved_tower(run32):
    """The v2^6 tower moved onto P v3^2, the other family of (18, 6):
    the dimensions agree, but the towers compare with their generators,
    so "towers" fails and names both."""
    _, einf = run32
    page = corrupted(einf, 18, {mono(v2=6): None, mono(p=1, v3=2): (0, 3)})
    assert page.alive[18] != einf.alive[18]
    assert compare_items(page) == [
        ("dimensions", True, ""),
        ("towers", False, "mw=18: computed P v3^2 of length 3, predicted v2^6 of length 3"),
    ]


def test_compare_dropped_tower(run32):
    """A tower missing from the computed page, the stable Bockstein page
    or an intermediate page of either sequence compared with its tower
    rule: the detail names it on the predicted side only."""
    pages, einf = run32
    e4 = run_adams(32, verify="off")[0][2]
    e7 = pages[1]
    assert (e7.label, e4.label) == ("bockstein-E7", "adams-E4")
    cases = [
        (einf, None, 18, mono(v2=6), "mw=18: computed none, predicted v2^6 of length 3"),
        (e7, rule_page(e7), 8, mono(p=2), "mw=8: computed none, predicted P^2 of length 65"),
        (e4, rule_page(e4), 31, mono(v5=1), "mw=31: computed none, predicted rho^22 v5 of length 9"),
    ]
    for page, predicted, mw, family, detail in cases:
        assert compare_items(corrupted(page, mw, {family: None}), predicted)[1] == (
            "towers",
            False,
            detail,
        )


def test_compare_fills_no_page_cache(run32):
    """compare_pages counts the dimensions of a differing column afresh:
    after a passing and a failing compare, neither page holds a
    dims_column table."""
    _, einf = run32
    computed, predicted = replace(einf), closed_form_einfty(32, einf.columns)
    broken = corrupted(computed, 3, {mono(v2=1): (0, 2)})
    assert compare_pages(computed, predicted, "einfty").ok
    assert not compare_pages(broken, predicted, "einfty").ok
    assert computed._dims_cache == broken._dims_cache == predicted._dims_cache == {}


def test_replay_mode():
    """One decision for both runs: "auto" is "all" up to mw 96 and
    "sample" above, and both runs reject an unknown mode."""
    assert replay_mode("auto", 96) == "all"
    assert replay_mode("auto", 97) == "sample"
    for mode in ("all", "sample", "off"):
        assert replay_mode(mode, 20) == mode
    for run in (run_bockstein, run_adams):
        with pytest.raises(ValueError, match="unknown replay mode 'dense'"):
            run(20, verify="dense")


@pytest.mark.parametrize("mode", ["al", "auto", "dense", ""])
def test_verify_transition_rejects_unknown_modes(mode):
    """verify_transition replays in "all", "sample" or "off" mode only;
    any other mode, "auto" included (replay_mode resolves it), raises
    instead of running the per-family replay alone."""
    page = bockstein_e3(16)
    new_alive, new_zero = _advance(page)
    with pytest.raises(ValueError, match=f"^unknown replay mode {mode!r}$"):
        verify_transition(page, new_alive, new_zero, mode)


def test_compare_rejects_different_windows(run32):
    _, einf = run32
    with pytest.raises(ValueError):
        compare_pages(einf, closed_form_einfty(16, enumerate_families(16)), "einfty")


def test_rho_inverted_failures(run32):
    """A truncated tower off mw 0 is named; a bounded unit tower fails
    the second item."""
    _, einf = run32

    def items(page):
        return [(i.instance, i.passed, i.detail) for i in rho_inverted_check(page).items]

    assert items(corrupted(einf, 3, {mono(v2=1): (0, einf.c_max)})) == [
        ("unbounded towers confined to mw=0", False, "boundary towers at ['v2']"),
        ("mw=0 tower unbounded", True, ""),
    ]
    assert items(corrupted(einf, 0, {mono(): (0, 5)})) == [
        ("unbounded towers confined to mw=0", True, ""),
        ("mw=0 tower unbounded", False, ""),
    ]


def test_einfty_checks_build_no_monomials(monkeypatch):
    """The closed-form compare and the rho-inverted check read packed
    runs: on a passing page they build no Monomial."""
    _, einf = run_bockstein(64, verify="off")
    built = []
    post_init = Monomial.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Monomial, "__post_init__", counted)
    assert compare_pages(einf, closed_form_einfty(64, einf.columns), "einfty").ok
    assert rho_inverted_check(einf).ok
    assert not built


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
        _advance(replace(build_e1(10), differential=as_differential(d)))


def test_tower_shortcut_rejects_shared_image():
    """Two families with one image family would make a 2x1 block: P v2
    and v3 both map to the v2^2 tower.  Their towers are cut to (0, 18)
    and (0, 22), so that every image class lies in v2^2's alive (0, 23)
    and the first of them passes the zero check."""
    d = as_differential(shortcut_derivation())
    e1 = build_e1(8)
    p_v2, v3 = family_of(mono(p=1, v2=1)), family_of(mono(v3=1))
    page = replace(e1, alive={**e1.alive, 7: {**e1.alive[7], p_v2: (0, 18), v3: (0, 22)}})
    assert page.alive[6][family_of(mono(v2=2))] == (0, 23)
    with pytest.raises(EngineError, match="share image"):
        _advance(replace(page, differential=d))


def test_tower_transition_rejects_split_survivors():
    """An image that is nonzero strictly inside its source tower would
    leave the source two rho-intervals: P maps from rho^1 on onto a v2
    tower cut to (0, 10) whose classes rho^10 .. rho^23 are zero, so only
    P rho^1 .. rho^6 have a nonzero image, and P would keep rho^0 and
    rho^7 .. rho^20.  The transition raises, naming the page, the column
    and the family."""
    e1 = build_e1(8)
    p, v2 = family_of(mono(p=1)), family_of(mono(v2=1))

    def family_image(fam):
        return ([(v2, 3)], 1) if fam == p else ([], 0)

    page = replace(
        e1,
        alive={**e1.alive, 3: {**e1.alive[3], v2: (0, 10)}},
        zero={3: {v2: (10, 24)}},
        differential=Differential(Bidegree(-1, 0), family_image),
    )
    assert page.alive[4][p] == (0, 21)
    with pytest.raises(EngineError, match=r"^bockstein-E1: the surviving classes of P at mw=4 "):
        _advance(page)


def test_tower_transition_rejects_split_zero_classes():
    """New hits that do not meet a family's zero interval would leave
    it two zero intervals: on a v2 tower cut to (0, 10) with the zero
    classes rho^15 and rho^16, page 3 hits rho^3 .. rho^9 from a P tower
    cut to (0, 7), whose every image class is alive.  The transition
    raises, naming the page, the column and the family."""
    e1 = build_e1(8)
    p, v2 = family_of(mono(p=1)), family_of(mono(v2=1))
    page = replace(
        e1,
        label="bockstein-E3",
        r=3,
        alive={**e1.alive, 3: {v2: (0, 10)}, 4: {p: (0, 7)}},
        zero={3: {v2: (15, 17)}},
        differential=bockstein_rule(2),
    )
    with pytest.raises(EngineError, match=r"^bockstein-E3: the zero classes of v2 at mw=3 "):
        _advance(page)


def test_tower_shortcut_rejects_bockstein_image_below_rho_r():
    """A Bockstein page-r image carries rho^r at least: the page-3 rule
    P -> rho^3 v2 falls short on page 7.  At mw 4, P is the only
    family with an image."""
    with pytest.raises(EngineError, match="rule image rho\\^3 v2 has rho exponent below r = 7"):
        _advance(replace(build_e1(4), r=7, differential=bockstein_rule(2)))


def test_tower_transition_rejects_image_neither_alive_nor_zero():
    """The transition checks every image term it does not hit: on page
    3, P maps onto rho^3 v2 .. rho^23 v2, but the v2 tower is cut to
    (0, 10) with no zero classes, so rho^10 v2 is neither alive nor hit.
    The transition raises itself, before any replay."""
    e1 = build_e1(8)
    v2 = family_of(mono(v2=1))
    page = replace(
        e1,
        label="bockstein-E3",
        r=3,
        alive={**e1.alive, 3: {v2: (0, 10)}},
        differential=bockstein_rule(2),
    )
    with pytest.raises(EngineError, match=r"^image term rho\^10 v2 is neither alive nor hit$"):
        _advance(page)


@pytest.mark.parametrize("run", [(-1, 2), (2, 2), (3, 1)])
def test_tower_page_rejects_run_outside_rho_range(run):
    """A tower rule whose run does not have 0 <= lo < hi fails in
    tower_page, naming the page and the family, instead of making a page
    whose readers fail elsewhere."""
    with pytest.raises(EngineError, match=rf"^bad-page: 1 has run \({run[0]}, {run[1]}\)$"):
        tower_page("bockstein", "bad-page", 0, 4, enumerate_families(4), lambda fam: run)


def test_closed_form_tower_degrees():
    cf = closed_form_einfty(64, enumerate_families(64))
    towers = {
        (mw, family_c0(fam) + lo): (str(family_monomial(fam, lo)), hi - lo)
        for mw, fam, lo, hi, _ in cf.window_towers()
        if len(v := family_v_exps(fam)) == 1 and v[0][1] == 1
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


CLOSED_FORMS = (bockstein.closed_form_einfty, adams.closed_form_e3, adams.closed_form_einfty)


def _build(builder, mw):
    """A tower page at window mw; a closed form takes the columns of the
    page it predicts: all families, or the normal ones."""
    if builder is bockstein.closed_form_einfty:
        return builder(mw, bockstein.enumerate_families(max(mw, 0)))
    if builder in CLOSED_FORMS:
        return builder(mw, ext.enumerate_ext_families(max(mw, 0)))
    return builder(mw)


TOWER_PAGE_BUILDERS = [
    build_e1,
    bockstein.closed_form_einfty,
    ext.ext_model_page,
    adams.closed_form_e3,
    adams.closed_form_einfty,
]


@pytest.mark.parametrize("builder", TOWER_PAGE_BUILDERS, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_tower_page_builders_reject_negative_window(builder):
    with pytest.raises(ValueError, match="mw_max >= 0"):
        _build(builder, -1)


# sha256 of repr(sorted((mw, sorted(alive[mw].items())))) at mw 0, 1, 2,
# 13, 14, 40 and 64, each interval (lo, hi) written as the one-run tuple
# ((lo, hi),) (as_runs); the stable Bockstein page and the Ext model hold
# the same towers
_EXT_MODEL_DIGESTS = (
        "93a7b2f16843329bfbfd5e8ccd86895c9b2f6c74aec9ec6ddcccccf5c60aea37",
        "1ae6fed451c2d54861fded4278c750ffc6f7a3b0f28ea86e3e19cd3b5f1da7a6",
        "6617db57598898d6e22f8ad3c0adea63bc8c6f00d9a7937e30d1b24b54b2bcef",
        "510983ddfcd5f784c701ba22a4d2c17912999869d30e9a3d3ab6a7d707338fbd",
        "26adc2b8f09dd94f3a93ef805ba9707b7bbdd99a10b01a783796f4c436281a04",
        "2d77b8036fff7595f0b081758e6ace8524008f3cf92fdbbf14081646d06bd9ef",
        "29d4d12d39787a74bc2ea7b0ae96a1ac39b9c7bfba289d851bf5bcab2d4e0679",
)
BUILDER_DIGESTS = {
    build_e1: (
        "93a7b2f16843329bfbfd5e8ccd86895c9b2f6c74aec9ec6ddcccccf5c60aea37",
        "1ae6fed451c2d54861fded4278c750ffc6f7a3b0f28ea86e3e19cd3b5f1da7a6",
        "c0a08ff4b7c1ea25b014dbdafc2876dafc846642a435fa52b593b61fc04bb345",
        "6e53d79f7a852878fbb00e2a568867b1d870d33ba27ef4829cf63927ed199959",
        "4383dca019b439b3eab16c36fef6575ef50b87ebdb70d43c580be7b1eafad377",
        "2f2015f7f31a42fd16dd27478ab481c66a66775175632b7565e24212068a7292",
        "dff3885c1dfda389b2b04e65f949bf7baa9771d491a596aa062bc1b306cc2e27",
    ),
    bockstein.closed_form_einfty: _EXT_MODEL_DIGESTS,
    ext.ext_model_page: _EXT_MODEL_DIGESTS,
    adams.closed_form_e3: (
        "93a7b2f16843329bfbfd5e8ccd86895c9b2f6c74aec9ec6ddcccccf5c60aea37",
        "1ae6fed451c2d54861fded4278c750ffc6f7a3b0f28ea86e3e19cd3b5f1da7a6",
        "6617db57598898d6e22f8ad3c0adea63bc8c6f00d9a7937e30d1b24b54b2bcef",
        "e9b22ee94864a1b81d0fea0fe1108398c3be1c3d49cdf707fa44a6ea571f4a16",
        "c44eb2c690a585899b390253281d91be35a5b37e67cc622d71f1862f4933365b",
        "ecf6084104383e30acf15188f7a216d8b7231f2c534f1b09f9b3a8e4819bd5bc",
        "29c2a60052476393cdd6c399784e45bff580e423d6118af532b4561f13d01bd7",
    ),
    adams.closed_form_einfty: (
        "93a7b2f16843329bfbfd5e8ccd86895c9b2f6c74aec9ec6ddcccccf5c60aea37",
        "1ae6fed451c2d54861fded4278c750ffc6f7a3b0f28ea86e3e19cd3b5f1da7a6",
        "6617db57598898d6e22f8ad3c0adea63bc8c6f00d9a7937e30d1b24b54b2bcef",
        "592c1ffcd6a2e5c6a604b5ced07ab419a3fa13c26dc39082778303c5ce8883d8",
        "a48bc5e6579eba3ea7adc93b17cc874f8c520e5eb1e80b2763c53e22e6ce9486",
        "f5007c42fa9fa6f242a6892e47d9c6055f74bc2945564b3233548a057414bf58",
        "3a13c2a8dc5598a500c96f81021d80b51470cc95875347a30316962b725ba545",
    ),
}


@pytest.mark.parametrize("builder", TOWER_PAGE_BUILDERS, ids=lambda f: f"{f.__module__}.{f.__name__}")
def test_tower_page_builders_are_pinned(builder):
    """The digests pin which family carries each tower of the inputs and
    closed forms."""
    got = []
    for mw in (0, 1, 2, 13, 14, 40, 64):
        items = as_runs(_build(builder, mw).alive)
        got.append(hashlib.sha256(repr(items).encode()).hexdigest())
    assert tuple(got) == BUILDER_DIGESTS[builder]


TRANSITION_WINDOWS = (*range(41), 64, 112)
# sha256 of every page of a run, E-infinity included, as (label, alive,
# zero) with sorted columns and families and each interval written as a
# one-run tuple (as_runs), per window of TRANSITION_WINDOWS; taken from
# the code before the transitions shared untouched columns with the page
# before
TRANSITION_DIGESTS = {
    "bockstein": (
        "9adb88df1849309eeddad03f18630a45e7294715a7b586295fc7517a355b8369",  # mw 0
        "b39b033687c8845eee0d1bc18af364639f8841f81f92d2cb37afcfe63f0a26ee",  # mw 1
        "997b65730dbf40b48dfac56fb81391efec3e617152818b29aae15002ceb1462e",  # mw 2
        "07d99757d060331e28a3893b57b5172f033f8fef7d5bad2ac816963b8c3d2382",  # mw 3
        "4f58f4039bdcec6c80c1569822bab6fe8558d86b616457e885e03cfbf4091831",  # mw 4
        "a1c4c19f3301a9bd561ba79a0fbc2b254fa6cbd45c98a166b0d0456be054b67a",  # mw 5
        "a859f0c78f9ea33c3f59ce5729d9015b7ef19aa8288ae44d400a07c9f6649f64",  # mw 6
        "47b2adbb8bf995831912c159cd579246ca6c2b0f61155a7727447f39394a048b",  # mw 7
        "0cf241e0db68f977c51415895bb309944c3f8ce42140f85a31bbd964c62bb371",  # mw 8
        "86fbc9f5a1edbc321e71b510012fd7e6802511a6ba1fcb9ee95d64cd38ca22ea",  # mw 9
        "4306ee652c26a550619df77496afcdc15dee6d1e43f987c9d9986313293db8d1",  # mw 10
        "567772ec863ad581caf83f5cde71ef64dbd2589777d627c4cc5272cede4ef6eb",  # mw 11
        "46a78bf4cb058ba60d9b539253edc4652231af8f79366641586bb66393c8bd49",  # mw 12
        "5091ce326135dec574d5a77abd225b2c51f9dd5cb92b90b04bd1df0690979333",  # mw 13
        "f2e958bb4fe8a328d85bbe7aaf61c21c16533dba8e6be695c9fc2c089c863443",  # mw 14
        "1a1c85fa0c8fa27bb9fb90aed6102c254654f5ff35c57833f39bbf12646e0187",  # mw 15
        "025b9127c04a035a8770171bf530d3df91f5fd107aefb9d7a6325dfe9a21a134",  # mw 16
        "95b2c0d71de92d996a0dfc7f6083268f5715d87ebc74fa8e40049593468b58d7",  # mw 17
        "20489eccebb7849408e57a8012ea96510fdd75527f314dd8754202184c766e40",  # mw 18
        "40cf9bf16d5502065020c84bb8a6629de872234506aae68b863862553b9b06a7",  # mw 19
        "563eb6abc9a1bc89ecbe60175ba26b22dc502fc3f0f99da88844f692034848d8",  # mw 20
        "23bb3c51ffa9ff4deff1ecebee0f0b565eafe54bc73179b5cd6c4461fca58ad1",  # mw 21
        "51330237865ed3ac1b672393468314836c45bda4cd8a0f0939de6c00bb20788f",  # mw 22
        "aa4bdd7e391c60a62b5bdd9c34da52385891309d0e216f131ce4d90757c94775",  # mw 23
        "11324c2e3f99ed35cf2a30f91a85b413eeed064921ab7cadad3f5c35e8d0404a",  # mw 24
        "7b3f4ee7ad6df3c56851b4fe90183abe94bcac3f85f7d2bbcf01525e60fc4733",  # mw 25
        "4d02345541731cc8d11e4b9bc1b87a44d5b2dee872c1866beeb7831dc0b60008",  # mw 26
        "0ac42735e2186b62b0cc7777e2e7a2fa2dc02d7ef5cc4165eac82ac207ae3ae4",  # mw 27
        "c1640f8d3080cd58489af89ab3fa4b66d74afda8c3a5011b4552684442bf8bef",  # mw 28
        "0d6c4fc2ae61213e56bd212b6894c87264e1b2a6c1cd09efe9b0430f97a7064e",  # mw 29
        "4489a2ae3b85af3a21063943db613182d2b718ec9cc8bba2e20dd7de2c455ec3",  # mw 30
        "3da8ae648d66c26047740ec40dbcf95e8e2c90475bb3fe83ca2de630c773dc21",  # mw 31
        "8c356a5df60f4cf213f4a5c156dab0d70fce6696cfe354eb9e6ac152e7431608",  # mw 32
        "dcb4b82293f7a6679ee49e6aad2088aaed317d8b086b60b0c7f513d064eb48bf",  # mw 33
        "c2b7e56f5c18089a43a06845b984cc9fa4412e4cdc65bbe54ca28fe83fa684fc",  # mw 34
        "6a622eb85c1e63dcc8bdf52d3167f0aa548797f2534bfd579268eabb6f5ef444",  # mw 35
        "d669d6604efd812fb549961737338d81db56bd73011b2127e6281ab4770783cb",  # mw 36
        "740a9811fc1fa9af60800bf8257b0cdb8e935514b7574d944965e117c2f81cb3",  # mw 37
        "dc2d4a854127d6231f9cd122600e5c631970a9ee2258b74b4e9cd340786fcbdd",  # mw 38
        "cd48e4e0bcd2341b92e7c928029a3024d79159aa6b275e6d41631aaa403abf40",  # mw 39
        "6403c5ea74cec96558dd5255880981131e2bd781b07f382aa5bbb0e8d33585b1",  # mw 40
        "fe3fcee50f5e62384496a7708f3d9ce8d7013cc0be64e955a5ca229b41072bcd",  # mw 64
        "a073960431a8b19e9914ed76b1225da6be5ef485bb942bc507facda3c39fa20d",  # mw 112
    ),
    "adams": (
        "994fc47814be21ec5170a057460c07c32e0aecc7121e61aae6f6cda1c013afcb",  # mw 0
        "bf764003bd9c52980fc50d4561020844889499b6ab8c12cb3ad0dfcc5558970b",  # mw 1
        "6e9d145d2248acbf89481ec4747e0afcf868e9ddf849c535eb27e0c86c1286f7",  # mw 2
        "310151786b95622d07ede77b129f9255e59c4ec8cfd9fa7e97bcf5fad621e163",  # mw 3
        "82450191807ecd903efa0c31b546a4db2ae19004afae40c756c736b984ff75f0",  # mw 4
        "173a5ea53fdf3ca3c5fe94b11ca8ddd86e1d0ccee54288fdb3ba90e87688dab3",  # mw 5
        "82b5a207b46bf4bb8c1d50a6418310bd4f40af06f339ecea64549f3570d4f0da",  # mw 6
        "9d60cea5a22842c41b861cf32b1c2844d461b99f4b281c282087cec3a5407146",  # mw 7
        "f919b9203564f3feff8f416c537f497e732ee68a9f2cb3bb157c462073e17e03",  # mw 8
        "5a264bb9004c802ad83d6b615b28f3c11e67476cbe4ec9f4e3632f191aa87ef3",  # mw 9
        "4cf12bdae1be3642a0b8a38a3a575182cc36d7c683ca071e75feb749e1a2a126",  # mw 10
        "280157baa3a047aca9a47a4a106b22203bd9dae14ca56f26001bbaa6bab43874",  # mw 11
        "3e0878142e31b9b0bb518021412a798aa93bea62e6ce2ffae5a5a0a7286d7b79",  # mw 12
        "0b57d47a6d9f7cb1a5b0358aef7cbdb735936b2450c72941900d560202aae917",  # mw 13
        "a02acc8fd51c28212f7d61cd5001555c02d4f2fa84695a0104bd9e77effdee65",  # mw 14
        "0f29caa4fb40c097fa8a29d9312b81670d0562a7e407898635296ca3943ebace",  # mw 15
        "dac07953a2914d41c3c39e0d208bf1c2a99f602ce31bbada9c68702cd58c23b4",  # mw 16
        "72d0f0a31f27b4f76d7262ce0f5061de90ac9c335a9da25cb046541599bd7878",  # mw 17
        "31faa218e3d5d43801a15dc05be33ccf4f3c966345c0ff9cc8bf93387f9ffd2e",  # mw 18
        "ea8de9662a5e89fee1c52138443d3e7fcb70c22b9fe11081f17539fa0b469041",  # mw 19
        "0e6a22178e53145d3284fa9f805993281567515470d80cb8a36575ad151da09a",  # mw 20
        "d9aeff04bd707e9c32ba57f3dd6f3737064601b53a03f1dc93fd108c80fe247d",  # mw 21
        "4c6ebad52e0247d2631f66dd69b8dd320db7c341b617fa56879d37d04e3b27c6",  # mw 22
        "e4d80b0948bb78954c5f7f0ca9acc92d0445195aa3bad3a0d0ac2ba9a6422c5a",  # mw 23
        "3de39daa8573f7568109f2c08d4d8d7fdd43f6dc0b0d6e13e3e9a1ed476698e0",  # mw 24
        "a627df830186d84d77cf34903a5022931d515a6d8e657cee5da252649338a9d4",  # mw 25
        "6e818e9ed724a67d25caf793100f95330a9450893c9e613540a20d1ca5a3f0d4",  # mw 26
        "6b3da519b8c47fa606df54fa7395a801269c2dad1e86f25ef291e2a2634e9f80",  # mw 27
        "4fcfeb1057816bf09fe61e6a96192249806b58af6c3aac17c23237be4ba363e3",  # mw 28
        "0b530ef2052a3d5b85a4767c88a2951ceae0014258f429892fd465db67daa8b0",  # mw 29
        "88f603bc3b4a89365df498f900da6bf3cd6bb2ff2f588e31d12d09b60b2865ab",  # mw 30
        "6fd39b5ecf63a4fc5603871da38a8902d594ce5bfe13b2e47f8349b4928c6bd3",  # mw 31
        "5e8be9247ee654a693c7142f268d2ee3b0c6fa02bf911b5819324a68aa552d0d",  # mw 32
        "943817ffb1b0cb023fea1be3ab3356afb329e90843bc49fc0148e368845d39e7",  # mw 33
        "deeab3868ec79fdf792f716fdd67158d18cf99147ff62d16769f655877bff61c",  # mw 34
        "1cdf0655a503416902dd6421c57a0022dbe77921cd15089dd7580352bac45d8d",  # mw 35
        "b87c8ee7133cee5699aa424557f45dc8ee36c13dabe8146eb172cd332081d5ab",  # mw 36
        "46f241b4f47d05c38e95190ecc22fcd7371128053bd313fb76c1023226d6ce97",  # mw 37
        "6ccb387c2d474bec906c30cdb179e8ee4bb396056c82ea8679014e84fe6f1dc6",  # mw 38
        "c2f7f6c0631bd6951d7b0ba063acf81113f6bba48f877336b710132e8d2d3820",  # mw 39
        "7f34717f7b445f95284e8bdfb9e3288559ae4ebb623ca517bf1c1b59251b77f5",  # mw 40
        "34ed9511f9a664829c77369349a67e4601b09e9f9751247bacea3b43af58303b",  # mw 64
        "438e5c9ed89eddc325cdae8d5dba5db367cff87facf4e6f18a480b089ce240fa",  # mw 112
    ),
}

RUNS = {"bockstein": run_bockstein, "adams": run_adams}


def as_runs(table):
    """A page table with sorted columns and families, each interval
    (lo, hi) written as the one-run tuple ((lo, hi),): the form the
    digests were taken in when a page stored a tuple of runs."""
    return sorted(
        (mw, sorted((fam, (run,)) for fam, run in per.items())) for mw, per in table.items()
    )


def run_digest(pages: list[Page]) -> str:
    items = [(p.label, as_runs(p.alive), as_runs(p.zero)) for p in pages]
    return hashlib.sha256(repr(items).encode()).hexdigest()


def rule_page(page: Page) -> Page:
    """The page of the same window and families that the tower rule of
    page's sequence gives: bockstein-E(2^n - 1) is bockstein_tower at
    n - 1 and bockstein-Einf at V_TOP; adams-E2 is the Ext model, adams-Er
    is adams_tower at r and adams-Einf at infinity."""
    if page.label == "adams-E2":
        return ext.ext_model_page(page.max_mw)
    stable = page.label.endswith("-Einf")
    if page.kind == "bockstein":
        rule = bockstein.bockstein_tower(V_TOP if stable else page.r.bit_length() - 1, page.c_max)
    else:
        rule = adams.adams_tower(math.inf if stable else page.r, page.c_max)
    return bockstein.tower_page(page.kind, page.label, page.r, page.max_mw, page.columns, rule)


@pytest.mark.parametrize("sequence", RUNS)
def test_transitions_are_pinned(sequence):
    """Every page of the run, E-infinity included, has the pinned
    digest and equals its tower rule (rule_page) inside the window."""
    got = []
    for mw in TRANSITION_WINDOWS:
        pages, einf = RUNS[sequence](mw, verify="off")
        got.append(run_digest([*pages, einf]))
        for page in [*pages, einf]:
            rep = compare_pages(page, rule_page(page), page.label)
            assert rep.ok, (mw, rep.to_json())
    assert tuple(got) == TRANSITION_DIGESTS[sequence]


@pytest.mark.parametrize("sequence", RUNS)
def test_transitions_share_untouched_columns(sequence):
    """A column that no edge leaves or enters is the same dict on the
    next page, alive and zero; a column an edge touches is a new dict,
    so the page before keeps its own."""
    pages, einf = RUNS[sequence](32, verify="off")
    shared = copied = 0
    for page, after in zip(pages, [*pages[1:], einf]):
        if page.label == "adams-E2":  # the page-2 step is not a tower transition
            continue
        sources = [f for per in page.alive.values() for f in per if page.family_image(f)[0]]
        touched = {*sources, *(t for f in sources for t, _ in page.family_image(f)[0])}
        for mw, per in page.alive.items():
            if touched.isdisjoint(per):
                shared += 1
                assert after.alive[mw] is per, (page.label, mw)
                if mw in page.zero:
                    assert after.zero[mw] is page.zero[mw], (page.label, mw)
            else:
                copied += 1
                assert after.alive[mw] is not per, (page.label, mw)
    assert shared and copied


def test_replay_leaves_dimension_tables_alone():
    """The replay keeps no dimension table on the page: a page's
    dims_column cache is as the replay found it, empty or not."""
    pages = run_bockstein(32, verify="off")[0] + run_adams(32, verify="off")[0][1:]
    for page in pages:
        new_alive, new_zero = _advance(page)
        assert verify_transition(page, new_alive, new_zero, "sample", 0)
        assert page._dims_cache == {}, page.label
        filled = {mw: dict(page.dims_column(mw)) for mw in (0, 3, 7)}
        assert verify_transition(page, new_alive, new_zero, "sample", 1)
        assert page._dims_cache == filled, page.label


def test_run_is_deterministic():
    _, a = run_bockstein(12, verify="all")
    _, b = run_bockstein(12, verify="all")
    assert a.alive == b.alive

    def generators(page):
        return [str(family_monomial(fam, lo)) for _, fam, lo, _, _ in page.window_towers()]

    assert generators(a) == generators(b)


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


def test_replay_catches_corrupted_transitions():
    pages, _ = run_bockstein(16, verify="off")
    check_mutations_caught(pages[0])


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


@pytest.mark.parametrize("run", [run_bockstein, run_adams], ids=["bockstein", "adams"])
def test_sweep_tables_match_reference_positions(run):
    """Every class listing of every page of a sequence at mw 32, E∞
    included, is the run scan of reference_positions at every Chow
    degree of every column: a column table's bases, filled by one sweep
    over the alive runs; window_classes at its degrees 0..c_max with
    classes, in every column of the window; basis_at and dim_at."""
    pages, einf = run(32, verify="off")
    for page in [*pages, einf]:
        dense = Homology(page)
        listed = {}
        for mw, column, classes in page.window_classes():
            assert column == page._column_alive(mw), (page.label, mw)
            listed[mw] = classes
        assert sorted(listed) == [mw for mw in sorted(page.alive) if mw <= page.max_mw]
        for mw in sorted(page.alive):
            column = page._column_alive(mw)
            want = {c: reference_positions(page, mw, c) for c in range(-2, page.c_max + 4)}
            if mw <= page.max_mw:
                assert listed[mw] == [
                    (c, want[c]) for c in range(page.c_max + 1) if want[c]
                ], (page.label, mw)
            for c, positions in want.items():
                assert dense.column(mw).bases[c] == positions, (page.label, mw, c)
                assert page.basis_at(mw, c) == [
                    family_monomial(column[pos][0], c - column[pos][1]) for pos in positions
                ], (page.label, mw, c)
                assert page.dim_at(mw, c) == len(positions), (page.label, mw, c)


@pytest.mark.parametrize("label", ["bockstein", "adams", "adams-E2"])
def test_map_columns_match_reference(label):
    """Homology.map_columns, whose table a column fills in one pass over
    its families with an image, equals the class-by-class
    reference_map_columns at every bidegree with classes of every page
    of both sequences at mw 32, E-infinity included, and of adams-E2 at
    mw 64."""
    if label == "adams-E2":
        pages = [build_e2(64)]
    else:
        pages, einf = (run_bockstein if label == "bockstein" else run_adams)(32, verify="off")
        pages = [*pages, einf]
    nonzero = 0
    for page in pages:
        homology = Homology(page)
        for mw in sorted(page.alive):
            for c in [c for c, mid in homology.column(mw).bases.items() if mid]:
                got = homology.map_columns(mw, c)
                assert got == reference_map_columns(homology, mw, c), (page.label, mw, c)
                nonzero += sum(map(bool, got))
    assert nonzero


def test_replay_counts_are_pinned(monkeypatch):
    """The dense replay at mw 64 checks 21,056 Bockstein and 792 Adams
    bidegrees, and the "sample" replay at mw 112, seed 1, every one of
    the 70,333 eligible bidegrees."""
    counts = {"bockstein": 0, "adams": 0}
    for module in (bockstein, adams):
        name = module.__name__.rsplit(".", 1)[1]

        def counted(*args, _real=module.verify_transition, _name=name, **kwargs):
            checked = _real(*args, **kwargs)
            counts[_name] += checked
            return checked

        monkeypatch.setattr(module, "verify_transition", counted)
    run_bockstein(64, verify="all")
    run_adams(64, verify="all")
    assert counts == {"bockstein": 21_056, "adams": 792}
    counts.update(bockstein=0, adams=0)
    run_bockstein(112, verify="sample", seed=1)
    run_adams(112, verify="sample", seed=1)
    assert sum(counts.values()) == 70_333


def hit_class_mapped_on(page, new_alive, new_zero):
    """(mw, c, differential): a differential that is the page's, except
    that a family with no image of its own, hit at (mw, c), maps from
    that class on onto alive classes that nothing hits, in the column
    the page's differential reaches."""
    shift, d = page.diff_shift(), page.differential
    for mw in sorted(new_zero):
        for tfam, (zlo, zhi) in new_zero[mw].items():
            hit = set(range(zlo, zhi)) - set(range(*page.zero.get(mw, {}).get(tfam, (0, 0))))
            c0, run = family_c0(tfam), page.alive[mw].get(tfam)
            if not hit or run is None or page.family_image(tfam)[0]:
                continue
            b, top = min(hit), min(run[1], page.c_max - c0 + 1)
            if b >= top:
                continue
            for g, (glo, ghi) in page.alive.get(mw + shift.mw, {}).items():
                delta = c0 + shift.c - family_c0(g)
                taken = set(range(*new_zero[mw + shift.mw].get(g, (0, 0))))
                if glo <= b + delta and top + delta <= ghi and taken.isdisjoint(
                    range(b + delta, top + delta)
                ):
                    image = ([(g, delta)], b)
                    rule = Differential(shift, lambda f: image if f == tfam else d.family_image(f))
                    return mw, c0 + b, rule
    return None


@pytest.mark.parametrize("mode", ["all", "sample"])
def test_replay_rejects_boundary_that_is_not_a_cycle(monkeypatch, mode):
    """A class that is both hit and mapped on makes a boundary that is
    not a cycle, and the replay raises at that bidegree.  In "all" mode
    one incoming matrix column of the class-at-a-time replay changes;
    in "sample" mode the page's family image makes a hit class map onto
    alive classes."""
    page = bockstein_e3(32)
    new_alive, new_zero = _advance(page)
    verify_transition(page, new_alive, new_zero, mode)
    if mode == "sample":
        mw, c, rule = hit_class_mapped_on(page, new_alive, new_zero)
        with pytest.raises(SubspaceNotContained, match=f"mw={mw}, c={c} is not a cycle"):
            verify_transition(replace(page, differential=rule), new_alive, new_zero, mode)
        return
    shift = page.diff_shift()
    probe = Homology(page)
    mw, c, i = next(
        (mw, c, next(i for i, bits in enumerate(out) if bits))
        for mw in sorted(page.alive)
        for c in dense_bidegrees(page, mw)
        if any(out := probe.map_columns(mw, c)) and probe.column(mw - shift.mw).bases[c - shift.c]
    )
    source = (mw - shift.mw, c - shift.c)
    real_map_columns = Homology.map_columns

    def map_columns(self, m, cc):
        out = real_map_columns(self, m, cc)
        return [out[0] ^ (1 << i), *out[1:]] if (m, cc) == source else out

    monkeypatch.setattr(Homology, "map_columns", map_columns)
    with pytest.raises(SubspaceNotContained, match=f"mw={mw}, c={c} is not a cycle"):
        verify_transition(page, new_alive, new_zero, mode)


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


def tower_pages(mw: int) -> list[Page]:
    """Every page of both sequences at window mw that a tower transition
    leaves, replay off: the Adams page 2 is computed by the homology
    routine itself."""
    return run_bockstein(mw, verify="off")[0] + run_adams(mw, verify="off")[0][1:]


# eligible bidegrees of every tower page of both sequences, summed
TOWER_REPLAY_COUNTS = {8: 250, 13: 535, 14: 811, 40: 7_261, 64: 21_848, 96: 51_118}


@pytest.mark.parametrize("mw", [*range(41), 64, 96])
def test_tower_replay_agrees_with_class_at_a_time_replay(mw):
    """On every tower page of both sequences, the per-family replay and
    the class-at-a-time replay both pass and count the same eligible
    bidegrees."""
    total = 0
    for page in tower_pages(mw):
        new_alive, new_zero = _advance(page)
        count = _tower_replay(page, new_alive, new_zero)
        assert count == _Replay(page, new_alive, new_zero).sweep(), (mw, page.label)
        total += count
    assert total == TOWER_REPLAY_COUNTS.get(mw, total)


def classes_by_kind(page, new_alive, new_zero) -> dict[str, set[tuple[int, int]]]:
    """The eligible bidegrees that hold a class of each corruption kind:
    a survivor, a class that dies, a class newly hit."""
    out = {kind: set() for kind in KINDS}
    for mw in page.alive:
        na, nz, oz = (t.get(mw, {}) for t in (new_alive, new_zero, page.zero))
        for fam, c0, (lo, hi) in page._column_alive(mw):
            for b in range(lo, min(hi, page.c_max - c0 + 1)):
                runs = (table.get(fam, (0, 0)) for table in (na, nz, oz))
                inside = [start <= b < end for start, end in runs]
                out["drop-survivor" if inside[0] else "add-dying"].add((mw, c0 + b))
                if inside[1] and not inside[2]:
                    out["drop-newly-hit"].add((mw, c0 + b))
    return out


@pytest.mark.parametrize("mw", [24, 40, 64])
def test_tower_replay_catches_corruptions_anywhere(mw):
    """Each corruption kind raises in "sample" mode, the per-family
    replay alone, at 40 random eligible bidegrees per page and kind,
    or at every one there is when a page has fewer: 1,835 corruptions
    over the 18 tower pages of the three windows."""
    rng = random.Random(mw)
    tried = 0
    for page in tower_pages(mw):
        new_alive, new_zero = _advance(page)
        for kind, where in classes_by_kind(page, new_alive, new_zero).items():
            assert where, (page.label, kind)
            for bidegree in rng.sample(sorted(where), min(40, len(where))):
                found = corrupt(page, new_alive, new_zero, kind, [bidegree])
                assert found is not None and found[0] == bidegree
                with pytest.raises(EngineError):
                    verify_transition(page, found[1], found[2], "sample")
                tried += 1
    assert tried == {24: 409, 40: 599, 64: 827}[mw]


def test_class_at_a_time_replay_catches_corruptions_anywhere():
    """Each corruption kind raises in the class-at-a-time replay alone
    (_Replay.sweep) at 15 random eligible bidegrees per page and kind,
    or at every one there is when a page has fewer, on every tower page
    at mw 40: the degrees that need no elimination and the columns a
    transition hands over unchanged are checked like any other."""
    rng = random.Random(40)
    tried = 0
    for page in tower_pages(40):
        new_alive, new_zero = _advance(page)
        for kind, where in classes_by_kind(page, new_alive, new_zero).items():
            assert where, (page.label, kind)
            for bidegree in rng.sample(sorted(where), min(15, len(where))):
                found = corrupt(page, new_alive, new_zero, kind, [bidegree])
                assert found is not None and found[0] == bidegree
                with pytest.raises(EngineError):
                    _Replay(page, found[1], found[2]).sweep()
                tried += 1
    assert tried == 244


def test_class_at_a_time_replay_judges_new_hits_in_unchanged_columns():
    """A column whose alive table the transition hands over unchanged
    claims its bases as survivors and no new hit only while its zero
    table is the page's own too: a new hit claimed there, which nothing
    hits, raises in the class-at-a-time replay alone."""
    page = run_bockstein(40, verify="off")[0][2]
    assert page.label == "bockstein-E15"
    new_alive, new_zero = _advance(page)
    mw, fam, b = next(
        (mw, fam, lo)
        for mw in sorted(page.alive)
        if new_alive[mw] is page.alive[mw] and new_zero[mw] is page.zero[mw]
        for fam, (lo, _) in page.alive[mw].items()
        if fam not in page.zero[mw] and family_c0(fam) + lo <= page.c_max
    )
    _Replay(page, new_alive, new_zero).sweep()
    bad_zero = {**new_zero, mw: {**new_zero[mw], fam: (b, b + 1)}}
    with pytest.raises(EngineError, match="marked hit but outside boundary span$"):
        _Replay(page, new_alive, bad_zero).sweep()


def synthetic_page(alive, images) -> Page:
    """A Bockstein-kind page over hand-picked columns whose differential
    sends each family of `images` to its (terms, threshold)."""
    return Page(
        kind="bockstein",
        label="synthetic",
        r=3,
        max_mw=8,
        columns={},
        alive=alive,
        differential=Differential(Bidegree(-1, 0), lambda fam: images.get(fam, ([], 0))),
    )


P, V2, V3, PV2 = (family_of(m) for m in (mono(p=1), mono(v2=1), mono(v3=1), mono(p=1, v2=1)))


@pytest.mark.parametrize(
    "alive, images, match",
    [
        (  # P rho^b -> rho^(b+3) v2 + rho^(b+3) v3
            {3: {V2: (0, 10), V3: (0, 10)}, 4: {P: (0, 5)}},
            {P: ([(V2, 3), (V3, 3)], 0)},
            "^family image of P is not a single monomial$",
        ),
        (  # P rho^1 and P v2 rho^0 -> rho^4 v2
            {3: {V2: (0, 12)}, 4: {P: (0, 5), PV2: (0, 5)}},
            {P: ([(V2, 3)], 0), PV2: ([(V2, 4)], 0)},
            "^families P and P v2 share image rho\\^4 v2$",
        ),
        (  # P rho^2 -> rho^5 v2, above the v2 tower, with no zero classes
            {3: {V2: (0, 5)}, 4: {P: (0, 5)}},
            {P: ([(V2, 3)], 0)},
            "^image term rho\\^5 v2 is neither alive nor hit$",
        ),
        (  # P rho^b -> rho^(b+2) v2 lies at Chow degree 3 + b, not 4 + b
            {3: {V2: (0, 10)}, 4: {P: (0, 5)}},
            {P: ([(V2, 2)], 0)},
            "^image term rho\\^2 v2 is neither alive nor hit$",
        ),
    ],
    ids=["two-term image", "two sources on one class", "off-basis term not zero", "wrong degree"],
)
def test_tower_replay_guards(alive, images, match):
    """Each guard of the per-family replay on a synthetic page, checked
    before any claim of the column."""
    page = synthetic_page(alive, images)
    with pytest.raises(EngineError, match=match):
        _tower_replay(page, page.alive, page.zero)


@pytest.mark.parametrize(
    "new_alive, new_zero, match",
    [
        (
            {3: {V2: (0, 10), V3: (0, 2)}, 4: {P: (0, 5)}},
            {},
            "^homology mismatch at mw=3: v3 was not alive$",
        ),
        (
            {3: {V2: (0, 10)}, 4: {P: (0, 5)}},
            {3: {V2: (2, 3)}},
            "^class rho\\^2 v2 marked hit but outside boundary span$",
        ),
    ],
    ids=["family from nowhere", "hit from nowhere"],
)
def test_tower_replay_rejects_claims_of_classes_nothing_made(new_alive, new_zero, match):
    """On a page without differential, a claimed survivor of a family the
    page does not hold, or a claimed new hit, raises."""
    page = synthetic_page({3: {V2: (0, 10)}, 4: {P: (0, 5)}}, {})
    _tower_replay(page, page.alive, page.zero)
    with pytest.raises(EngineError, match=match):
        _tower_replay(page, new_alive, new_zero)


def test_all_mode_needs_both_replays_to_count_alike(monkeypatch):
    """In "all" mode the class-at-a-time replay must visit exactly the
    bidegrees the per-family replay counts."""
    page = bockstein_e3(16)
    new_alive, new_zero = _advance(page)
    real_sweep = _Replay.sweep
    monkeypatch.setattr(_Replay, "sweep", lambda self: real_sweep(self) + 1)
    assert verify_transition(page, new_alive, new_zero, "sample")
    with pytest.raises(EngineError, match="^bockstein-E3: the two replays count different bidegrees$"):
        verify_transition(page, new_alive, new_zero, "all")


def test_tower_replay_rejects_class_both_source_and_hit():
    """P v2 rho^0 hits P rho^1, which maps onto rho^4 v2: its boundary is
    not a cycle."""
    page = synthetic_page(
        {3: {V2: (0, 10)}, 4: {P: (0, 5)}, 5: {PV2: (0, 1)}},
        {P: ([(V2, 3)], 0), PV2: ([(P, 1)], 0)},
    )
    new_alive = {**page.alive, 5: {}}
    with pytest.raises(SubspaceNotContained, match="^boundary rho P at mw=4, c=5 is not a cycle$"):
        _tower_replay(page, new_alive, page.zero)


def test_replay_rejects_class_both_alive_and_newly_hit():
    """The survivor and newly-hit checks are independent: a class hit on
    this page that is also claimed to survive must raise."""
    page = bockstein_e3(16)
    new_alive, new_zero = _advance(page)
    mw, fam, b = next(
        (mw, fam, lo)
        for mw, per in new_zero.items()
        for fam, (lo, _) in per.items()
        if page.class_status(mw, fam, lo) != "zero" and new_alive[mw].get(fam, (lo, lo))[1] == lo
    )
    column = dict(new_alive[mw])
    column[fam] = (column.get(fam, (b, b))[0], b + 1)  # one class more: the hit class b
    with pytest.raises(EngineError):
        verify_transition(page, {**new_alive, mw: column}, new_zero, "all")


def model_zero(fam, b):
    """The Ext model's torsion: fam * rho^b is zero from the family's
    tower length on."""
    t = torsion_bound(fam)
    return t is not None and b >= t


def test_family_image_is_rho_linear():
    """The replay shifts each family's image by the rho exponent; that
    must agree with the reference derivation applied to every class of
    the tower."""
    pages, _ = run_bockstein(32, verify="off")
    assert [p.r for p in pages] == bockstein_page_indices(32)
    for page in pages:
        reference = bockstein_derivation(page.r.bit_length())
        assert page.differential.shift == reference.shift
        moved = 0
        for mw in page.alive:
            for fam, _, (lo, hi) in page._column_alive(mw):
                terms, threshold = page.family_image(fam)
                assert threshold == 0
                moved += bool(terms)
                for b in range(lo, hi):
                    want = [family_monomial(tfam, b + d) for tfam, d in terms]
                    assert leibniz_apply(reference, family_monomial(fam, b)) == want
        assert moved, f"{page.label} moves no family"

    # the Adams page 2: d2 renormalizes, so the shifted family image
    # equals it once the terms torsion kills (model zero) are dropped
    d2 = d2_derivation(32)
    e2 = build_e2(32)
    assert e2.differential.shift == d2.shift
    moved = killed = 0
    for mw in e2.alive:
        for fam, _, (lo, hi) in e2._column_alive(mw):
            terms, threshold = e2.family_image(fam)
            assert threshold == 0
            for b in range(lo, hi):
                shifted = [(tfam, b + d) for tfam, d in terms]
                want = leibniz_apply(d2, family_monomial(fam, b))
                kept = [family_monomial(*t) for t in shifted if not model_zero(*t)]
                assert kept == want
                moved += bool(want)
                killed += len(shifted) - len(want)
    assert moved and killed, f"adams-E2: {moved} classes moved, {killed} terms killed"


def test_derivation_image_matches_leibniz_at_64():
    """Every engine rule at mw 64 gives, on every family of its page's
    columns, the image of its monomial reference, exceptions included:
    each Bockstein page and adams-E2 leibniz_apply of the reference
    derivation on the family's Monomial at threshold 0, each Adams rule
    page its dr_rule entry."""
    pages, _ = run_bockstein(64, verify="off")
    adams_pages, _ = run_adams(64, verify="off")
    assert [p.r for p in adams_pages] == [2, *range(3, adams_r_max(64) + 1)]
    raised = rules = 0
    references = [bockstein_derivation(page.r.bit_length()) for page in pages]
    for page, reference in zip([*pages, adams_pages[0]], [*references, d2_derivation(64)]):
        for col in page.columns.values():
            for fam in col.fams:
                try:
                    want = leibniz_apply(reference, family_monomial(fam))
                except MissingRule:
                    with pytest.raises(MissingRule):
                        page.family_image(fam)
                    raised += 1
                    continue
                got, threshold = page.family_image(fam)
                assert threshold == 0
                assert [family_monomial(tfam, rho) for tfam, rho in got] == want, page.label
    for page in adams_pages[1:]:
        table = dr_table(dr_rule(page.r, 64))
        for col in page.columns.values():
            for fam in col.fams:
                rule = table.get(fam)
                want = ([], 0)
                if rule is not None:
                    src, tgt = rule.source, rule.target
                    want = ([(family_of(tgt), tgt.rho_exp - src.rho_exp)], src.rho_exp)
                    rules += 1
                assert page.family_image(fam) == want, (page.label, str(family_monomial(fam)))
    assert raised, "no family reached the block-generator check"
    assert rules == sum(len(dr_rule(r, 64)) for r in range(3, adams_r_max(64) + 1))


def test_rules_shift_degree_at_128():
    """Every image term of every engine rule at mw 128 (each Bockstein
    page over all families, the Adams page 2 and each Adams rule page
    over the normal ones) lies at its source's bidegree plus the rule's
    shift, from the threshold on, and the threshold is not negative.
    Families that raise MissingRule have no image to check."""
    every, normal = enumerate_families(128), families(128, normal=True)
    indices = bockstein_page_indices(128)
    rules = [(f"bockstein-E{r}", bockstein_rule(r.bit_length()), every) for r in indices]
    rules.append(("adams-E2", d2_rule(128), normal))
    rules += [(f"adams-E{r}", adams_rule(r), normal) for r in range(3, adams_r_max(128) + 1)]
    for name, rule, columns in rules:
        terms_seen = 0
        for mw, col in columns.items():
            for fam in col.fams:
                try:
                    terms, threshold = rule.family_image(fam)
                except MissingRule:
                    continue
                assert threshold >= 0, (name, str(family_monomial(fam)))
                source = family_monomial(fam, threshold).bidegree
                assert source.mw == mw
                for tfam, delta in terms:
                    target = family_monomial(tfam, threshold + delta).bidegree
                    assert target == source + rule.shift, (name, str(family_monomial(fam)))
                    terms_seen += 1
        assert terms_seen, f"{name} moves no family"
