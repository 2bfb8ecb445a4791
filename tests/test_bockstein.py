import random

import pytest

from etass.adams import _model_zero, build_e2, d2_rule
from etass.algebra import Bidegree, Derivation, Monomial, default_generators, enumerate_monomials, leibniz_apply
from etass.bockstein import (
    Page,
    bockstein_page_indices,
    bockstein_rule,
    build_e1,
    closed_form_einfty,
    compare_pages,
    rho_inverted_check,
    run_bockstein,
    _advance,
)
from etass.gf2 import F2Matrix
from dump_reference import image_classes
from replay_mutations import check_mutations_caught


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
        c_max=page.c_max,
        c_internal=page.c_internal,
        columns=page.columns,
        alive=page.alive,
        zero=page.zero,
    )
    new_alive, new_zero = _advance(silent)
    assert new_alive == page.alive
    assert new_zero == page.zero


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
    m = einf.rho_matrix_at(3, 1)
    assert m.nrows == 1 and m.cols == 1 and m.rows[0][0] == 1
    m = einf.rho_matrix_at(3, 3)  # top of the tower maps to zero
    assert m.nrows == 0 and m.cols == 1


def test_replay_catches_corrupted_transitions(monkeypatch):
    pages, _ = run_bockstein(16, verify="off")
    check_mutations_caught(pages[0], monkeypatch)


def test_family_image_is_rho_linear():
    """The replay shifts each family's image by the rho exponent; that
    must agree with the derivation applied to every class of the tower."""
    pages, _ = run_bockstein(32, verify="off")
    assert [p.r for p in pages] == bockstein_page_indices(32)
    for page in pages:
        assert page.rule == bockstein_rule(page.r.bit_length())
        moved = 0
        for mw in page.alive:
            for fam, _, runs in page._column_alive(mw):
                terms, threshold = page.family_image(fam)
                assert threshold == 0
                moved += bool(terms)
                for lo, hi in runs:
                    for b in range(lo, hi):
                        want = [tfam.times_rho(b + d) for tfam, d in terms]
                        assert leibniz_apply(page.rule, fam.times_rho(b)) == want
        assert moved, f"{page.label} moves no family"

    # the Adams page 2: d2 renormalizes, so the shifted family image
    # equals it once the terms torsion kills (model zero) are dropped
    d2 = d2_rule(32)
    e2 = build_e2(32)
    assert e2.rule == d2
    moved = killed = 0
    for mw in e2.alive:
        for fam, _, runs in e2._column_alive(mw):
            terms, threshold = e2.family_image(fam)
            assert threshold == 0
            for lo, hi in runs:
                for b in range(lo, hi):
                    shifted = [tfam.times_rho(b + d) for tfam, d in terms]
                    want = leibniz_apply(d2, fam.times_rho(b))
                    assert [t for t in shifted if not _model_zero(t)] == want
                    moved += bool(want)
                    killed += len(shifted) - len(want)
    assert moved and killed, f"adams-E2: {moved} classes moved, {killed} terms killed"
