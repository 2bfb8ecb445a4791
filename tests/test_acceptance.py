"""Acceptance suite: every criterion at its stated tolerance, one
printed verdict line per criterion.  All equalities are exact."""

import json
import time
from pathlib import Path

import pytest

from etass import adams as A
from etass import bockstein as B
from etass import brackets as BR
from etass import ext as X
from etass import homotopy as H
from etass.algebra import family_c0, family_monomial
from etass.cli import main as cli_main

MW = 64
FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "figure_dots.json").read_text()
)


def verdict(num: int, ok: bool, text: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def bockstein_run():
    t0 = time.time()
    pages, einf = B.run_bockstein(MW, verify="all")
    return pages, einf, time.time() - t0


@pytest.fixture(scope="module")
def adams_run():
    pages, einf = A.run_adams(MW, verify="all")
    return pages, einf


@pytest.fixture(scope="module")
def groups(adams_run):
    _, einf = adams_run
    return H.extract_groups(einf)


def test_criterion_1_bockstein_einfty(bockstein_run):
    pages, einf, elapsed = bockstein_run
    rep = B.compare_pages(einf, B.closed_form_einfty(MW, einf.columns), "c1")
    ok = rep.ok and elapsed < 10.0
    verdict(
        1,
        ok,
        f"stable page = closed form on mw<=64, c<=136, equal towers "
        f"({elapsed:.1f}s < 10s)",
    )


def test_criterion_2_adams_e3(adams_run):
    pages, _ = adams_run
    e3 = pages[1]
    rep = B.compare_pages(e3, A.closed_form_e3(MW, e3.columns), "c2")
    towers = {
        (mw, family_c0(fam) + lo): (str(family_monomial(fam, lo)), hi - lo)
        for mw, fam, lo, hi, _ in e3.window_towers()
    }
    spots = (
        towers.get((7, 4)) == ("rho^3 v3", 4)
        and towers.get((23, 20)) == ("rho^3 P^4 v3", 4)
        and towers.get((14, 10)) == ("P^2 v2^2", 3)
        and towers.get((62, 34)) == ("P^8 v4^2", 15)
    )
    verdict(2, rep.ok and spots, "page 3 matches its closed form exactly")


def test_criterion_3_adams_einfty(adams_run):
    _, einf = adams_run
    rep = B.compare_pages(einf, A.closed_form_einfty(MW, einf.columns), "c3")
    towers = {
        mw: (family_c0(fam) + lo, hi - lo)
        for mw, fam, lo, hi, _ in einf.window_towers()
        if mw in (15, 31, 63)
    }
    spots = (
        towers.get(15) == (11, 5)
        and towers.get(31) == (26, 6)
        and towers.get(63) == (57, 7)
    )
    verdict(3, rep.ok and spots, "stable page matches its closed form exactly")


def test_criterion_4_group_orders(groups):
    torsion = [g.order_exponent for g in groups if g.mw > 0 and not g.is_trivial]
    expected = [3, 4, 3, 5, 3, 4, 3, 6, 3, 4, 3, 5, 3, 4, 3, 7]
    formula_ok = H.groups_vs_order_formula(groups).ok
    ok = torsion == expected and formula_ok and groups[0].order_exponent is None
    verdict(4, ok, "orders 2^(v2(mw+1)+1) in stems 3 mod 4, zero elsewhere")


def test_criterion_5_oracle(adams_run):
    pages, _ = adams_run
    ok1 = A.dga_homology_oracle(6, 40).ok
    ok2 = A.oracle_spot_check(pages[0], pages[1], count=20, seed=0).ok
    verdict(5, ok1 and ok2, "generic homology oracle agrees (N=6 bound 40; 20 bidegrees)")


def test_criterion_6_structural_scans(bockstein_run, adams_run):
    _, beinf, _ = bockstein_run
    _, aeinf = adams_run
    oks = [
        X.unique_detection_scan(MW, X.enumerate_ext_families(MW)).ok,
        X.vanishing_scan(beinf).ok,
        X.product_consistency(MW, X.enumerate_ext_families(MW), trials=500, seed=0).ok,
        X.massey_scan(MW).ok,
        A.mod4_vanishing_scan(aeinf).ok,
    ]
    verdict(6, all(oks), f"five structural scans, zero violations {oks}")


def test_criterion_7_brackets(adams_run, groups):
    _, einf = adams_run
    rep = BR.table5_report(einf, groups)
    ex = BR.render(BR.decompose(3, 10), unicode=False) == "<2^8, lambda7, P^8lambda3>"
    ob = BR.chow_obstruction_check().ok
    verdict(7, rep.ok and ex and ob, "generator table rows, worked example, obstruction")


def test_criterion_8_chart_round_trip(adams_run):
    pages, einf = adams_run
    e3 = pages[1]

    def towers_of(page):
        out = set()
        for mw, fam, lo, hi, truncated in page.window_towers():
            if mw > MW:
                continue
            c0 = family_c0(fam)
            top = None if truncated else c0 + hi - 1
            out.add((mw, c0 + lo, top, str(family_monomial(fam, lo))))
        return out

    def fixture_towers(rows):
        return {
            (r["mw"], r["c_min"], r.get("c_max"), r["label"]) for r in rows
        }

    def dots_from(doc, cap=63):
        return {
            (c["mw"], c["c"]) for c in doc["classes"] if c["c"] <= cap and c["mw"] <= MW
        }

    def fixture_dots(rows, cap=63):
        dots = set()
        for r in rows:
            hi = cap if r.get("infinite") else min(r["c_max"], cap)
            dots.update((r["mw"], c) for c in range(r["c_min"], hi + 1))
        return dots

    from etass.charts import render

    ok = True
    for page, key in ((e3, "e3"), (einf, "einf")):
        doc = json.loads(render(page, "json"))
        ok = ok and towers_of(page) == fixture_towers(FIXTURE[key])
        ok = ok and dots_from(doc) == fixture_dots(FIXTURE[key])
    verdict(8, ok, "page-3 and stable charts reproduce the published dot sets")


def test_criterion_9_determinism_and_scale(capsys):
    t0 = time.time()
    code = cli_main(["verify", "all", "--max-mw", "64"])
    t64 = time.time() - t0
    capsys.readouterr()

    t0 = time.time()
    bp, beinf = B.run_bockstein(256, verify="sample")
    ok1 = B.compare_pages(beinf, B.closed_form_einfty(256, beinf.columns), "s1").ok
    ap, aeinf = A.run_adams(256, verify="sample")
    e3 = ap[1]
    ok2 = B.compare_pages(e3, A.closed_form_e3(256, e3.columns), "s2").ok
    ok3 = B.compare_pages(aeinf, A.closed_form_einfty(256, aeinf.columns), "s3").ok
    g = H.extract_groups(aeinf)
    ok4 = H.groups_vs_order_formula(g).ok
    t256 = time.time() - t0
    ok = code == 0 and t64 < 30.0 and all((ok1, ok2, ok3, ok4)) and t256 < 300.0
    verdict(
        9,
        ok,
        f"verify all at 64 exits 0 in {t64:.1f}s (<30s); window 256 "
        f"criteria 1-4 hold in {t256:.1f}s (<300s)",
    )
