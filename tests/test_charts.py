import json
from pathlib import Path

import pytest

from etass.adams import compute_e3, run_adams
from etass.bockstein import Column, Page, build_e1, run_bockstein
from etass.charts import UnsupportedFormat, render

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "figure_dots.json").read_text()
)


def fixture_dots(rows, c_cap=63):
    dots = set()
    for row in rows:
        hi = c_cap if row.get("infinite") else row["c_max"]
        for c in range(row["c_min"], min(hi, c_cap) + 1):
            dots.add((row["mw"], c))
    return dots


def page_dots(page, mw_cap=64, c_cap=63):
    return {
        (mw, c)
        for mw, c, _ in page.classes()
        if mw <= mw_cap and c <= c_cap
    }


def fixture_towers(rows):
    return sorted(
        (r["mw"], r["c_min"], r.get("c_max"), bool(r.get("infinite")), r["label"])
        for r in rows
    )


def page_towers(page, mw_cap=64):
    out = []
    for t in page.towers():
        if t.mw > mw_cap:
            continue
        deg = t.generator.bidegree
        out.append(
            (
                deg.mw,
                deg.c,
                None if t.truncated else deg.c + t.length - 1,
                t.truncated,
                str(t.generator),
            )
        )
    return sorted(out)


@pytest.fixture(scope="module")
def einf64():
    _, einf = run_adams(64, verify="off")
    return einf


@pytest.fixture(scope="module")
def e3_64():
    return compute_e3(64)


def test_e3_matches_figure(e3_64):
    assert page_towers(e3_64) == fixture_towers(FIXTURE["e3"])
    assert page_dots(e3_64) == fixture_dots(FIXTURE["e3"])


def test_einf_matches_figure(einf64):
    assert page_towers(einf64) == fixture_towers(FIXTURE["einf"])
    assert page_dots(einf64) == fixture_dots(FIXTURE["einf"])


def test_json_round_trip(einf64):
    doc = json.loads(render(einf64, "json"))
    dumped = {(cl["mw"], cl["c"], cl["label"]) for cl in doc["classes"]}
    direct = {(mw, c, str(fam.times_rho(b))) for mw, c, (fam, b) in einf64.classes()}
    assert dumped == direct
    assert len(doc["classes"]) == sum(1 for _ in einf64.classes())


def test_svg_output(einf64):
    doc = render(einf64, "svg", mw_hi=32)
    assert doc.startswith("<?xml")
    assert "<svg" in doc and "</svg>" in doc
    assert doc.count("<circle") >= 40
    assert "ρ^10v4" in doc  # chart-convention label
    assert "Milnor-Witt" in doc


def test_svg_differentials_drawn(e3_64):
    pages, _ = run_adams(64, verify="off")
    e3_with_rule = pages[1]
    doc = render(e3_with_rule, "svg", mw_hi=16)
    # the page-3 arrows out of the 15-column
    assert doc.count("<line") > 10


def test_ascii_output(einf64):
    doc = render(einf64, "ascii", mw_hi=16)
    assert "o" in doc
    assert "mw=15 c=11..15 len=5 rho^10 v4" in doc


def test_empty_page_renders_grid_only():
    empty = Page(
        kind="adams",
        label="empty",
        r=0,
        max_mw=8,
        c_max=10,
        c_internal=10,
        columns={mw: Column([]) for mw in range(9)},
        alive={mw: {} for mw in range(9)},
        zero={mw: {} for mw in range(9)},
    )
    doc = render(empty, "svg")
    assert "<circle" not in doc
    assert "<svg" in doc
    ascii_doc = render(empty, "ascii")
    assert "o" not in ascii_doc.split("\n")[1]


def test_unsupported_format(einf64):
    with pytest.raises(UnsupportedFormat):
        render(einf64, "png")


def test_e1_chart_truncated_towers_marked():
    e1 = build_e1(8)
    doc = render(e1, "ascii", mw_hi=8, c_hi=12)
    assert "(boundary)" in doc


def test_bockstein_einf_chart():
    _, einf = run_bockstein(16, verify="off")
    doc = json.loads(render(einf, "json"))
    assert doc["kind"] == "bockstein"
    assert {t["generator_label"] for t in doc["towers"]} >= {"1", "v2", "v3"}
