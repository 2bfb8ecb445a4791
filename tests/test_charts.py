import importlib.util
import json
import sys
from pathlib import Path

import pytest

from etass.adams import run_adams
from etass.algebra import family_monomial
from etass.bockstein import Column, Page, build_e1, run_bockstein
from etass.charts import UnsupportedFormat, render
from etass.cli import Session

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
        for mw, _ in page.window_columns()
        for c, _ in page.column_classes(mw)
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
def adams64():
    return run_adams(64, verify="off")


@pytest.fixture(scope="module")
def einf64(adams64):
    _, einf = adams64
    return einf


@pytest.fixture(scope="module")
def e3_64(adams64):
    pages, _ = adams64
    return pages[1]


def test_e3_matches_figure(e3_64):
    assert page_towers(e3_64) == fixture_towers(FIXTURE["e3"])
    assert page_dots(e3_64) == fixture_dots(FIXTURE["e3"])


def test_einf_matches_figure(einf64):
    assert page_towers(einf64) == fixture_towers(FIXTURE["einf"])
    assert page_dots(einf64) == fixture_dots(FIXTURE["einf"])


def test_json_round_trip(einf64):
    doc = json.loads(render(einf64, "json"))
    dumped = {(cl["mw"], cl["c"], cl["label"]) for cl in doc["classes"]}
    direct = [
        (mw, c, str(family_monomial(column[pos][0], c - column[pos][1])))
        for mw, column in einf64.window_columns()
        for c, positions in einf64.column_classes(mw)
        for pos in positions
    ]
    assert dumped == set(direct)
    assert len(doc["classes"]) == len(direct)


def test_svg_output(einf64):
    doc = render(einf64, "svg", mw_hi=32)
    assert doc.startswith("<?xml")
    assert "<svg" in doc and "</svg>" in doc
    assert doc.count("<circle") >= 40
    assert "ρ^10v4" in doc  # chart-convention label
    assert "Milnor-Witt" in doc


def test_svg_differentials_drawn(e3_64):
    doc = render(e3_64, "svg", mw_hi=16)
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


def test_make_charts_script_renders_page_3(tmp_path, monkeypatch):
    """scripts/make_charts.py charts the session's page 3 as e3, also
    below mw 14, where run_adams has no rule page and page 2 is its
    first page."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_charts.py"
    spec = importlib.util.spec_from_file_location("make_charts", path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", [*sys.path])  # the script prepends src/
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["make_charts.py", "--max-mw", "8", "--out", str(tmp_path)])
    assert script.main() == 0
    got = (tmp_path / "e3.txt").read_text(encoding="utf-8")
    assert got == render(Session(8).e3(), "ascii", mw_hi=8)
