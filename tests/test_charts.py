import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from etass.adams import run_adams
from etass.algebra import MW_LIMIT, family_c0, family_monomial
from etass.bockstein import Column, Page, build_e1, run_bockstein
from etass.charts import UnsupportedFormat, render
from etass.cli import Session, chart_page

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
        for mw, _, classes in page.window_classes()
        for c, _ in classes
        if mw <= mw_cap and c <= c_cap
    }


def fixture_towers(rows):
    return sorted(
        (r["mw"], r["c_min"], r.get("c_max"), bool(r.get("infinite")), r["label"])
        for r in rows
    )


def page_towers(page, mw_cap=64):
    out = []
    for mw, fam, lo, hi, truncated in page.window_towers():
        if mw > mw_cap:
            continue
        c0 = family_c0(fam)
        out.append(
            (
                mw,
                c0 + lo,
                None if truncated else c0 + hi - 1,
                truncated,
                str(family_monomial(fam, lo)),
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
        for mw, column, classes in einf64.window_classes()
        for c, positions in classes
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
    doc = render(e1, "ascii", mw_hi=8)
    assert "(boundary)" in doc


def test_bockstein_einf_chart():
    _, einf = run_bockstein(16, verify="off")
    doc = json.loads(render(einf, "json"))
    assert doc["kind"] == "bockstein"
    assert {t["generator_label"] for t in doc["towers"]} >= {"1", "v2", "v3"}


def make_charts_script(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_charts.py"
    spec = importlib.util.spec_from_file_location("make_charts", path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", [*sys.path])  # the script prepends src/
    spec.loader.exec_module(script)
    return script


def test_make_charts_script_renders_page_3(tmp_path, monkeypatch):
    """scripts/make_charts.py charts the session's page 3 as e3, also
    below mw 14, where run_adams has no rule page and page 2 is its
    first page."""
    script = make_charts_script(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["make_charts.py", "--max-mw", "8", "--out", str(tmp_path)])
    assert script.main() == 0
    got = (tmp_path / "e3.txt").read_text(encoding="utf-8")
    assert got == render(Session(8).e3(), "ascii", mw_hi=8)


@pytest.mark.parametrize(
    "argv",
    [["--max-mw", "-1"], ["--max-mw", str(MW_LIMIT + 1)], ["--mw-window", "-1"]],
)
def test_make_charts_script_rejects_bad_windows(tmp_path, monkeypatch, capsys, argv):
    """A window outside 0..MW_LIMIT exits 2 before anything is written."""
    script = make_charts_script(monkeypatch)
    out = tmp_path / "charts"
    monkeypatch.setattr(sys, "argv", ["make_charts.py", *argv, "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        script.main()
    assert exc.value.code == 2
    assert "the window must be" in capsys.readouterr().err
    assert not out.exists()


def test_make_charts_script_mw_window_zero(tmp_path, monkeypatch):
    """--mw-window 0 clips the charts to column 0; it is not taken as
    unset."""
    script = make_charts_script(monkeypatch)
    argv = ["make_charts.py", "--max-mw", "8", "--mw-window", "0", "--out", str(tmp_path)]
    monkeypatch.setattr(sys, "argv", argv)
    assert script.main() == 0
    got = (tmp_path / "einf.txt").read_text(encoding="utf-8")
    assert got == render(Session(8).adams()[1], "ascii", mw_hi=0)


# sha256 of render(chart_page(Session(32), page), fmt), so that a change
# of one byte in any chart or dump at mw 32 fails here
CHART_DIGESTS_32 = {
    ("e1", "svg"): "5c4d4ef9af6f05ae94143e482ac68da265bc6c454ae23fd407d3017dbc92c24b",
    ("e1", "ascii"): "9831ed48b5b5649c543700c1e3bbbe67753e255cf8ac1cbbba9d39ce6b3f10a5",
    ("e1", "json"): "6f284b511f1365014cdc04b983af009fb1d978602cdec34f64779e8dc86600da",
    ("bockstein-einf", "svg"): "aff908a245946b9b9bbf9a66793cfeab8fd259ee7cf73272a0a57ec1f47c33a3",
    ("bockstein-einf", "ascii"): "089c5187a019c50f0c1fde1c114f564a598bf3942c05d8f52686473c9be9b5d2",
    ("bockstein-einf", "json"): "05158b94aa00a6f881ce531c18d241447664fd244d274ded8df124f679ba214b",
    ("e3", "svg"): "8b1d7457082bf83b22471e69d93a1422a6e36d8f059eca0c8da6f726da433523",
    ("e3", "ascii"): "87629ae50ddc2908095f6b7fcc53e6ac4be392ad4680bf705e4bfc62bf02c521",
    ("e3", "json"): "b8f540ddd17b39477a43087e6eb27773eceff83686a6627883dcec2ecf6faaed",
    ("einf", "svg"): "06dd83b052fe68c9449ecc0361e53666828da08aae2b8ec65f12847c13815d63",
    ("einf", "ascii"): "15f6270d1096420830e9633b9621ebf0c73a7fcab7fc1fb1742dec7204f72ace",
    ("einf", "json"): "2896857e26043a9be3fd3de3724c943bf3521b9e60f0fbb738bc6aab53f7b550",
}


def test_chart_bytes_are_pinned():
    session = Session(32)
    got = {}
    for name in ("e1", "bockstein-einf", "e3", "einf"):
        page = chart_page(session, name)
        for fmt in ("svg", "ascii", "json"):
            got[name, fmt] = hashlib.sha256(render(page, fmt).encode("utf-8")).hexdigest()
    assert got == CHART_DIGESTS_32
