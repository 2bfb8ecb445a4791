import io
import json
from dataclasses import replace

import pytest

from dump_reference import image_classes, reference_page_dump
from etass.adams import run_adams
from etass.algebra import family_of
from etass.bockstein import EngineError, run_bockstein
from etass.cli import main, write_page_dump


def dump_text(page) -> str:
    buf = io.StringIO()
    write_page_dump(page, buf)
    return buf.getvalue()


def all_pages(mw):
    out = []
    for run in (run_bockstein, run_adams):
        pages, einf = run(mw, verify="off")
        out += [*pages, einf]
    return out


@pytest.mark.parametrize("mw", [0, 2, 8, 16, 32])
def test_streamed_dump_matches_reference(mw):
    texts = []
    for page in all_pages(mw):
        text = dump_text(page)
        assert text == json.dumps(reference_page_dump(page), indent=2), page.label
        texts.append(text)
    # the window reaches the schema's empty and boolean forms
    joined = "".join(texts)
    for marker in ('"differentials": []', '"v_exps": {}', '"infinite": true'):
        assert marker in joined


def test_cli_dump_files_match_reference(tmp_path, capsys):
    for command in ("bockstein", "adams"):
        code = main([command, "--max-mw", "8", "--page-verify", "off", "--dump-pages", str(tmp_path)])
        assert code == 0
    capsys.readouterr()
    pages = all_pages(8)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{p.label}.json" for p in pages)
    for page in pages:
        text = (tmp_path / f"{page.label}.json").read_text(encoding="utf-8")
        assert text == json.dumps(reference_page_dump(page), indent=2), page.label


def image_class_expansion(page):
    out = {}
    for mw in sorted(page.alive):
        if mw > page.max_mw:
            continue
        for c in range(page.c_max + 1):
            for m in page.basis_at(mw, c):
                img = image_classes(page, m)
                if img:
                    out[m] = img
    return out


@pytest.mark.parametrize("run", [run_bockstein, run_adams])
def test_differentials_match_image_classes(run):
    pages, einf = run(32, verify="off")
    for page in [*pages, einf]:
        diffs = page.differentials()
        got = {
            fam.times_rho(b): [tfam.times_rho(tb) for tfam, tb in targets]
            for (fam, b), targets in diffs
        }
        assert len(got) == len(diffs), page.label
        assert got == image_class_expansion(page), page.label
        assert page.differentials() is diffs  # computed once per page


def drop_target_run(page):
    """A copy of the page whose first differential's target class lies
    in no alive run and no zero run."""
    _, targets = page.differentials()[0]
    target, tb = targets[0]
    tmw, tfam = target.bidegree.mw, family_of(target)
    column = dict(page.alive[tmw])
    kept = tuple((lo, hi) for lo, hi in column[tfam] if not lo <= tb < hi)
    if kept:
        column[tfam] = kept
    else:
        del column[tfam]
    assert page.status(target.times_rho(tb)) == "alive"
    return replace(page, alive={**page.alive, tmw: column})


@pytest.mark.parametrize(
    "page",
    [
        pytest.param(lambda: run_bockstein(16, verify="off")[0][0], id="bockstein-E3"),
        pytest.param(lambda: run_adams(16, verify="off")[0][1], id="adams-E3"),
    ],
)
def test_dump_rejects_image_term_neither_alive_nor_hit(page):
    page = page()
    dump_text(page)
    mutant = drop_target_run(page)
    with pytest.raises(EngineError, match="neither alive nor hit"):
        dump_text(mutant)


def test_dump_rejects_basis_disagreeing_with_runs(monkeypatch):
    pages, _ = run_bockstein(16, verify="off")
    page = replace(pages[0])
    real = page.positions_at
    monkeypatch.setattr(page, "positions_at", lambda mw, c: real(mw, c)[1:])
    with pytest.raises(EngineError, match="disagrees with the alive runs"):
        dump_text(page)
