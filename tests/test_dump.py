import io
import json
from dataclasses import replace

import pytest

from dump_reference import image_classes, reference_differentials, reference_page_dump
from etass.adams import run_adams
from etass.algebra import family_monomial
from etass.bockstein import EMPTY, EngineError, run_bockstein, runs_subtract, runs_union
from etass.charts import write_page_dump
from etass.cli import main


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


def expand_runs(runs):
    """The differential runs class by class: {source: image classes}."""
    return {
        family_monomial(fam, b): [family_monomial(tfam, b + delta) for tfam, delta in targets]
        for fam, lo, hi, targets in runs
        for b in range(lo, hi)
    }


@pytest.mark.parametrize("run", [run_bockstein, run_adams])
def test_differentials_match_image_classes(run):
    pages, einf = run(32, verify="off")
    for page in [*pages, einf]:
        diffs = page.differentials()
        got = expand_runs(diffs)
        assert len(got) == sum(hi - lo for _, lo, hi, _ in diffs), page.label
        assert got == image_class_expansion(page), page.label
        assert page.differentials() is diffs  # computed once per page


@pytest.mark.parametrize("run", [run_bockstein, run_adams])
def test_differential_runs_are_maximal_and_disjoint(run):
    """No two runs of one family overlap, and none with the same
    targets touch; the runs hold as many classes as the class-by-class
    reference has nonzero differentials."""
    pages, einf = run(64, verify="off")
    for page in [*pages, einf]:
        diffs = page.differentials()
        by_family: dict[int, list] = {}
        for fam, lo, hi, targets in diffs:
            assert lo < hi and targets, page.label
            by_family.setdefault(fam, []).append((lo, hi, targets))
        for fam, runs in by_family.items():
            runs.sort(key=lambda run: run[0])
            for (_, hi, targets), (lo, _, next_targets) in zip(runs, runs[1:]):
                assert hi <= lo, (page.label, family_monomial(fam))
                assert hi < lo or targets != next_targets, (page.label, family_monomial(fam))
        count = sum(hi - lo for _, lo, hi, _ in diffs)
        assert count == len(reference_differentials(page)), page.label


def test_differential_runs_cut_where_any_target_changes():
    """When the last target tower of a multi-term image loses a class
    inside the source run (it becomes a zero class), the run is cut
    there, and the runs still expand to the class-by-class images."""
    e2 = run_adams(24, verify="off")[0][0]
    fam, lo, hi, targets = next(
        run for run in e2.differentials() if len(run[3]) > 1 and run[2] - run[1] > 2
    )
    tfam, delta = targets[-1]
    tmw = family_monomial(tfam).bidegree.mw
    hole = ((lo + 1 + delta, lo + 2 + delta),)
    alive = {**e2.alive[tmw], tfam: runs_subtract(e2.alive[tmw][tfam], hole)}
    zero = {**e2.zero[tmw], tfam: runs_union(e2.zero[tmw].get(tfam, EMPTY), hole)}
    mutant = replace(e2, alive={**e2.alive, tmw: alive}, zero={**e2.zero, tmw: zero})
    runs = [run for run in mutant.differentials() if run[0] == fam and lo <= run[1] < hi]
    assert [(a, b, len(t)) for _, a, b, t in runs] == [
        (lo, lo + 1, len(targets)),
        (lo + 1, lo + 2, len(targets) - 1),
        (lo + 2, hi, len(targets)),
    ]
    assert expand_runs(mutant.differentials()) == image_class_expansion(mutant)


def drop_target_run(page):
    """A copy of the page whose first differential's target class lies
    in no alive run and no zero run."""
    _, b, _, targets = page.differentials()[0]
    tfam, delta = targets[0]
    target, tb = family_monomial(tfam), b + delta
    tmw = target.bidegree.mw
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
