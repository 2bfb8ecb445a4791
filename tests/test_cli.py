import hashlib
import io
import json

import pytest

from etass import adams, bockstein, charts, cli
from etass.charts import write_page_dump
from etass.cli import VERIFY_SUITES, Session, build_parser, main
from etass.algebra import MW_LIMIT
from etass.bockstein import enumerate_families, run_bockstein


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_groups_output(capsys):
    code, out = run_cli(["groups", "--max-mw", "64"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 17
    assert "mw=63 Z/2^7 gen=lambda6" in lines
    assert lines[0] == "mw=0 Z2[eta^+-1] gen=1"


def test_brackets_single(capsys):
    code, out = run_cli(["brackets", "--mw", "47"], capsys)
    assert code == 0
    assert out.strip() == "⟨2^6, λ5, λ4⟩"


def test_brackets_all_json(capsys):
    code, out = run_cli(["brackets", "--all", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["mw"] == 3
    assert any(row["mw"] == 47 for row in payload)


def exit_code(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_brackets_requires_argument(capsys):
    assert exit_code(["brackets"]) == 2
    assert exit_code(["brackets", "--nested"]) == 2


def test_bad_stem_rejected(capsys):
    for mw in ["4", "5", "12", "-1", "x"]:
        assert exit_code(["brackets", "--mw", mw]) == 2, mw


def test_brackets_conflicting_arguments_exit_2(capsys):
    assert exit_code(["brackets", "--mw", "3", "--all"]) == 2
    assert exit_code(["brackets", "--all", "--max-mw", "-1"]) == 2


def test_brackets_all_default_window(capsys):
    code, out = run_cli(["brackets", "--all"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert [line.split(":")[0] for line in lines] == [f"mw={mw}" for mw in range(3, 64, 4)]
    assert lines[0] == "mw=3: λ2"
    assert "mw=47: ⟨2^6, λ5, λ4⟩" in lines


def test_brackets_all_honours_window(capsys):
    code, out = run_cli(["brackets", "--all", "--max-mw", "16"], capsys)
    assert code == 0
    assert [line.split(":")[0] for line in out.strip().split("\n")] == [
        "mw=3",
        "mw=7",
        "mw=11",
        "mw=15",
    ]


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["chart", "--page", "nope", "--format", "svg", "--out", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2


def test_verify_subset_exit_zero(capsys):
    code, out = run_cli(["verify", "groups", "--max-mw", "16"], capsys)
    assert code == 0
    assert "[PASS] groups" in out


def test_verify_json_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _ = run_cli(
        ["verify", "brackets", "--max-mw", "16", "--json", str(report)], capsys
    )
    assert code == 0
    data = json.loads(report.read_text())
    assert all(set(item) == {"check", "instance", "pass", "detail"} for item in data)


@pytest.mark.parametrize(
    "mw, items, digest",
    [
        (13, 74, "228f19c700bcf49c94039cd82a9e2484c9aded7df3ff22015ceea4fe77df0ede"),
        (64, 714, "fc2fcb8e42180ae8b51000cd89375a63e2bd3c8b5c10f7f60656481232d02631"),
    ],
)
def test_verify_report_is_pinned(mw, items, digest, tmp_path, capsys):
    """The whole `verify all --json` report at mw 13 and 64, byte for
    byte: every item keeps its check, instance, verdict and detail, and
    the items their order."""
    report = tmp_path / "report.json"
    code, _ = run_cli(["verify", "all", "--max-mw", str(mw), "--json", str(report)], capsys)
    assert code == 0
    assert len(json.loads(report.read_text())) == items
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


def test_chart_command(tmp_path, capsys):
    out_file = tmp_path / "chart.svg"
    code, _ = run_cli(
        [
            "chart",
            "--page",
            "einf",
            "--format",
            "svg",
            "--out",
            str(out_file),
            "--max-mw",
            "16",
        ],
        capsys,
    )
    assert code == 0
    assert out_file.read_text().startswith("<?xml")


def test_verify_json_and_chart_create_missing_directories(tmp_path, capsys):
    """verify --json and chart --out create a missing parent directory,
    as --dump-pages does, instead of failing after the run."""
    report = tmp_path / "missing" / "nested" / "r.json"
    code, _ = run_cli(["verify", "groups", "--max-mw", "8", "--json", str(report)], capsys)
    assert code == 0
    assert json.loads(report.read_text(encoding="utf-8"))
    chart = tmp_path / "absent" / "nested" / "c.svg"
    argv = ["chart", "--page", "e1", "--format", "svg", "--max-mw", "8", "--out", str(chart)]
    code, _ = run_cli(argv, capsys)
    assert code == 0
    page = cli.chart_page(Session(8), "e1")
    assert chart.read_text(encoding="utf-8") == charts.render(page, "svg")


def test_bockstein_command_with_dump(tmp_path, capsys):
    code, out = run_cli(
        ["bockstein", "--max-mw", "8", "--dump-pages", str(tmp_path)], capsys
    )
    assert code == 0
    dumped = sorted(p.name for p in tmp_path.glob("*.json"))
    assert "bockstein-E3.json" in dumped
    assert "bockstein-Einf.json" in dumped
    doc = json.loads((tmp_path / "bockstein-E3.json").read_text())
    assert set(doc) == {
        "page",
        "kind",
        "max_mw",
        "classes",
        "differentials",
        "towers",
    }
    assert doc["page"] == 3
    assert doc["kind"] == "bockstein"
    cls = doc["classes"][0]
    assert set(cls) == {"mw", "c", "label", "rho_exp", "p_exp", "v_exps"}
    assert all(set(d) == {"r", "source_label", "target_labels"} for d in doc["differentials"])
    for t in doc["towers"]:
        assert "generator_label" in t
        assert ("length" in t) != ("infinite" in t)


def test_adams_command(tmp_path, capsys):
    code, out = run_cli(
        ["adams", "--max-mw", "16", "--dump-pages", str(tmp_path)], capsys
    )
    assert code == 0
    assert (tmp_path / "adams-E2.json").exists()
    assert (tmp_path / "adams-Einf.json").exists()


@pytest.mark.parametrize(
    "command, expected",
    [
        (
            "bockstein",
            "bockstein-E3: 3710 differentials\n"
            "bockstein-E7: 478 differentials\n"
            "bockstein-E15: 113 differentials\n"
            "bockstein-E31: 41 differentials\n"
            "bockstein-Einf: 78 torsion towers, mw <= 32\n",
        ),
        (
            "adams",
            "adams-E2: 141 differentials\n"
            "adams-E3: 10 differentials\n"
            "adams-E4: 3 differentials\n"
            "adams-Einf: 8 torsion towers, mw <= 32\n",
        ),
    ],
)
def test_sequence_stdout_is_pinned(command, expected, capsys):
    code, out = run_cli([command, "--max-mw", "32", "--page-verify", "off"], capsys)
    assert code == 0
    assert out == expected


def test_dump_deterministic():
    texts = []
    for _ in range(2):
        _, einf = run_bockstein(10, verify="off")
        buf = io.StringIO()
        write_page_dump(einf, buf)
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


@pytest.mark.parametrize("mw", range(9))
def test_verify_all_small_windows(mw, capsys):
    code, out = run_cli(["verify", "all", "--max-mw", str(mw)], capsys)
    assert code == 0, out


@pytest.mark.parametrize("command", ["bockstein", "adams", "groups", "verify"])
def test_negative_window_exit_2(command):
    argv = [command, "--max-mw", "-1"]
    if command == "verify":
        argv.insert(1, "all")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["bockstein", "adams", "groups", "verify"])
def test_window_beyond_packing_exit_2(command):
    """Windows whose families do not fit the packed-int fields are
    rejected before any work starts."""
    argv = [command, "--max-mw", str(MW_LIMIT + 1)]
    if command == "verify":
        argv.insert(1, "all")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    with pytest.raises(ValueError):
        enumerate_families(MW_LIMIT + 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["chart", "--page", "einf", "--format", "json", "--out", "{out}"],
        ["chart", "--page", "bockstein-einf", "--format", "ascii", "--out", "{out}"],
        ["groups"],
    ],
)
def test_page_verify_reaches_chart_and_groups(argv, tmp_path, monkeypatch, capsys):
    calls = []
    real = bockstein._class_replay
    monkeypatch.setattr(
        bockstein, "_class_replay", lambda page, *claims: calls.append(page.label) or real(page, *claims)
    )
    argv = [a.format(out=tmp_path / "chart") for a in argv] + ["--max-mw", "16"]
    code, _ = run_cli(argv + ["--page-verify", "off"], capsys)
    assert code == 0
    assert calls == []  # no page transition was replayed
    code, _ = run_cli(argv + ["--page-verify", "all"], capsys)
    assert code == 0
    assert calls


def column_hashes(pages) -> dict[tuple[str, str, int], str]:
    return {
        (page.label, name, mw): hashlib.sha256(repr(sorted(per.items())).encode()).hexdigest()
        for page in pages
        for name, table in (("alive", page.alive), ("zero", page.zero))
        for mw, per in table.items()
    }


def test_nothing_writes_into_shared_columns(tmp_path, monkeypatch, capsys):
    """Pages share the columns a transition leaves unchanged, so a write
    into one would reach several pages.  Every verify suite, both
    --dump-pages commands and the three chart formats, run on one
    Session's pages at mw 32, leave every column of both sequences as
    it was."""
    s = Session(32)
    bock, adams_run = s.bockstein(), s.adams()
    pages = [*bock[0], bock[1], *adams_run[0], adams_run[1]]
    before = column_hashes(pages)
    for suite in VERIFY_SUITES.values():
        assert suite(s).ok
    reused = []
    monkeypatch.setattr(bockstein, "run_bockstein", lambda mw, verify: reused.append(mw) or bock)
    monkeypatch.setattr(adams, "run_adams", lambda mw, verify: reused.append(mw) or adams_run)
    monkeypatch.setattr(cli, "Session", lambda mw, verify: reused.append(mw) or s)
    for command in ("bockstein", "adams"):
        assert main([command, "--max-mw", "32", "--dump-pages", str(tmp_path / command)]) == 0
    for page in ("e3", "einf", "bockstein-einf"):
        for fmt in ("svg", "ascii", "json"):
            out = str(tmp_path / f"{page}.{fmt}")
            argv = ["chart", "--page", page, "--format", fmt, "--out", out, "--max-mw", "32"]
            assert main(argv) == 0
    assert reused == [32] * 11
    assert column_hashes(pages) == before
