import io
import json

import pytest

from etass import bockstein
from etass.charts import write_page_dump
from etass.cli import build_parser, main
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
    real = bockstein._Replay.bidegree
    monkeypatch.setattr(
        bockstein._Replay, "bidegree", lambda self, mw, c: calls.append((mw, c)) or real(self, mw, c)
    )
    argv = [a.format(out=tmp_path / "chart") for a in argv] + ["--max-mw", "16"]
    code, _ = run_cli(argv + ["--page-verify", "off"], capsys)
    assert code == 0
    assert calls == []  # no page transition was replayed
    code, _ = run_cli(argv + ["--page-verify", "all"], capsys)
    assert code == 0
    assert calls
