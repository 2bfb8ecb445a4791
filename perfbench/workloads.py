"""The three workloads: what one solve runs and how its output is checked.

A solve runs in a fresh child process (see solve.py).  Each workload
function takes the seed, a work directory and a span factory, runs the
solve through etass's public entry points, and returns its checks as
(name, passed) pairs.  Module attributes are looked up at call time, so
the tracer's wrappers see every call.  Nothing here imports etass at
module level: the parent process imports this file only for the output
checks.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

HERE = Path(__file__).resolve().parent

VERIFY_MW = 64
SCALE_MW = 112
DUMP_MW = 64
# the pages dump64 renders, and the file suffix of each chart format
CHART_PAGES = ("adams-E3", "adams-Einf", "bockstein-Einf")
CHART_FORMATS = (("svg", "svg"), ("ascii", "txt"), ("json", "json"))
DIGESTS = HERE / "dump64.sha256"


def verify64(seed: int, workdir: Path, span) -> list[tuple[str, bool]]:
    """`etass verify all --max-mw 64` with a seed: one Session, every
    suite in cli.VERIFY_SUITES."""
    from etass import cli

    session = cli.Session(VERIFY_MW, verify="auto", seed=seed)
    checks = []
    for name, suite in cli.VERIFY_SUITES.items():
        with span(f"perfbench.suite.{name}"):
            report = suite(session)
        checks += [(f"{name}: {i.check} [{i.instance}]", i.passed) for i in report.items]
    if not checks:
        checks.append(("verify suites report no items", False))
    return checks


def scale(seed: int, workdir: Path, span) -> list[tuple[str, bool]]:
    """The large leg of acceptance criterion 9 at a smaller window: both
    sequences with sampled replay, then the three closed-form page
    comparisons and the group-order formula."""
    from etass import adams, bockstein, homotopy

    mw = SCALE_MW
    _, b_einf = bockstein.run_bockstein(mw, verify="sample", seed=seed)
    pages, a_einf = adams.run_adams(mw, verify="sample", seed=seed)
    e3 = pages[1]
    return [
        (
            "bockstein E-infinity = closed form",
            bockstein.compare_pages(
                b_einf, bockstein.closed_form_einfty(mw, b_einf.columns), "bockstein-einfty"
            ).ok,
        ),
        (
            "adams E3 = closed form",
            bockstein.compare_pages(e3, adams.closed_form_e3(mw, e3.columns), "adams-e3").ok,
        ),
        (
            "adams E-infinity = closed form",
            bockstein.compare_pages(
                a_einf, adams.closed_form_einfty(mw, a_einf.columns), "adams-einfty"
            ).ok,
        ),
        (
            "groups = order formula",
            homotopy.groups_vs_order_formula(homotopy.extract_groups(a_einf)).ok,
        ),
    ]


def dump64(seed: int, workdir: Path, span) -> list[tuple[str, bool]]:
    """Page dumps of both sequences through the CLI with page replay off,
    then svg/ascii/json charts of three stable pages.  The seed has no
    input here: the CLI takes none, and nothing is sampled.  The files
    are checked against recorded digests by check_dump, in the parent."""
    from etass import charts, cli

    # keep the pages the CLI builds, so the charts reuse them
    pages = {}
    dump_pages = cli._dump_pages

    def keep(run_pages, einf, directory):
        for page in list(run_pages) + [einf]:
            pages[page.label] = page
        return dump_pages(run_pages, einf, directory)

    cli._dump_pages = keep
    common = ["--max-mw", str(DUMP_MW), "--page-verify", "off", "--dump-pages", str(workdir)]
    codes = [cli.main(["bockstein", *common]), cli.main(["adams", *common])]
    for label in CHART_PAGES:
        for fmt, suffix in CHART_FORMATS:
            doc = charts.render(pages[label], fmt)
            (workdir / f"chart-{label}.{suffix}").write_text(doc, encoding="utf-8")
    return [("etass bockstein/adams exit 0", codes == [0, 0])]


WORKLOADS = {
    f"verify{VERIFY_MW}": verify64,
    f"scale{SCALE_MW}": scale,
    f"dump{DUMP_MW}": dump64,
}


def sha256_files(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def recorded_digests() -> dict[str, str]:
    out = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        digest, name = line.split()
        out[name] = digest
    return out


def check_dump(workdir: Path) -> list[tuple[str, bool]]:
    """Every file dump64 must write, byte-identical to the recorded
    output; no file missing and none extra."""
    want = recorded_digests()
    got = sha256_files(workdir) if workdir.is_dir() else {}
    checks = [(f"sha256 {name}", got.get(name) == digest) for name, digest in want.items()]
    checks += [(f"unexpected file {name}", False) for name in got if name not in want]
    return checks


# checks the parent makes on a solve's work directory after the child exits
OUTPUT_CHECKS = {f"dump{DUMP_MW}": check_dump}

# bidegrees replayed through gf2 per solve where the replay is dense, so
# the count is exact and must not drop (measured at commit b02dc0c)
MIN_VERIFIED = {f"verify{VERIFY_MW}": 21848}
