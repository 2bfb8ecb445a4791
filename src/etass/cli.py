"""Command-line driver.

Runs are deterministic, so identical invocations produce byte-identical
output; page dumps use the fixed schema of charts.write_page_dump.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import adams as adams_mod
from . import bockstein as bock_mod
from . import brackets as bracket_mod
from . import charts as charts_mod
from . import ext as ext_mod
from . import homotopy as homotopy_mod
from .algebra import MW_LIMIT, two_adic_valuation
from .report import Report

DEFAULT_MW = 64


class Session:
    """Caches the expensive runs so 'verify all' computes each once."""

    def __init__(self, mw_max: int, verify: str = "auto", seed: int = 0):
        self.mw_max = mw_max
        self.verify = verify
        self.seed = seed
        self._bockstein = None
        self._adams = None
        self._e3 = None
        self._groups = None

    def bockstein(self):
        if self._bockstein is None:
            self._bockstein = bock_mod.run_bockstein(
                self.mw_max, verify=self.verify, seed=self.seed
            )
        return self._bockstein

    def adams(self):
        if self._adams is None:
            self._adams = adams_mod.run_adams(
                self.mw_max, verify=self.verify, seed=self.seed
            )
        return self._adams

    def e3(self):
        """Page 3 of the Adams run; below mw 14 no rule page fits, and
        the stable page is page 3."""
        if self._e3 is None:
            pages, einf = self.adams()
            self._e3 = pages[1] if len(pages) > 1 else replace(einf, label="adams-E3")
        return self._e3

    def groups(self):
        if self._groups is None:
            _, einf = self.adams()
            self._groups = homotopy_mod.extract_groups(einf)
        return self._groups


def verify_bockstein(s: Session) -> Report:
    rep = Report()
    pages, einf = s.bockstein()
    rep.extend(
        bock_mod.compare_pages(
            einf,
            bock_mod.closed_form_einfty(s.mw_max, einf.columns),
            "bockstein-einfty",
        )
    )
    rep.extend(bock_mod.rho_inverted_check(einf))
    return rep


def verify_ext(s: Session) -> Report:
    rep = Report()
    _, einf = s.bockstein()
    columns = ext_mod.enumerate_ext_families(s.mw_max)
    rep.extend(ext_mod.unique_detection_scan(s.mw_max, columns))
    rep.extend(ext_mod.vanishing_scan(einf))
    rep.extend(ext_mod.massey_scan(s.mw_max))
    rep.extend(ext_mod.product_consistency(s.mw_max, columns, trials=500, seed=s.seed))
    return rep


def verify_adams(s: Session) -> Report:
    rep = Report()
    pages, einf = s.adams()
    e3 = s.e3()
    rep.extend(
        bock_mod.compare_pages(
            e3, adams_mod.closed_form_e3(s.mw_max, e3.columns), "adams-e3"
        )
    )
    rep.extend(
        bock_mod.compare_pages(
            einf, adams_mod.closed_form_einfty(s.mw_max, einf.columns), "adams-einfty"
        )
    )
    rep.extend(adams_mod.check_e3_products(e3))
    rep.extend(adams_mod.mod4_vanishing_scan(einf))
    rep.extend(adams_mod.exhaustive_hit_scan(e3, einf))
    rep.extend(ext_mod.stem_finiteness_scan(einf))
    return rep


def verify_groups(s: Session) -> Report:
    rep = Report()
    groups = s.groups()
    rep.extend(homotopy_mod.groups_vs_order_formula(groups))
    rep.extend(homotopy_mod.ring_structure_report(groups))
    return rep


def verify_brackets(s: Session) -> Report:
    rep = Report()
    _, einf = s.adams()
    rep.extend(bracket_mod.table5_report(einf, s.groups()))
    example = bracket_mod.decompose(3, 10)
    rep.add(
        "bracket-example",
        "P^40*lambda3",
        bracket_mod.render(example, unicode=False) == "<2^8, lambda7, P^8lambda3>",
        bracket_mod.render(example, unicode=False),
    )
    rep.extend(bracket_mod.chow_obstruction_check())
    return rep


def verify_oracle(s: Session) -> Report:
    rep = Report()
    rep.extend(adams_mod.dga_homology_oracle(6, 40))
    rep.extend(adams_mod.oracle_spot_check(s.adams()[0][0], s.e3(), count=20, seed=s.seed))
    return rep


VERIFY_SUITES = {
    "bockstein": verify_bockstein,
    "ext": verify_ext,
    "adams": verify_adams,
    "groups": verify_groups,
    "brackets": verify_brackets,
    "oracle": verify_oracle,
}


def _dump_pages(pages, einf, directory: str) -> None:
    """Stream each page's dump to DIR/<label>.json."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for page in list(pages) + [einf]:
        path = out / f"{page.label}.json"
        with path.open("w", encoding="utf-8") as fh:
            charts_mod.write_page_dump(page, fh)
        print(f"wrote {path}")


def _run_sequence(run, args) -> int:
    """Run a spectral sequence, print its pages' differential counts and
    E-infinity torsion towers, and dump the pages if asked."""
    pages, einf = run(args.max_mw, verify=args.page_verify)
    for page in pages:
        count = sum(hi - lo for _, lo, hi, _ in page.differentials())
        print(f"{page.label}: {count} differentials")
    towers = sum(not truncated for *_, truncated in einf.window_towers())
    print(f"{einf.label}: {towers} torsion towers, mw <= {args.max_mw}")
    if args.dump_pages:
        _dump_pages(pages, einf, args.dump_pages)
    return 0


def _cmd_bockstein(args) -> int:
    return _run_sequence(bock_mod.run_bockstein, args)


def _cmd_adams(args) -> int:
    return _run_sequence(adams_mod.run_adams, args)


def _cmd_groups(args) -> int:
    s = Session(args.max_mw, verify=args.page_verify)
    for g in s.groups():
        if not g.is_trivial:
            print(g.describe())
    return 0


def _stem_to_nk(mw: int) -> tuple[int, int]:
    n = two_adic_valuation(mw + 1)
    k = ((mw + 1) // 2 ** n - 1) // 2
    return n, k


def _cmd_brackets(args) -> int:
    stems = range(3, args.max_mw + 1, 4) if args.all else [args.mw]
    payload = []
    for mw in stems:
        n, k = _stem_to_nk(mw)
        expr = bracket_mod.decompose(n, k)
        if args.json:
            payload.append({"mw": mw, "bracket": bracket_mod.to_dict(expr)})
        elif args.nested:
            print(f"mw={mw}: {bracket_mod.render(expr, nested=True)}")
        else:
            print(bracket_mod.render(expr) if not args.all else f"mw={mw}: {bracket_mod.render(expr)}")
    if args.json:
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    return 0


def chart_page(s: Session, name: str) -> bock_mod.Page:
    """The page a chart named `name` shows: "e1", "bockstein-einf",
    "e3" (Session.e3) or "einf", the stable Adams page; for the chart
    command and scripts/make_charts.py."""
    if name == "e1":
        return bock_mod.build_e1(s.mw_max)
    if name == "bockstein-einf":
        return s.bockstein()[1]
    if name == "e3":
        return s.e3()
    return s.adams()[1]


def _cmd_chart(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    page = chart_page(Session(args.max_mw, verify=args.page_verify), args.page)
    out.write_text(charts_mod.render(page, args.format), encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    t0 = time.time()
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
    s = Session(args.max_mw, verify=args.page_verify)
    which = (
        list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    )
    full = Report()
    for name in which:
        rep = VERIFY_SUITES[name](s)
        status = "PASS" if rep.ok else "FAIL"
        print(f"[{status}] {name}: {rep.summary()}")
        for item in rep.failures()[:10]:
            print(f"    FAIL {item.check} [{item.instance}] {item.detail}")
        full.extend(rep)
    print(f"total: {full.summary()} in {time.time() - t0:.1f}s")
    if args.json:
        Path(args.json).write_text(full.to_json(), encoding="utf-8")
    return 0 if full.ok else 1


def window(text: str) -> int:
    """argparse type of a Milnor-Witt window: 0..MW_LIMIT, else exit 2;
    for the CLI and scripts/make_charts.py."""
    mw = int(text)
    if not 0 <= mw <= MW_LIMIT:
        raise argparse.ArgumentTypeError(f"the window must be 0..{MW_LIMIT}, got {mw}")
    return mw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etass",
        description=(
            "Exact spectral-sequence engine for the eta-inverted stable "
            "stems over the reals"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, dump=False):
        p.add_argument("--max-mw", type=window, default=DEFAULT_MW)
        p.add_argument(
            "--page-verify",
            choices=["auto", "all", "sample", "off"],
            default="auto",
            help="page-transition replay at every bidegree: 'sample' (a historical name) per "
            "family, 'all' also class by class, 'auto' all up to mw 96",
        )
        if dump:
            p.add_argument("--dump-pages", metavar="DIR")

    p = sub.add_parser("bockstein", help="run the first spectral sequence")
    add_common(p, dump=True)
    p.set_defaults(fn=_cmd_bockstein)

    p = sub.add_parser("adams", help="run the second spectral sequence")
    add_common(p, dump=True)
    p.set_defaults(fn=_cmd_adams)

    p = sub.add_parser("groups", help="print the stem groups")
    add_common(p)
    p.set_defaults(fn=_cmd_groups)

    def stem(text: str) -> int:
        mw = int(text)
        if mw < 3 or mw % 4 != 3:
            raise argparse.ArgumentTypeError(
                f"stem {mw} carries no generator (need mw >= 3, mw = 3 mod 4)"
            )
        return mw

    p = sub.add_parser("brackets", help="bracket decompositions of the generators")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--mw", type=stem)
    which.add_argument("--all", action="store_true", help="every stem up to --max-mw")
    p.add_argument("--max-mw", type=window, default=DEFAULT_MW)
    p.add_argument("--nested", action="store_true", help="expand to the leaves")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_brackets)

    p = sub.add_parser("chart", help="render a page")
    p.add_argument("--page", choices=["e1", "e3", "einf", "bockstein-einf"], required=True)
    p.add_argument("--format", choices=["svg", "ascii", "json"], required=True)
    p.add_argument("--out", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_chart)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=["all", *VERIFY_SUITES])
    p.add_argument("--json", metavar="FILE", help="write the full report as JSON")
    add_common(p)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
