#!/usr/bin/env python3
"""Render the four standard charts (first page, page 3, both stable
pages) as SVG and ASCII into an output directory."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from etass.charts import render
from etass.cli import Session, chart_page, window


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-mw", type=window, default=64)
    ap.add_argument("--out", default="charts")
    ap.add_argument("--mw-window", type=window, default=None, help="clip the horizontal axis")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mw_hi = args.max_mw if args.mw_window is None else args.mw_window

    session = Session(args.max_mw)
    for name in ("e1", "bockstein-einf", "e3", "einf"):
        page = chart_page(session, name)
        for fmt, suffix in (("svg", "svg"), ("ascii", "txt")):
            path = out / f"{name}.{suffix}"
            path.write_text(render(page, fmt, mw_hi=mw_hi), encoding="utf-8")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
