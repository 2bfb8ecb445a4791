"""Chart rendering: Milnor-Witt degree horizontal, Chow degree vertical.

Dots mark classes, vertical segments join consecutive rho multiples,
and a page-r differential is drawn from (mw, c) to (mw-1, c+r-1), i.e.
with slope -(r-1).  Tower-bottom generators carry their monomial
labels.  Truncation-unbounded towers end in an upward arrow.
"""

from __future__ import annotations

import io

from .algebra import family_c0, family_monomial
from .bockstein import Page

UNIT = 14  # pixels per degree in svg output


class UnsupportedFormat(Exception):
    pass


def render(page: Page, fmt: str, mw_hi: int | None = None, c_hi: int | None = None) -> str:
    """Render a page as 'svg', 'ascii' or 'json' (the cli dump schema)."""
    if fmt == "json":
        from .cli import write_page_dump

        buf = io.StringIO()
        write_page_dump(page, buf)
        return buf.getvalue()
    if fmt not in ("svg", "ascii"):
        raise UnsupportedFormat(f"unknown format {fmt!r}")
    towers = _window_towers(page, mw_hi, c_hi)
    if mw_hi is None:
        mw_hi = page.max_mw
    if c_hi is None:
        # bounded towers set the window; unbounded ones get arrowed off
        tops = [c + ln - 1 for _, c, _, ln, trunc in towers if not trunc]
        tops += [c for _, c, _, ln, trunc in towers if trunc]
        c_hi = min(page.c_max, max(tops, default=4) + 2)
    if fmt == "svg":
        return _render_svg(page, towers, mw_hi, c_hi)
    return _render_ascii(page, towers, mw_hi, c_hi)


def _window_towers(page: Page, mw_hi: int | None, c_hi: int | None):
    """(mw, c_start, label, length, truncated) per tower in window."""
    out = []
    for t in page.towers():
        deg = t.generator.bidegree
        if mw_hi is not None and deg.mw > mw_hi:
            continue
        out.append((deg.mw, deg.c, str(t.generator), t.length, t.truncated))
    return out


def _differential_segments(page: Page, mw_hi: int, c_hi: int):
    """(mw, c, target mw, target c) per nonzero differential and image
    class, expanded from the page's runs."""
    segs = []
    shift = page.diff_shift()
    for fam, lo, hi, targets in page.differentials():
        mw, c0 = family_monomial(fam).bidegree.mw, family_c0(fam)
        if mw > mw_hi + 1:
            continue
        for c in range(c0 + lo, min(c0 + hi, c_hi + 1)):
            segs.extend([(mw, c, mw + shift.mw, c + shift.c)] * len(targets))
    return segs


def _render_svg(page: Page, towers, mw_hi: int, c_hi: int) -> str:
    pad = 3 * UNIT
    width = pad * 2 + mw_hi * UNIT
    height = pad * 2 + c_hi * UNIT

    def x(mw: float) -> float:
        return pad + mw * UNIT

    def y(c: float) -> float:
        return height - pad - c * UNIT

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<desc>{page.label}, window mw&lt;={mw_hi}, c&lt;={c_hi}</desc>',
        '<g stroke="#dddddd" stroke-width="1">',
    ]
    for mw in range(0, mw_hi + 1, 4):
        parts.append(f'<line x1="{x(mw)}" y1="{y(0)}" x2="{x(mw)}" y2="{y(c_hi)}"/>')
    for c in range(0, c_hi + 1, 4):
        parts.append(f'<line x1="{x(0)}" y1="{y(c)}" x2="{x(mw_hi)}" y2="{y(c)}"/>')
    parts.append("</g>")
    parts.append('<g fill="#555555" font-size="10" text-anchor="middle">')
    for mw in range(0, mw_hi + 1, 4):
        parts.append(f'<text x="{x(mw)}" y="{y(0) + 16}">{mw}</text>')
    for c in range(0, c_hi + 1, 4):
        parts.append(f'<text x="{x(0) - 16}" y="{y(c) + 3}">{c}</text>')
    parts.append(
        f'<text x="{x(mw_hi / 2)}" y="{height - 6}">Milnor-Witt</text>'
    )
    parts.append("</g>")

    parts.append('<g stroke="#999999" stroke-width="1">')
    for mw0, c0, mw1, c1 in _differential_segments(page, mw_hi, c_hi):
        parts.append(
            f'<line x1="{x(mw0)}" y1="{y(c0)}" x2="{x(mw1)}" y2="{y(c1)}"/>'
        )
    parts.append("</g>")

    dots = []
    parts.append('<g stroke="#000000" stroke-width="1.6">')
    for mw, c_start, label, length, truncated in towers:
        top = min(c_start + length - 1, c_hi)
        if length > 1 or truncated:
            parts.append(
                f'<line x1="{x(mw)}" y1="{y(c_start)}" x2="{x(mw)}" y2="{y(top)}"/>'
            )
        if truncated and top == c_hi:
            parts.append(
                f'<line x1="{x(mw)}" y1="{y(top)}" x2="{x(mw) - 3}" y2="{y(top) + 5}"/>'
            )
            parts.append(
                f'<line x1="{x(mw)}" y1="{y(top)}" x2="{x(mw) + 3}" y2="{y(top) + 5}"/>'
            )
        for c in range(c_start, top + 1):
            dots.append((mw, c))
    parts.append("</g>")
    parts.append('<g fill="#000000">')
    for mw, c in dots:
        parts.append(f'<circle cx="{x(mw)}" cy="{y(c)}" r="2.4"/>')
    parts.append("</g>")
    parts.append('<g fill="#000000" font-size="9">')
    for mw, c_start, label, length, truncated in towers:
        if c_start <= c_hi:
            parts.append(
                f'<text x="{x(mw) + 4}" y="{y(c_start) + 9}">{_pretty(label)}</text>'
            )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _pretty(label: str) -> str:
    """Tower labels in the chart convention, e.g. rho^10 v4 -> ρ^10v4."""
    return _svg_escape(label).replace("rho", "ρ").replace(" ", "")


def _svg_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _render_ascii(page: Page, towers, mw_hi: int, c_hi: int) -> str:
    grid = [["." for _ in range(mw_hi + 1)] for _ in range(c_hi + 1)]
    notes = []
    for mw, c_start, label, length, truncated in sorted(towers):
        top = min(c_start + length - 1, c_hi)
        for c in range(c_start, top + 1):
            if c <= c_hi:
                grid[c][mw] = "o"
        if truncated and top == c_hi:
            grid[top][mw] = "^"
        extent = f"c={c_start}..{c_start + length - 1}"
        if truncated:
            extent = f"c={c_start}.. (boundary)"
        notes.append(f"mw={mw} {extent} len={'inf' if truncated else length} {label}")
    lines = [f"{page.label}  (mw across, c up)"]
    for c in range(c_hi, -1, -1):
        prefix = f"{c:4d} " if c % 4 == 0 else "     "
        lines.append(prefix + "".join(grid[c]))
    axis = [" "] * (mw_hi + 1)
    for mw in range(0, mw_hi + 1, 4):
        for i, ch in enumerate(str(mw)):
            if mw + i <= mw_hi:
                axis[mw + i] = ch
    lines.append("     " + "".join(axis))
    lines.append("")
    lines.extend(notes)
    return "\n".join(lines) + "\n"
