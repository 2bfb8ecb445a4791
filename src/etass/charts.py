"""Chart rendering and the page dump schema.

Charts put the Milnor-Witt degree horizontal and the Chow degree
vertical.  Dots mark classes, vertical segments join consecutive rho
multiples, and a page-r differential is drawn from (mw, c) to
(mw-1, c+r-1), i.e. with slope -(r-1).  Tower-bottom generators carry
their monomial labels.  Truncation-unbounded towers end in an upward
arrow.

Page dumps (write_page_dump, and render's 'json') use one fixed JSON
shape:

    {"page": r, "kind": "bockstein"|"adams", "max_mw": N,
     "classes": [{"mw", "c", "label", "rho_exp", "p_exp", "v_exps"}],
     "differentials": [{"r", "source_label", "target_labels"}],
     "towers": [{"generator_label", "length"} | {"generator_label", "infinite"}]}
"""

from __future__ import annotations

import io
import json

from .algebra import family_c0, family_monomial
from .bockstein import Page

UNIT = 14  # pixels per degree in svg output


class UnsupportedFormat(Exception):
    pass


def render(page: Page, fmt: str, mw_hi: int | None = None, c_hi: int | None = None) -> str:
    """Render a page as 'svg', 'ascii' or 'json' (the dump schema)."""
    if fmt == "json":
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


def write_page_dump(page: Page, out) -> None:
    """Write a page in the fixed dump schema to a text stream.

    The text is byte for byte what json.dumps of the schema's dict with
    indent=2 gives, but it is written one column of classes, one run of
    differentials or one column of towers at a time, so memory does not
    grow with the size of the document.  Each family's encoded label
    and its constant fields are formatted once per page; a class label
    is its family's label behind the rho power.
    """
    enc = json.encoder.encode_basestring_ascii
    fams: dict[int, tuple[str, str, str]] = {}

    def family(fam: int) -> tuple[str, str, str]:
        """A family's encoded label without quotes, the part of a class
        label after its rho power, and the class entry's tail."""
        entry = fams.get(fam)
        if entry is None:
            m = family_monomial(fam)
            if m.v_exps:
                v_exps = "{\n" + ",\n".join(
                    f"        {enc(str(n))}: {a}" for n, a in m.v_exps
                ) + "\n      }"
            else:
                v_exps = "{}"
            tail = f',\n      "p_exp": {m.p_exp},\n      "v_exps": {v_exps}\n    }}'
            text = enc(str(m))[1:-1]
            entry = fams[fam] = (text, "" if text == "1" else f" {text}", tail)
        return entry

    def labels(fam: int, lo: int, hi: int) -> list[str]:
        """The quoted labels of fam * rho^b for lo <= b < hi."""
        text, rest, _ = family(fam)
        low = [f'"{text}"', f'"rho{rest}"'][lo:hi]
        return low + [f'"rho^{b}{rest}"' for b in range(max(lo, 2), hi)]

    def write_list(key: str, chunks, last: bool = False) -> None:
        out.write(f'  "{key}": ')
        sep = "[\n"
        for chunk in chunks:
            out.write(sep)
            out.write(chunk)
            sep = ",\n"
        out.write("[]" if sep == "[\n" else "\n  ]")
        out.write("\n" if last else ",\n")

    def classes():
        for mw, column in page.window_columns():
            head = f'    {{\n      "mw": {mw},\n      "c": '
            rows = []  # per position: labels from rho^lo on, lo, c0, tail
            for fam, c0, runs in column:
                lo, hi = runs[0][0], min(runs[-1][1], page.c_max - c0 + 1)
                rows.append((labels(fam, lo, hi), lo, c0, family(fam)[2]))
            entries = []
            for c, positions in page.column_classes(mw):
                for pos in positions:
                    names, lo, c0, tail = rows[pos]
                    b = c - c0
                    entries.append(
                        f'{head}{c},\n      "label": {names[b - lo]},\n      "rho_exp": {b}{tail}'
                    )
            if entries:
                yield ",\n".join(entries)

    def differentials():
        head = f'    {{\n      "r": {page.r},\n      "source_label": '
        sep = ",\n        "
        for fam, lo, hi, targets in page.differentials():
            images = [labels(tfam, lo + delta, hi + delta) for tfam, delta in targets]
            yield ",\n".join(
                f'{head}{src},\n      "target_labels": [\n        {sep.join(tgts)}\n      ]\n    }}'
                for src, *tgts in zip(labels(fam, lo, hi), *images)
            )

    def towers():
        for mw, _ in page.window_columns():
            entries = []
            for fam, lo, hi, truncated in page.column_towers(mw):
                extent = '"infinite": true' if truncated else f'"length": {hi - lo}'
                entries.append(
                    f'    {{\n      "generator_label": {labels(fam, lo, lo + 1)[0]},\n'
                    f'      {extent}\n    }}'
                )
            if entries:
                yield ",\n".join(entries)

    out.write(
        f'{{\n  "page": {page.r},\n  "kind": {enc(page.kind)},\n'
        f'  "max_mw": {page.max_mw},\n'
    )
    write_list("classes", classes())
    write_list("differentials", differentials())
    write_list("towers", towers(), last=True)
    out.write("}")


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
