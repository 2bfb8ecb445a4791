"""The page dump schema built as a dict, class by class from monomials.

This is the reference the streamed writer (etass.charts.write_page_dump)
is compared against: `json.dumps(reference_page_dump(page), indent=2)`
is the dump's exact text.  Classes come from Page.basis_at and images
from image_classes below, so neither shares the writer's integer read
path; towers are Page.window_towers' intervals, labelled here.
"""

from __future__ import annotations

from etass.algebra import Derivation, family_monomial, leibniz_apply
from etass.bockstein import EngineError
from rule_reference import apply_dr_table, page_reference


def apply_rule(page, m):
    """The page differential on one class, as its monomial reference
    (rule_reference.page_reference) gives it, without the family-level
    shortcut: leibniz_apply of a Derivation, or the page's dr_table."""
    if page.differential is None:
        return []
    ref = page_reference(page.kind, page.r, page.max_mw)
    if isinstance(ref, Derivation):
        return leibniz_apply(ref, m)
    return apply_dr_table(ref, m)


def image_classes(page, m):
    """Image of a class under the page differential, expanded over the
    alive classes of the target bidegree."""
    out = []
    for term in apply_rule(page, m):
        st = page.status(term)
        if st == "alive":
            out.append(term)
        elif st != "zero":
            raise EngineError(f"image term {term} is neither alive nor hit")
    return out


def reference_classes(page):
    """(mw, c, monomial) over the reporting window, in dump order."""
    for mw in sorted(page.alive):
        if mw > page.max_mw:
            continue
        for c in range(page.c_max + 1):
            for m in page.basis_at(mw, c):
                yield mw, c, m


def reference_differentials(page):
    """(source, image classes) per nonzero differential, expanded class
    by class in column, family and rho order."""
    if page.differential is None:
        return []
    out = []
    for mw in sorted(page.alive):
        if mw > page.max_mw:
            continue
        for fam, c0, (lo, hi) in page._column_alive(mw):
            for b in range(lo, min(hi, page.c_max - c0 + 1)):
                m = family_monomial(fam, b)
                img = image_classes(page, m)
                if img:
                    out.append((m, img))
    return out


def reference_page_dump(page) -> dict:
    """A page in the fixed dump schema."""
    classes = [
        {
            "mw": mw,
            "c": c,
            "label": str(m),
            "rho_exp": m.rho_exp,
            "p_exp": m.p_exp,
            "v_exps": {str(n): a for n, a in m.v_exps},
        }
        for mw, c, m in reference_classes(page)
    ]
    differentials = [
        {
            "r": page.r,
            "source_label": str(src),
            "target_labels": [str(t) for t in targets],
        }
        for src, targets in reference_differentials(page)
    ]
    towers = []
    for _, fam, lo, hi, truncated in page.window_towers():
        entry: dict = {"generator_label": str(family_monomial(fam, lo))}
        if truncated:
            entry["infinite"] = True
        else:
            entry["length"] = hi - lo
        towers.append(entry)
    return {
        "page": page.r,
        "kind": page.kind,
        "max_mw": page.max_mw,
        "classes": classes,
        "differentials": differentials,
        "towers": towers,
    }
