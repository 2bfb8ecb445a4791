"""The page dump schema built as a dict, class by class from monomials.

This is the reference the streamed writer (etass.charts.write_page_dump)
is compared against: `json.dumps(reference_page_dump(page), indent=2)`
is the dump's exact text.  Classes come from Page.basis_at, images from
image_classes below and towers from Page.towers, so none of it shares
the writer's integer read path.
"""

from __future__ import annotations

from etass.adams import RuleTable
from etass.algebra import Derivation, family_monomial, family_of, leibniz_apply
from etass.bockstein import EngineError


def apply_rule_table(table, m):
    """A rule table (adams.RuleTable) on one class: its rule's target,
    shifted by the class's rho exponent above the rule's source, or
    nothing below the source or without a rule."""
    rule = table.rules.get(family_of(m))
    if rule is None or m.rho_exp < rule.source.rho_exp:
        return []
    a = m.rho_exp - rule.source.rho_exp
    return [rule.target.times_rho(a) if a else rule.target]


def apply_rule(page, m):
    """The page differential on one class, as the derivation or rule
    table gives it, without the family-level shortcut."""
    d = page.differential
    if isinstance(d, RuleTable):
        return apply_rule_table(d, m)
    if isinstance(d, Derivation):
        return leibniz_apply(d, m)
    return []


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
        for fam, c0, runs in page._column_alive(mw):
            for lo, hi in runs:
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
    for t in page.towers():
        entry: dict = {"generator_label": str(t.generator)}
        if t.truncated:
            entry["infinite"] = True
        else:
            entry["length"] = t.length
        towers.append(entry)
    return {
        "page": page.r,
        "kind": page.kind,
        "max_mw": page.max_mw,
        "classes": classes,
        "differentials": differentials,
        "towers": towers,
    }
