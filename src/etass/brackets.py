"""Three-fold bracket generation structure of the stem groups.

Every generator P^(2^(n-1)k) lambda_n arises from iterated three-fold
brackets over the leaves 2^t and lambda2.  Two base chains alternate to
build the lambda_n and the P^(2^j - 2) lambda2 generators:

    lambda_{n+1}      = < 2^3,     lambda2,      P^(2^(n-1)-2) lambda2 >
    P^(2^n-2) lambda2 = < 2^(n+2), lambda_{n+1}, P^(2^(n-1)-2) lambda2 >

and the general step strips the top bit of the P exponent e:

    P^e lambda_n = < 2^(m+1), lambda_m, P^(e - 2^(m-2)) lambda_n >

with m - 2 the top bit position (the top bit of a positive multiple of
2^(n-1) is at least 2^(n-1), so m > n always holds).  A bracket raises
Milnor-Witt degree by the sum of its entries plus one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Monomial
from .bockstein import EngineError, Page
from .homotopy import HomotopyGroup, generator_name, imj_order
from .report import Report


@dataclass(frozen=True)
class TwoPower:
    """The homotopy class 2^t, Milnor-Witt degree 0."""

    t: int

    @property
    def mw(self) -> int:
        return 0

    def name(self, unicode: bool = True) -> str:
        return f"2^{self.t}"


@dataclass(frozen=True)
class Lambda2:
    """The generator of the 3-stem."""

    @property
    def mw(self) -> int:
        return 3

    def name(self, unicode: bool = True) -> str:
        return "λ2" if unicode else "lambda2"


@dataclass(frozen=True)
class Bracket:
    """A three-fold bracket producing the generator P^(2^(n-1)k) lambda_n.

    `lemma` records which base step justified it: 'chain-lambda' for the
    2^3-lead chain (its indeterminacy is 2^3 times the produced
    generator), 'chain-P' for the alternate chain, 'top-bit' for the
    general step (no indeterminacy).
    """

    first: "BracketExpr"
    second: "BracketExpr"
    third: "BracketExpr"
    n: int
    k: int
    lemma: str

    @property
    def mw(self) -> int:
        return 2 ** (self.n + 1) * self.k + 2 ** self.n - 1

    @property
    def indeterminacy(self) -> str | None:
        if self.lemma == "chain-lambda":
            return f"2^3*{generator_name(self.n, self.k)}"
        return None

    def name(self, unicode: bool = True) -> str:
        power = 2 ** (self.n - 1) * self.k
        lam = "λ" if unicode else "lambda"
        return f"{lam}{self.n}" if power == 0 else f"P^{power}{lam}{self.n}"


BracketExpr = TwoPower | Lambda2 | Bracket


def expr_mw(e: BracketExpr) -> int:
    if isinstance(e, Bracket):
        return expr_mw(e.first) + expr_mw(e.second) + expr_mw(e.third) + 1
    return e.mw


def detector(n: int, k: int) -> Monomial:
    """The stable-page class detecting P^(2^(n-1)k) lambda_n."""
    return Monomial.make(2 ** n - n - 2, 2 ** (n - 1) * k, {n: 1})


def decompose(n: int, k: int) -> BracketExpr:
    """Bracket expression for P^(2^(n-1)k) lambda_n over {2^t, lambda2}.

    k = 0 uses the 2^3-lead chain; k > 0 strips the top bit of the P
    exponent, which terminates since the remainder exponent strictly
    drops and the chain strictly drops n.
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2, k >= 0")
    if k == 0:
        if n == 2:
            return Lambda2()
        # lambda_n = < 2^3, lambda2, P^(2^(n-2)-2) lambda2 >
        return Bracket(
            TwoPower(3),
            Lambda2(),
            decompose(2, 2 ** (n - 3) - 1),
            n,
            0,
            "chain-lambda",
        )
    e = 2 ** (n - 1) * k
    m = e.bit_length() + 1  # top bit of e is 2^(m-2)
    rest = (e - 2 ** (m - 2)) // 2 ** (n - 1)
    return Bracket(
        TwoPower(m + 1),
        decompose(m, 0),
        decompose(n, rest),
        n,
        k,
        "top-bit",
    )


def render(e: BracketExpr, unicode: bool = True, nested: bool = False) -> str:
    """Shallow rendering names each entry by the generator it produces;
    nested rendering expands sub-brackets down to the leaves."""
    if not isinstance(e, Bracket):
        return e.name(unicode)
    left, right = ("⟨", "⟩") if unicode else ("<", ">")
    parts = []
    for entry in (e.first, e.second, e.third):
        if nested and isinstance(entry, Bracket):
            parts.append(render(entry, unicode, nested=True))
        else:
            parts.append(entry.name(unicode))
    return f"{left}{', '.join(parts)}{right}"


def to_dict(e: BracketExpr) -> dict:
    if isinstance(e, TwoPower):
        return {"leaf": "two-power", "t": e.t}
    if isinstance(e, Lambda2):
        return {"leaf": "lambda2"}
    return {
        "bracket": [to_dict(e.first), to_dict(e.second), to_dict(e.third)],
        "generator": e.name(unicode=False),
        "mw": e.mw,
        "indeterminacy": e.indeterminacy,
    }


def leaves(e: BracketExpr) -> list[BracketExpr]:
    if isinstance(e, Bracket):
        return leaves(e.first) + leaves(e.second) + leaves(e.third)
    return [e]


def _order_exponent(entry: BracketExpr, groups: list[HomotopyGroup] | None) -> int:
    if isinstance(entry, Lambda2):
        n, k = 2, 0
    elif isinstance(entry, Bracket):
        n, k = entry.n, entry.k
    else:
        raise ValueError("2-power has no stem generator")
    mw = 2 ** (n + 1) * k + 2 ** n - 1
    if groups is not None and mw < len(groups):
        g = groups[mw]
        if g.order_exponent:
            return g.order_exponent
    return imj_order(mw)


def verify_expr(
    e: BracketExpr,
    einfty: Page | None = None,
    groups: list[HomotopyGroup] | None = None,
) -> Report:
    """Check a decomposition: degree additivity at every node, the
    leading 2-power annihilating the middle generator, existence of the
    detecting class, and the recorded indeterminacy shape."""
    rep = Report()
    if not isinstance(e, Bracket):
        rep.add("bracket", render(e, unicode=False), True, "leaf")
        return rep
    label = f"{e.name(unicode=False)} = {render(e, unicode=False)}"

    def walk(node: Bracket):
        stem = 2 ** (node.n + 1) * node.k + 2 ** node.n - 1
        rep.add(
            "bracket-degree",
            f"{node.name(unicode=False)}",
            expr_mw(node) == stem,
            f"entries sum + 1 = {expr_mw(node)}, stem {stem}",
        )
        first = node.first
        rep.add(
            "bracket-order",
            f"{node.name(unicode=False)} leading {first.name(unicode=False)}",
            isinstance(first, TwoPower)
            and first.t >= _order_exponent(node.second, groups),
            "2-power must annihilate the middle generator",
        )
        if einfty is not None:
            det = detector(node.n, node.k)
            stem_in_window = stem <= einfty.max_mw
            rep.add(
                "bracket-detector",
                f"{node.name(unicode=False)} detected by {det}",
                (not stem_in_window) or einfty.status(det) == "alive",
                "" if stem_in_window else "outside window, skipped",
            )
        if node.lemma == "chain-lambda":
            rep.add(
                "bracket-indeterminacy",
                f"{node.name(unicode=False)}",
                node.indeterminacy == f"2^3*{generator_name(node.n, node.k)}",
            )
        for entry in (node.first, node.second, node.third):
            if isinstance(entry, Bracket):
                walk(entry)

    walk(e)
    ok_leaves = all(isinstance(x, (TwoPower, Lambda2)) for x in leaves(e))
    rep.add("bracket-leaves", label, ok_leaves, "all leaves 2^t or lambda2")
    return rep


def chow_obstruction_check() -> Report:
    """The would-be analogue < 2^5, lambda4, lambda4 > in the 31-stem is
    blocked: the product expression is already defined on the stable
    page, forcing detection in Chow degree at least c(rho^5) +
    2 c(rho^10 v4) = 27, above the actual detector's 26."""
    rep = Report()
    rho5_c = Monomial.make(5).bidegree.c
    det4_c = detector(4, 0).bidegree.c
    det5_c = detector(5, 0).bidegree.c
    forced = rho5_c + 2 * det4_c
    rep.add(
        "chow-obstruction",
        "<2^5, lambda4, lambda4> misses the 31-stem generator",
        forced > det5_c,
        f"forced filtration {forced} > detector filtration {det5_c}",
    )
    return rep


# Generator table through the 63-stem: (mw, (n, k), order exponent,
# shallow bracket as (t, middle name, third name), indeterminacy).
TABLE5_ROWS: list[tuple] = [
    (0, None, None, None, None),
    (3, (2, 0), 3, None, None),
    (7, (3, 0), 4, (3, "lambda2", "lambda2"), "2^3*lambda3"),
    (11, (2, 1), 3, (4, "lambda3", "lambda2"), None),
    (15, (4, 0), 5, (3, "lambda2", "P^2lambda2"), "2^3*lambda4"),
    (19, (2, 2), 3, (5, "lambda4", "lambda2"), None),
    (23, (3, 1), 4, (5, "lambda4", "lambda3"), None),
    (27, (2, 3), 3, (5, "lambda4", "P^2lambda2"), None),
    (31, (5, 0), 6, (3, "lambda2", "P^6lambda2"), "2^3*lambda5"),
    (35, (2, 4), 3, (6, "lambda5", "lambda2"), None),
    (39, (3, 2), 4, (6, "lambda5", "lambda3"), None),
    (43, (2, 5), 3, (6, "lambda5", "P^2lambda2"), None),
    (47, (4, 1), 5, (6, "lambda5", "lambda4"), None),
    (51, (2, 6), 3, (6, "lambda5", "P^4lambda2"), None),
    (55, (3, 3), 4, (6, "lambda5", "P^4lambda3"), None),
    (59, (2, 7), 3, (6, "lambda5", "P^6lambda2"), None),
    (63, (6, 0), 7, (3, "lambda2", "P^14lambda2"), "2^3*lambda6"),
]


def _shallow_shape(e: BracketExpr) -> tuple | None:
    if not isinstance(e, Bracket):
        return None
    if not isinstance(e.first, TwoPower):
        raise EngineError(f"bracket leads with {e.first!r}, not a 2-power")
    return (
        e.first.t,
        e.second.name(unicode=False),
        e.third.name(unicode=False),
    )


def table5_report(
    einfty: Page | None = None,
    groups: list[HomotopyGroup] | None = None,
) -> Report:
    """Reproduce the generator table row by row: generator name, order
    exponent, a derivable bracket, and the stated indeterminacy.

    A row's bracket counts as reproduced when decompose returns exactly
    the table's shallow shape; any other lemma-derivable shape would be
    flagged as an alternative rather than a failure, but every row here
    comes out exact.
    """
    rep = Report()
    for mw, nk, order, shape, indet in TABLE5_ROWS:
        if nk is None:
            ok = groups is None or groups[0].order_exponent is None
            rep.add("table-row", "mw=0 generator 1, no bracket", ok)
            continue
        n, k = nk
        name = generator_name(n, k)
        if groups is not None and mw >= len(groups):
            continue  # row outside the computed window
        if groups is not None:
            g = groups[mw]
            rep.add(
                "table-row",
                f"mw={mw} generator",
                g.generator_name == name and g.order_exponent == order,
                f"got {g.generator_name} order {g.order_exponent}, want {name} order {order}",
            )
        else:
            rep.add("table-row", f"mw={mw} order formula", imj_order(mw) == order)
        expr = decompose(n, k)
        if shape is None:
            rep.add("table-row", f"mw={mw} base generator", isinstance(expr, Lambda2))
            continue
        got = _shallow_shape(expr)
        exact = got == shape
        derivable = exact or (expr_mw(expr) == mw)
        rep.add(
            "table-row",
            f"mw={mw} bracket",
            derivable,
            f"{'reproduced' if exact else 'alternative'}: {render(expr, unicode=False)}",
        )
        want_indet = indet
        have = expr.indeterminacy if isinstance(expr, Bracket) else None
        rep.add(
            "table-row",
            f"mw={mw} indeterminacy",
            have == want_indet,
            f"got {have}, want {want_indet}",
        )
        rep.extend(verify_expr(expr, einfty, groups))
    return rep
