"""Graded monomial algebra underlying every spectral-sequence page.

Generators and their (Milnor-Witt, Chow) degrees:

    rho  (0, 1)       P  (4, 4)       v_n  (2^n - 1, 1)  for n >= 2

The unit h1 is normalized away throughout, so bidegrees live in the
plane where it vanishes.  Monomials are exponent data over these
generators; the normal form attaches all P powers to the v generator of
minimal index (divisibility p_exp = 0 mod 2^(n-1)) and enforces the
torsion bound rho_exp <= 2^n - 2 when requested.  Values are immutable
and operations pure.  The page engine keys everything by rho-free
family packed into one int (family_of) and applies derivations to the
packed exponents (derivation_image); Monomials are its read side, and
leibniz_apply is the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


class NormalizationFailure(Exception):
    """Exponent data does not admit the shifted normal form."""


class MissingRule(Exception):
    """A derivation met a factor with no rule and no cycle declaration."""


@dataclass(frozen=True, order=True)
class Bidegree:
    """A point (mw, c) in the Milnor-Witt/Chow plane."""

    mw: int
    c: int

    def __add__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.mw + other.mw, self.c + other.c)

    def __sub__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.mw - other.mw, self.c - other.c)


def v_degree(n: int) -> Bidegree:
    return Bidegree(2 ** n - 1, 1)


def max_v_index(mw_max: int) -> int:
    n = 2
    while 2 ** (n + 1) - 1 <= mw_max + 1:
        n += 1
    return n


@dataclass(frozen=True, eq=False)
class Monomial:
    """rho^b P^e v_{n1}^{a1} ... as exponent data.

    v_exps is stored as a sorted tuple of (index, positive exponent)
    pairs so monomials are hashable and canonical.  Equality is by
    exponent data, so a monomial and its normal-form certificate wrapper
    compare equal.
    """

    rho_exp: int = 0
    p_exp: int = 0
    v_exps: tuple[tuple[int, int], ...] = ()

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return (
            self.rho_exp == other.rho_exp
            and self.p_exp == other.p_exp
            and self.v_exps == other.v_exps
        )

    def __hash__(self):
        return self._hash

    def __post_init__(self):
        if self.rho_exp < 0 or self.p_exp < 0:
            raise ValueError("negative exponent")
        last = 1
        for n, a in self.v_exps:
            if n <= last or a <= 0:
                raise ValueError("v_exps must be sorted with positive exponents")
            last = n
        object.__setattr__(
            self, "_hash", hash((self.rho_exp, self.p_exp, self.v_exps))
        )

    @classmethod
    def make(cls, rho: int = 0, p: int = 0, vs: Mapping[int, int] | None = None) -> "Monomial":
        pairs = tuple(sorted((n, a) for n, a in (vs or {}).items() if a))
        return cls(rho, p, pairs)

    @property
    def v_dict(self) -> dict[int, int]:
        return dict(self.v_exps)

    @property
    def min_v(self) -> int | None:
        return self.v_exps[0][0] if self.v_exps else None

    @property
    def bidegree(self) -> Bidegree:
        cached = getattr(self, "_bidegree", None)
        if cached is None:
            mw = 4 * self.p_exp
            c = self.rho_exp + 4 * self.p_exp
            for n, a in self.v_exps:
                mw += a * (2 ** n - 1)
                c += a
            cached = Bidegree(mw, c)
            object.__setattr__(self, "_bidegree", cached)
        return cached

    @property
    def total_exponent(self) -> int:
        return self.rho_exp + self.p_exp + sum(a for _, a in self.v_exps)

    def sort_key(self):
        """Graded reverse-lexicographic key, generator order rho < P < v2 < ...

        Between equal total exponents, the monomial with more of the
        earliest differing generator sorts first.
        """
        tail = [-self.rho_exp, -self.p_exp]
        if self.v_exps:
            top = self.v_exps[-1][0]
            exps = self.v_dict
            tail.extend(-exps.get(n, 0) for n in range(2, top + 1))
        return (self.total_exponent, tuple(tail))

    def times_rho(self, k: int = 1) -> "Monomial":
        return Monomial(self.rho_exp + k, self.p_exp, self.v_exps)

    def raw_product(self, other: "Monomial") -> "Monomial":
        """Exponentwise sum, no normalization."""
        if not other.v_exps:
            pairs = self.v_exps
        elif not self.v_exps:
            pairs = other.v_exps
        else:
            merged = dict(self.v_exps)
            for n, a in other.v_exps:
                merged[n] = merged.get(n, 0) + a
            pairs = tuple(sorted(merged.items()))
        return Monomial(
            self.rho_exp + other.rho_exp, self.p_exp + other.p_exp, pairs
        )

    def without_v(self, n: int) -> "Monomial":
        """Divide by one factor of v_n."""
        pairs = []
        found = False
        for i, a in self.v_exps:
            if i == n:
                found = True
                if a > 1:
                    pairs.append((i, a - 1))
            else:
                pairs.append((i, a))
        if not found:
            raise ValueError(f"no v_{n} factor")
        return Monomial(self.rho_exp, self.p_exp, tuple(pairs))

    def __str__(self) -> str:
        parts = []
        if self.p_exp:
            parts.append("P" if self.p_exp == 1 else f"P^{self.p_exp}")
        for n, a in self.v_exps:
            parts.append(f"v{n}" if a == 1 else f"v{n}^{a}")
        return rho_label(self.rho_exp, " ".join(parts) if parts else "1")


def rho_label(rho_exp: int, family_label: str) -> str:
    """The label of rho^rho_exp times the rho-free monomial labelled
    family_label ("1" for the unit), as str(Monomial) prints it."""
    if not rho_exp:
        return family_label
    head = "rho" if rho_exp == 1 else f"rho^{rho_exp}"
    return head if family_label == "1" else f"{head} {family_label}"


# ---------------------------------------------------------------------------
# packed rho-free families
#
# The engine keys every page by rho-free family P^p v_2^a_2 ... v_N^a_N
# packed into one int of FIELD_BITS-wide fields, most significant first:
#
#     u = sum a_n (2^n - 1),  sum a_n,  s_2, s_3, ..., s_(V_TOP-1),  c0
#
# where s_k = a_(k+1) + ... + a_V_TOP counts the v factors of index above
# k and c0 = 4p + sum a_n is the family's Chow degree.  Inside one
# Milnor-Witt column u = mw - 4p, so ascending int order is the column
# order (-p, sum a_n, -a_2, -a_3, ...).  Every field is linear in the
# exponents: multiplying by P adds P_STEP and by v_n adds V_STEP[n], so a
# differential moves a family by integer addition.  Every field is at
# most the family's Milnor-Witt degree, which bounds the window.

FIELD_BITS = 10
_MASK = (1 << FIELD_BITS) - 1
MW_LIMIT = 2 ** FIELD_BITS - 3  # largest window: mw_max + 1 fits a field
V_TOP = FIELD_BITS - 1  # the last v_n with 2^n - 1 <= MW_LIMIT + 1
_SUM_SHIFT = (V_TOP - 1) * FIELD_BITS
_U_SHIFT = V_TOP * FIELD_BITS
P_STEP = 4
V_STEP = {
    n: ((2 ** n - 1) << _U_SHIFT)
    + (1 << _SUM_SHIFT)
    + sum(1 << (V_TOP - k) * FIELD_BITS for k in range(2, n))
    + 1
    for n in range(2, V_TOP + 1)
}


def family_of(m: Monomial) -> int:
    """The packed rho-free family of m (its rho exponent is dropped)."""
    if m.bidegree.mw > MW_LIMIT + 1:
        raise ValueError(f"{m} lies beyond the packed window mw <= {MW_LIMIT + 1}")
    f = P_STEP * m.p_exp
    for n, a in m.v_exps:
        f += a * V_STEP[n]
    return f


def family_c0(f: int) -> int:
    """Chow degree of the family (of its rho^0 class)."""
    return f & _MASK


def family_p(f: int) -> int:
    return ((f & _MASK) - ((f >> _SUM_SHIFT) & _MASK)) >> 2


def family_v_exps(f: int) -> tuple[tuple[int, int], ...]:
    """The (index, positive exponent) pairs of the v factors, ascending."""
    prev = (f >> _SUM_SHIFT) & _MASK
    out = []
    n, shift = 2, _SUM_SHIFT
    while prev:
        shift -= FIELD_BITS
        rest = (f >> shift) & _MASK if shift else 0  # s_V_TOP = 0
        if rest != prev:
            out.append((n, prev - rest))
        prev = rest
        n += 1
    return tuple(out)


def family_min_v(f: int) -> int | None:
    """The least v index of the family, None without v factors."""
    total = (f >> _SUM_SHIFT) & _MASK
    if not total:
        return None
    n, shift = 2, _SUM_SHIFT - FIELD_BITS
    while shift and (f >> shift) & _MASK == total:
        n += 1
        shift -= FIELD_BITS
    return n


def family_monomial(f: int, rho: int = 0) -> Monomial:
    """rho^rho times the family, as a Monomial (labels and read side)."""
    return Monomial(rho, family_p(f), family_v_exps(f))


def torsion_bound(f: int) -> int | None:
    """Length 2^n - 1 of the rho tower on a packed family in the Ext
    model, n its least v index; None means unbounded."""
    n = family_min_v(f)
    return None if n is None else 2 ** n - 1


@dataclass(frozen=True, eq=False)
class NormalMonomial(Monomial):
    """A monomial in shifted normal form.

    Construction checks the certificate: with minimal v index n, p_exp
    is a multiple of 2^(n-1); with no v factors, p_exp is zero.  The
    torsion bound is checked by normalize(), not here, so that both
    torsion modes can share the type.
    """

    def __post_init__(self):
        super().__post_init__()
        n = self.min_v
        if n is None:
            if self.p_exp:
                raise NormalizationFailure(f"pure P power P^{self.p_exp} is not normal")
        elif self.p_exp % 2 ** (n - 1):
            raise NormalizationFailure(
                f"p_exp {self.p_exp} not a multiple of 2^{n - 1} for minimal v_{n}"
            )


def normalize(m: Monomial, torsion: bool = True) -> NormalMonomial | None:
    """Shifted normal form of m, or None when torsion annihilates it.

    Raises NormalizationFailure on malformed input (p_exp not divisible
    by 2^(n_min - 1), or a pure P power); such input cannot arise from
    products of normal monomials.
    """
    n = m.min_v
    if torsion and n is not None and m.rho_exp >= 2 ** n - 1:
        return None
    return NormalMonomial(m.rho_exp, m.p_exp, m.v_exps)


def multiply(a: NormalMonomial, b: NormalMonomial) -> NormalMonomial | None:
    """Product in the truncated ring: exponent sum, then normal form
    with the torsion rule enabled."""
    return normalize(a.raw_product(b), torsion=True)


MonomialSum = tuple[Monomial, ...]


def _reduce_mod2(terms: list[Monomial]) -> list[Monomial]:
    if len(terms) <= 1:
        return terms
    counts: dict[Monomial, int] = {}
    for t in terms:
        counts[t] = counts.get(t, 0) + 1
    kept = [t for t, k in counts.items() if k % 2]
    kept.sort(key=Monomial.sort_key)
    return kept


@dataclass(frozen=True)
class Derivation:
    """A page differential presented by rules on generators.

    v_rules maps a v index to the image of that generator; a v index in
    v_cycles (or any index when all_v_cycles) is a declared cycle.
    p_rule = (q, image) differentiates P through the block generator
    P^q; p_exp must then be a multiple of q.  When p_attach_min = n, a
    monomial whose minimal v index is below n carries its P power as
    part of that torsion family's generator, which is a cycle, so no
    P term is produced.  rho is always a cycle.

    Every rule must shift bidegree by `shift`, checked on construction.
    """

    r: int
    shift: Bidegree
    v_rules: Mapping[int, MonomialSum] = field(default_factory=dict)
    all_v_cycles: bool = False
    v_cycles: frozenset[int] = frozenset()
    p_rule: tuple[int, Monomial] | None = None
    p_attach_min: int | None = None
    normalize_terms: bool = False

    def __post_init__(self):
        for n, terms in self.v_rules.items():
            src = v_degree(n)
            for t in terms:
                if t.bidegree != src + self.shift:
                    raise ValueError(f"rule for v{n} does not shift degree by {self.shift}")
        if self.p_rule is not None:
            q, img = self.p_rule
            if img.bidegree != Bidegree(4 * q, 4 * q) + self.shift:
                raise ValueError(f"rule for P^{q} does not shift degree by {self.shift}")
        # the rules as (family move, rho exponent) for derivation_image
        packed = {
            n: tuple(
                (family_of(t) - family_of(Monomial(0, 0, ((n, 1),))), t.rho_exp)
                for t in terms
            )
            for n, terms in self.v_rules.items()
        }
        object.__setattr__(self, "_packed_v", packed)
        if self.p_rule is not None:
            q, img = self.p_rule
            move = (family_of(img) - P_STEP * q, img.rho_exp)
            object.__setattr__(self, "_packed_p", move)

    def family_image(self, f: int) -> tuple[list[tuple[int, int]], int]:
        """The differential on the tower of a packed family, in the form
        of Page.family_image: derivation_image with threshold 0, since
        rho is a cycle and the P attachment ignores rho."""
        return derivation_image(self, f), 0


def leibniz_apply(d: Derivation, m: Monomial) -> list[Monomial]:
    """Apply the derivation to a monomial by the Leibniz rule.

    Sums the rule over factor positions; even multiplicities cancel in
    characteristic 2, so only the parity of each exponent matters.
    Raises MissingRule when a factor has no declared behavior.
    """
    terms: list[Monomial] = []
    for n, a in m.v_exps:
        rule = d.v_rules.get(n)
        if rule is not None:
            if a % 2:
                rest = m.without_v(n)
                terms.extend(rest.raw_product(t) for t in rule)
        elif not (d.all_v_cycles or n in d.v_cycles):
            raise MissingRule(f"no rule or cycle declaration for v{n}")
    if m.p_exp:
        attached = (
            d.p_attach_min is not None
            and m.min_v is not None
            and m.min_v < d.p_attach_min
        )
        if d.p_rule is not None and not attached:
            q, img = d.p_rule
            if m.p_exp % q:
                raise MissingRule(
                    f"P^{m.p_exp} is not a power of the block generator P^{q}"
                )
            if (m.p_exp // q) % 2:
                rest = Monomial(m.rho_exp, m.p_exp - q, m.v_exps)
                terms.append(rest.raw_product(img))
    out = _reduce_mod2(terms)
    if d.normalize_terms:
        kept = []
        for t in out:
            nt = normalize(t, torsion=True)
            if nt is not None:
                kept.append(nt)
        return kept
    return out


def derivation_image(d: Derivation, f: int) -> list[tuple[int, int]]:
    """leibniz_apply(d, family_monomial(f)) on packed families.

    Returns the (family, rho exponent) terms sorted by family, which is
    the order of leibniz_apply's terms: they share one bidegree, where
    the monomial order and the column order agree.  Every check and
    exception of leibniz_apply is kept; rho is a cycle, so the image of
    rho^b times the family is each term times rho^b (before the torsion
    of normalize_terms, which is applied here to the rho-free family).
    """
    terms: list[tuple[int, int]] = []
    v_exps = ()
    if d.v_rules or not d.all_v_cycles:
        v_exps = family_v_exps(f)
        for n, a in v_exps:
            rule = d._packed_v.get(n)
            if rule is not None:
                if a % 2:
                    terms.extend((f + move, rho) for move, rho in rule)
            elif not (d.all_v_cycles or n in d.v_cycles):
                raise MissingRule(f"no rule or cycle declaration for v{n}")
    p = family_p(f)
    if p and d.p_rule is not None:
        n = v_exps[0][0] if v_exps else family_min_v(f)
        if d.p_attach_min is None or n is None or n >= d.p_attach_min:
            q = d.p_rule[0]
            if p % q:
                raise MissingRule(f"P^{p} is not a power of the block generator P^{q}")
            if (p // q) % 2:
                move, rho = d._packed_p
                terms.append((f + move, rho))
    if len(terms) > 1:
        odd: dict[tuple[int, int], int] = {}
        for t in terms:
            odd[t] = odd.get(t, 0) ^ 1
        terms = sorted(t for t, k in odd.items() if k)
    if d.normalize_terms:
        kept = []
        for tf, rho in terms:
            t = torsion_bound(tf)
            if t is not None and rho >= t:
                continue  # torsion kills it
            n = family_min_v(tf)
            tp = family_p(tf)
            if n is None and tp:
                raise NormalizationFailure(f"pure P power P^{tp} is not normal")
            if n is not None and tp % 2 ** (n - 1):
                raise NormalizationFailure(
                    f"p_exp {tp} not a multiple of 2^{n - 1} for minimal v_{n}"
                )
            kept.append((tf, rho))
        return kept
    return terms
