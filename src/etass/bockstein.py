"""The rho-Bockstein spectral sequence and the shared page engine.

A page stores, for every Milnor-Witt column, the rho-towers that are
alive: each rho-free monomial (a "family") spans the tower of its rho
multiples, and the page keeps the interval of rho exponents alive plus
the interval already hit by earlier differentials.  Differentials on
these pages send single monomials to single monomials, so each page
transition decomposes into tower-to-tower blocks whose homology is
interval arithmetic.

Every such transition is then replayed per bidegree through
gf2.kernel_basis/quotient_basis (at every bidegree up to
DENSE_VERIFY_LIMIT, on a deterministic sample above it) and any
disagreement raises.  The replay works on integers: a class is the
position of its family in the page's column plus its rho exponent, a
bidegree's basis is a sorted list of positions, and each family's image
under the page differential is computed once (Page.family_image) and
shifted by the rho exponent.  That shift is exact because every
differential the engine runs is rho-linear: rho is a cycle of each
Bockstein derivation, whose P attachment depends on the v factors only,
each later Adams rule maps every rho multiple of its source, and the
Adams d2 drops only the shifted terms that torsion kills, which its
model reports as zero.  Monomials are built only for image terms
outside the target basis, which the page's status (and the ring torsion
of its model) must certify as zero, and for error messages.  The
homology routine of the replay (Homology.at) also computes the Adams
page-2 to page-3 step, whose images are genuine sums.

Only pages r = 2^n - 1 carry differentials; the page list returned by
run_bockstein walks exactly those, and the E-infinity page is compared
against the closed-form answer by the caller.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .algebra import (
    Bidegree,
    Derivation,
    Monomial,
    leibniz_apply,
)
from .gf2 import Echelon, F2Matrix, F2Vector, kernel_basis, quotient_basis
from .report import Report

MW_MAX_DEFAULT = 64

# full per-bidegree verification below this window size, sampling above
DENSE_VERIFY_LIMIT = 96
# sampled replays skip instances whose three columns exceed this; the
# interval transition is still fully asserted there
SAMPLE_DIM_CAP = 1500
SAMPLES_PER_COLUMN = 6


def c_max_for(mw_max: int) -> int:
    return 2 * mw_max + 8


class EngineError(Exception):
    """The computed pages violate a structural invariant."""


class RepresentativeNotMonomial(EngineError):
    """A homology class has no single-monomial representative."""


# ---------------------------------------------------------------------------
# interval arithmetic on disjoint sorted half-open runs

Runs = tuple[tuple[int, int], ...]

EMPTY: Runs = ()


def runs_make(pairs: Iterable[tuple[int, int]]) -> Runs:
    pairs = sorted((lo, hi) for lo, hi in pairs if lo < hi)
    out: list[tuple[int, int]] = []
    for lo, hi in pairs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return tuple(out)


def runs_intersect(a: Runs, b: Runs) -> Runs:
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo < hi:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def runs_subtract(a: Runs, b: Runs) -> Runs:
    if not a or not b:
        return a
    out = []
    j = 0
    for lo, hi in a:
        cur = lo
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < hi:
            blo, bhi = b[k]
            if cur < blo:
                out.append((cur, min(blo, hi)))
            cur = max(cur, bhi)
            if cur >= hi:
                break
            k += 1
        if cur < hi:
            out.append((cur, hi))
    return tuple(out)


def runs_union(a: Runs, b: Runs) -> Runs:
    return runs_make(list(a) + list(b))


def runs_shift(a: Runs, k: int) -> Runs:
    return tuple((lo + k, hi + k) for lo, hi in a)


def runs_contain(a: Runs, x: int) -> bool:
    for lo, hi in a:
        if lo <= x < hi:
            return True
        if x < lo:
            return False
    return False


def runs_subset(a: Runs, b: Runs) -> bool:
    return runs_subtract(a, b) == EMPTY


# ---------------------------------------------------------------------------
# columns of rho-free families

def _fam_key0(fam: Monomial):
    """Column-local order key; the induced order of classes inside one
    bidegree is independent of the Chow coordinate."""
    deg0 = fam.total_exponent
    c0 = fam.bidegree.c
    return (deg0 - c0, c0) + fam.sort_key()[1][1:]


@dataclass
class Column:
    fams: list[Monomial]  # sorted by _fam_key0
    c0: dict[Monomial, int]


def enumerate_families(mw_max: int) -> dict[int, Column]:
    """All rho-free monomials over the window's generators, by mw."""
    vs = []
    n = 2
    while 2 ** n - 1 <= mw_max + 1:
        vs.append(n)
        n += 1
    per_mw: dict[int, list[Monomial]] = {m: [] for m in range(mw_max + 2)}

    def rec(i: int, mw: int, acc: dict[int, int]):
        e = 0
        while mw + 4 * e <= mw_max + 1:
            per_mw[mw + 4 * e].append(Monomial.make(0, e, acc))
            e += 1
        for j in range(i, len(vs)):
            step = 2 ** vs[j] - 1
            if mw + step > mw_max + 1:
                break
            acc[vs[j]] = acc.get(vs[j], 0) + 1
            rec(j, mw + step, acc)
            acc[vs[j]] -= 1
            if not acc[vs[j]]:
                del acc[vs[j]]

    rec(0, 0, {})
    cols = {}
    for mw, fams in per_mw.items():
        fams.sort(key=_fam_key0)
        cols[mw] = Column(fams, {f: f.bidegree.c for f in fams})
    return cols


# ---------------------------------------------------------------------------
# towers and pages

@dataclass(frozen=True)
class TorsionTower:
    """One maximal rho-run: generator, number of alive classes, and
    whether the run was cut off by the Chow truncation rather than by
    torsion."""

    generator: Monomial
    length: int
    truncated: bool

    @property
    def mw(self) -> int:
        return self.generator.bidegree.mw


Edge = tuple[Monomial, int, int]  # (target family, rho shift, minimal source b)
# a class on the read side: (rho-free family, rho exponent)
Class = tuple[Monomial, int]


@dataclass
class Page:
    """One spectral-sequence page over the truncated window.

    `alive` holds the surviving rho-intervals per family, `zero` the
    intervals already hit (known-zero classes).  `rule` is the
    differential acting on this page (None once the sequence has
    collapsed); `edges` is its family-level form used for matrices.
    The read side (classes, differentials, tower_runs) gives a class
    as a (rho-free family, rho exponent) pair, so reading a page builds
    no monomial per class.
    """

    kind: str
    label: str
    r: int
    max_mw: int
    c_max: int
    c_internal: int
    columns: dict[int, Column]
    alive: dict[int, dict[Monomial, Runs]]
    zero: dict[int, dict[Monomial, Runs]]
    rule: Derivation | None = None
    edges: dict[int, dict[Monomial, Edge]] = field(default_factory=dict)
    # differential given as a rule table instead of a derivation (the
    # later Adams pages): family_image answers for whole towers, and a
    # call maps a single class
    rule_fn: Callable[[Monomial], list[Monomial]] | None = None
    shift_override: Bidegree | None = None
    # ring-level torsion of the underlying model: monomials it reports
    # as zero are the zero element, not classes
    is_model_zero: Callable[[Monomial], bool] | None = None
    # caches; init=False so that dataclasses.replace starts them afresh
    _alive_sorted: dict[int, list[tuple[Monomial, int, Runs]]] = field(
        default_factory=dict, init=False, repr=False
    )
    _c0_index: dict[int, tuple] = field(default_factory=dict, init=False, repr=False)
    _dims_cache: dict[int, dict[int, int]] = field(
        default_factory=dict, init=False, repr=False
    )
    _differentials: list[tuple[Class, list[Class]]] | None = field(
        default=None, init=False, repr=False
    )

    # -- basis ----------------------------------------------------------
    def alive_runs(self, mw: int, fam: Monomial) -> Runs:
        return self.alive.get(mw, {}).get(fam, EMPTY)

    def _column_alive(self, mw: int) -> list[tuple[Monomial, int, Runs]]:
        """(family, c0, runs) for the alive families in column order."""
        cached = self._alive_sorted.get(mw)
        if cached is None:
            col = self.columns.get(mw)
            per = self.alive.get(mw, {})
            cached = (
                []
                if col is None
                else [
                    (fam, col.c0[fam], per[fam]) for fam in col.fams if fam in per
                ]
            )
            self._alive_sorted[mw] = cached
        return cached

    def _column_by_c0(self, mw: int):
        """Alive families bucketed for Chow lookups: entries sorted by
        c0 with their column position, plus the widest run extent."""
        cached = self._c0_index.get(mw)
        if cached is None:
            entries = sorted(
                (c0, pos, fam, runs)
                for pos, (fam, c0, runs) in enumerate(self._column_alive(mw))
            )
            c0s = [e[0] for e in entries]
            maxspan = max((r[-1][1] for *_, r in entries if r), default=0)
            cached = (c0s, entries, maxspan)
            self._c0_index[mw] = cached
        return cached

    def positions_at(self, mw: int, c: int) -> list[int]:
        """The classes at one bidegree as ascending positions of their
        families in _column_alive(mw); class order is position order."""
        c0s, entries, maxspan = self._column_by_c0(mw)
        hi = bisect.bisect_right(c0s, c)
        lo = bisect.bisect_left(c0s, c - maxspan + 1) if maxspan else hi
        return sorted(
            pos for c0, pos, _, runs in entries[lo:hi] if runs_contain(runs, c - c0)
        )

    def basis_at(self, mw: int, c: int) -> list[Monomial]:
        """Ordered class representatives at one bidegree."""
        column = self._column_alive(mw)
        out = []
        for pos in self.positions_at(mw, c):
            fam, c0, _ = column[pos]
            out.append(fam.times_rho(c - c0) if c != c0 else fam)
        return out

    def dim_at(self, mw: int, c: int) -> int:
        return len(self.basis_at(mw, c))

    def dims_column(self, mw: int) -> dict[int, int]:
        """dim at every Chow degree of one column, c <= c_max."""
        cached = self._dims_cache.get(mw)
        if cached is not None:
            return cached
        diff = [0] * (self.c_max + 2)
        col = self.columns.get(mw)
        if col is None:
            self._dims_cache[mw] = {}
            return {}
        for fam, runs in self.alive.get(mw, {}).items():
            c0 = col.c0[fam]
            for lo, hi in runs:
                a = c0 + lo
                b = min(c0 + hi, self.c_max + 1)
                if a <= self.c_max and a < b:
                    diff[a] += 1
                    diff[b] -= 1
        out: dict[int, int] = {}
        acc = 0
        for c in range(self.c_max + 1):
            acc += diff[c]
            if acc:
                out[c] = acc
        self._dims_cache[mw] = out
        return out

    def status(self, m: Monomial) -> str:
        """'alive', 'zero', or 'absent' for a monomial on this page."""
        fam = Monomial(0, m.p_exp, m.v_exps)
        mw = fam.bidegree.mw
        b = m.rho_exp
        if runs_contain(self.alive.get(mw, {}).get(fam, EMPTY), b):
            return "alive"
        if runs_contain(self.zero.get(mw, {}).get(fam, EMPTY), b):
            return "zero"
        if self.is_model_zero is not None and self.is_model_zero(m):
            return "zero"
        return "absent"

    # -- differential ----------------------------------------------------
    def family_image(self, fam: Monomial) -> tuple[list[tuple[Monomial, int]], int]:
        """The differential on the tower of a rho-free family.

        Returns (terms, threshold): for b >= threshold the class
        fam * rho^b maps to the sum of tfam * rho^(b + delta) over the
        (tfam, delta) terms, and below threshold it maps to zero.  A
        Leibniz derivation gives threshold 0, since rho is a cycle and
        its P attachment ignores rho; a rule table reads the entry off
        its rule.  A derivation that renormalizes its terms (page 2 of
        the Adams side) is applied to the rho-free family, where the
        torsion bound drops nothing; a shifted term that torsion kills
        is one the model reports as zero (is_model_zero), so callers
        must check every term outside the target basis against status.
        """
        if self.rule is not None:
            terms = leibniz_apply(self.rule, fam)
            # a term without rho already is its family
            return [
                (Monomial(0, t.p_exp, t.v_exps) if t.rho_exp else t, t.rho_exp) for t in terms
            ], 0
        if self.rule_fn is not None:
            return self.rule_fn.family_image(fam)
        return [], 0

    def diff_shift(self) -> Bidegree:
        if self.rule is not None:
            return self.rule.shift
        if self.shift_override is not None:
            return self.shift_override
        return Bidegree(-1, 0)

    def differentials(self) -> list[tuple[Class, list[Class]]]:
        """All nonzero differentials on this page inside the reporting
        window, as (source class, image classes), ordered by column,
        family position and rho exponent; computed once per page.

        Each family's image comes from family_image once and is shifted
        by the rho exponent; an image class is alive when its rho
        exponent lies in the target family's alive runs.  A term that is
        not alive must be zero on the page (status), else EngineError.
        """
        if self._differentials is not None:
            return self._differentials
        out: list[tuple[Class, list[Class]]] = []
        for mw in sorted(self.alive):
            if mw > self.max_mw:
                continue
            for fam, c0, runs in self._column_alive(mw):
                self._family_differentials(fam, runs, self.c_max - c0 + 1, out)
        self._differentials = out
        return out

    def _family_differentials(self, fam: Monomial, runs: Runs, top: int, out: list) -> None:
        """Append the nonzero differentials on the classes fam * rho^b
        with b in runs and b < top."""
        terms, threshold = self.family_image(fam)
        if not terms:
            return
        targets = [
            (tfam, delta, self.alive_runs(tfam.bidegree.mw, tfam)) for tfam, delta in terms
        ]
        for lo, hi in runs:
            for b in range(max(lo, threshold), min(hi, top)):
                img = []
                for tfam, delta, talive in targets:
                    if runs_contain(talive, b + delta):
                        img.append((tfam, b + delta))
                    else:
                        term = tfam.times_rho(b + delta)
                        if self.status(term) != "zero":
                            raise EngineError(f"image term {term} is neither alive nor hit")
                if img:
                    out.append(((fam, b), img))

    # -- rho action -------------------------------------------------------
    def rho_matrix_at(self, mw: int, c: int) -> F2Matrix:
        """Multiplication by rho from (mw, c) to (mw, c+1) in the page
        bases."""
        src = self.basis_at(mw, c)
        tgt = self.basis_at(mw, c + 1)
        index = {m: i for i, m in enumerate(tgt)}
        rows_bits = [0] * len(tgt)
        for j, m in enumerate(src):
            up = m.times_rho()
            st = self.status(up)
            if st == "alive":
                rows_bits[index[up]] |= 1 << j
            elif st != "zero":
                raise EngineError(f"rho multiple {up} is neither alive nor hit")
        return F2Matrix(len(src), tuple(F2Vector(len(src), b) for b in rows_bits))

    def tower_runs(self) -> Iterable[tuple[Monomial, int, int, bool]]:
        """(family, lo, hi, truncated) per maximal rho-run inside the
        reporting window: the tower of fam * rho^b for lo <= b < hi."""
        for mw in sorted(self.alive):
            if mw > self.max_mw:
                continue
            col = self.columns[mw]
            for fam in col.fams:
                runs = self.alive[mw].get(fam)
                if not runs:
                    continue
                blim = self.c_internal - col.c0[fam] + 1
                for lo, hi in runs:
                    yield fam, lo, hi, hi >= blim

    def towers(self) -> list[TorsionTower]:
        return [
            TorsionTower(fam.times_rho(lo) if lo else fam, hi - lo, truncated)
            for fam, lo, hi, truncated in self.tower_runs()
        ]

    def classes(self) -> Iterable[tuple[int, int, Class]]:
        """(mw, c, class) over the reporting window, ordered by mw, c
        and family position.  Each column's classes are gathered from
        the alive runs and must agree with positions_at at every Chow
        degree, else EngineError."""
        for mw in sorted(self.alive):
            if mw > self.max_mw:
                continue
            column = self._column_alive(mw)
            per_c: dict[int, list[int]] = {}
            for pos, (_, c0, runs) in enumerate(column):
                for lo, hi in runs:
                    for c in range(c0 + lo, min(c0 + hi, self.c_max + 1)):
                        per_c.setdefault(c, []).append(pos)
            for c in sorted(per_c):
                positions = per_c[c]
                if positions != self.positions_at(mw, c):
                    raise EngineError(f"basis at mw={mw}, c={c} disagrees with the alive runs")
                for pos in positions:
                    fam, c0, _ = column[pos]
                    yield mw, c, (fam, c - c0)


# ---------------------------------------------------------------------------
# differential rules

def bockstein_rule(n: int) -> Derivation:
    """Page 2^n - 1 differential: the block generator P^(2^(n-2)) maps
    to rho^(2^n - 1) v_n; every other page generator is a cycle, and P
    powers attached to a v family of index below n ride along."""
    if n < 2:
        raise ValueError("n >= 2")
    r = 2 ** n - 1
    block = 2 ** (n - 2) if n > 2 else 1
    image = Monomial.make(r, 0, {n: 1})
    return Derivation(
        r=r,
        shift=Bidegree(-1, 0),
        all_v_cycles=True,
        p_rule=(block, image),
        p_attach_min=n,
    )


def _edges_from_rule(
    alive: dict[int, dict[Monomial, Runs]], rule: Derivation
) -> dict[int, dict[Monomial, Edge]]:
    """Family-level form of a single-monomial derivation on the alive
    families, with injectivity of family images checked per target
    column."""
    edges: dict[int, dict[Monomial, Edge]] = {}
    back: dict[tuple[int, Monomial], Monomial] = {}
    p_only = rule.p_rule is not None and not rule.v_rules
    attach = rule.p_attach_min
    for mw in sorted(alive):
        for fam in alive[mw]:
            if p_only and not fam.p_exp:
                continue
            # the attachment test leibniz_apply would perform anyway
            if attach is not None and fam.min_v is not None and fam.min_v < attach:
                continue
            img = leibniz_apply(rule, fam)
            if not img:
                continue
            if len(img) != 1:
                raise EngineError(f"family image of {fam} is not a single monomial")
            (target,) = img
            if target.rho_exp < rule.r:
                raise EngineError(f"family image {target} has rho exponent below r")
            tfam = Monomial(0, target.p_exp, target.v_exps)
            key = (mw - 1, tfam)
            if key in back:
                raise EngineError(f"families {back[key]} and {fam} share image {tfam}")
            back[key] = fam
            edges.setdefault(mw, {})[fam] = (tfam, target.rho_exp, 0)
    return edges


# ---------------------------------------------------------------------------
# page transitions

def _advance(page: Page) -> tuple[dict[int, dict[Monomial, Runs]], dict[int, dict[Monomial, Runs]]]:
    """Homology of the page differential, tower by tower.

    Each family maps to at most one family and receives from at most
    one, so every bidegree's matrix is a direct sum of 1x1 blocks and
    the surviving classes form interval complements.  The per-bidegree
    claim is re-derived through gf2 by verify_transition afterwards.
    """
    incoming: dict[int, dict[Monomial, tuple[Monomial, int, int]]] = {}
    for mw, per in page.edges.items():
        for fam, (tfam, delta, min_b) in per.items():
            incoming.setdefault(mw - 1, {})[tfam] = (fam, delta, min_b)

    new_alive: dict[int, dict[Monomial, Runs]] = {}
    new_zero: dict[int, dict[Monomial, Runs]] = {}
    for mw, per_fam in page.alive.items():
        na: dict[Monomial, Runs] = {}
        nz: dict[Monomial, Runs] = dict(page.zero.get(mw, {}))
        out_edges = page.edges.get(mw, {})
        in_edges = incoming.get(mw, {})
        for fam, runs in per_fam.items():
            if not out_edges and not in_edges:
                na[fam] = runs
                continue
            edge = out_edges.get(fam)
            if edge is not None:
                tfam, delta, min_b = edge
                target_alive = page.alive_runs(mw - 1, tfam)
                nonzero_domain = runs_intersect(
                    runs_shift(target_alive, -delta),
                    ((min_b, runs[-1][1]),) if runs else EMPTY,
                )
                kernel = runs_subtract(runs, nonzero_domain)
            else:
                kernel = runs
            inc = in_edges.get(fam)
            if inc is not None:
                sfam, sdelta, smin = inc
                src_alive = page.alive_runs(mw + 1, sfam)
                src_alive = runs_intersect(
                    src_alive, ((smin, src_alive[-1][1]),) if src_alive else EMPTY
                )
                hit = runs_intersect(runs_shift(src_alive, sdelta), runs)
            else:
                hit = EMPTY
            if hit and not runs_subset(hit, kernel):
                raise EngineError(f"d o d != 0 at mw={mw} family {fam}")
            alive = runs_subtract(kernel, hit)
            if alive:
                na[fam] = alive
            if hit:
                nz[fam] = runs_union(nz.get(fam, EMPTY), hit)
        new_alive[mw] = na
        new_zero[mw] = {f: r for f, r in nz.items() if r}
    return new_alive, new_zero


@dataclass
class _ColumnTable:
    """One column of a page by family position: the Chow degree of each
    alive family, and the position of each alive family."""

    c0: list[int]
    pos_of: dict[Monomial, int]


class Homology:
    """Homology of a page differential at single bidegrees, through gf2
    on integer classes.

    A class at (mw, c) is the position of its family in
    page._column_alive(mw); its rho exponent is b = c - c0.  The tables
    (columns, bases per bidegree, family images) belong to one pass over
    the page and are dropped with it.
    """

    def __init__(self, page: Page):
        self.page = page
        self.shift = page.diff_shift()
        self._columns: dict[int, _ColumnTable] = {}
        # each bidegree serves as mid, as source and as target
        self._bases: dict[tuple[int, int], list[int]] = {}
        self._images: dict[tuple[int, int], tuple[list, int]] = {}

    def column(self, mw: int) -> _ColumnTable:
        table = self._columns.get(mw)
        if table is None:
            alive = self.page._column_alive(mw)
            table = self._columns[mw] = _ColumnTable(
                c0=[c0 for _, c0, _ in alive],
                pos_of={fam: pos for pos, (fam, _, _) in enumerate(alive)},
            )
        return table

    def basis(self, mw: int, c: int) -> list[int]:
        key = (mw, c)
        out = self._bases.get(key)
        if out is None:
            out = self._bases[key] = self.page.positions_at(mw, c)
        return out

    def image(self, mw: int, pos: int) -> tuple[list[tuple[int | None, Monomial, int]], int]:
        """The family's image as (target position, target family, rho
        delta) entries plus the rho threshold.  The target position is
        None when the target family is not alive in the target column,
        or would land at another Chow degree, so the term is never in a
        target basis."""
        key = (mw, pos)
        cached = self._images.get(key)
        if cached is None:
            fam, c0, _ = self.page._column_alive(mw)[pos]
            terms, threshold = self.page.family_image(fam)
            target = self.column(mw + self.shift.mw)
            entries = []
            for tfam, delta in terms:
                tpos = target.pos_of.get(tfam)
                if tpos is not None and target.c0[tpos] + delta != c0 + self.shift.c:
                    tpos = None
                entries.append((tpos, tfam, delta))
            cached = self._images[key] = (entries, threshold)
        return cached

    def image_bits(self, mw: int, pos: int, b: int, index: dict[int, int]) -> int:
        """The image of class (pos, b) of column mw over a target basis
        given as position -> coordinate.  A term outside that basis must
        be zero on the page, else EngineError."""
        entries, threshold = self.image(mw, pos)
        if b < threshold:
            return 0
        bits = 0
        for tpos, tfam, delta in entries:
            i = index.get(tpos)
            if i is not None:
                bits ^= 1 << i
            else:
                term = tfam.times_rho(b + delta)
                if self.page.status(term) != "zero":
                    raise EngineError(f"image term {term} is neither alive nor hit")
        return bits

    def name(self, mw: int, pos: int, c: int) -> str:
        fam, c0, _ = self.page._column_alive(mw)[pos]
        return str(fam.times_rho(c - c0) if c != c0 else fam)

    def at(self, mw: int, c: int, sums_allowed: bool = False) -> tuple[list[int], list[int], Echelon]:
        """The homology at one bidegree: (basis, reps, boundaries).

        basis is the classes at (mw, c) as family positions; reps the
        coordinates, in that basis, of the coset representatives that
        kernel_basis and quotient_basis give on the matrices of the
        page differential; boundaries the echelon of the boundary span.
        A representative that is a sum of several classes raises
        RepresentativeNotMonomial, or is left out when sums_allowed; an
        image term that is neither a basis class nor zero on the page
        raises EngineError (image_bits).
        """
        mid = self.basis(mw, c)
        if not mid:
            return mid, [], Echelon()
        shift = self.shift
        smw, sc = mw - shift.mw, c - shift.c
        src = self.basis(smw, sc)
        tgt = self.basis(mw + shift.mw, c + shift.c)
        c0, sc0 = self.column(mw).c0, self.column(smw).c0

        tgt_index = {pos: i for i, pos in enumerate(tgt)}
        rows_bits = [0] * len(tgt)
        for j, pos in enumerate(mid):
            bits = self.image_bits(mw, pos, c - c0[pos], tgt_index)
            while bits:
                low = bits & -bits
                rows_bits[low.bit_length() - 1] |= 1 << j
                bits ^= low
        m_out = F2Matrix(len(mid), tuple(F2Vector(len(mid), b) for b in rows_bits))
        kernel = kernel_basis(m_out)
        mid_index = {pos: i for i, pos in enumerate(mid)}
        boundaries = [
            F2Vector(len(mid), b)
            for b in (self.image_bits(smw, pos, sc - sc0[pos], mid_index) for pos in src)
            if b
        ]
        reps: list[int] = []
        for v in quotient_basis(boundaries, kernel):
            sup = v.support()
            if len(sup) == 1:
                reps.append(sup[0])
            elif not sums_allowed:
                raise RepresentativeNotMonomial(
                    f"no single-monomial representative at mw={mw}, c={c}: {v.coeffs()}"
                )
        ech = Echelon()
        for v in boundaries:
            ech.insert(v.bits)
        return mid, reps, ech


class _Replay(Homology):
    """Compares one page transition (new_alive, new_zero) with the
    homology at each bidegree; the runs are tabled by family position
    like the classes."""

    def __init__(self, page: Page, new_alive, new_zero):
        super().__init__(page)
        self.new_alive = new_alive
        self.new_zero = new_zero
        self._runs: dict[int, tuple[list[Runs], list[Runs], list[Runs]]] = {}

    def runs(self, mw: int) -> tuple[list[Runs], list[Runs], list[Runs]]:
        """The new alive, new zero and old zero runs of column mw by
        family position."""
        table = self._runs.get(mw)
        if table is None:
            fams = [fam for fam, _, _ in self.page._column_alive(mw)]
            table = self._runs[mw] = tuple(
                [per.get(fam, EMPTY) for fam in fams]
                for per in (
                    self.new_alive.get(mw, {}),
                    self.new_zero.get(mw, {}),
                    self.page.zero.get(mw, {}),
                )
            )
        return table

    def bidegree(self, mw: int, c: int) -> None:
        """Recompute the homology at one bidegree and compare: raises
        EngineError (or RepresentativeNotMonomial) on any disagreement
        with the tower transition."""
        mid, got, ech = self.at(mw, c)
        if not mid:
            return
        c0 = self.column(mw).c0
        new_alive, new_zero, old_zero = self.runs(mw)

        # surviving classes are a subset of the old ones, in the same order
        expected = [i for i, pos in enumerate(mid) if runs_contain(new_alive[pos], c - c0[pos])]
        if got != expected:
            raise EngineError(
                f"homology mismatch at mw={mw}, c={c}: gf2 gives "
                f"{[self.name(mw, mid[i], c) for i in got]}, towers give "
                f"{[self.name(mw, mid[i], c) for i in expected]}"
            )

        # classes newly hit must span exactly the boundary space
        newly_zero = 0
        for i, pos in enumerate(mid):
            b = c - c0[pos]
            if runs_contain(new_zero[pos], b) and not runs_contain(old_zero[pos], b):
                newly_zero += 1
                if not ech.contains(1 << i):
                    raise EngineError(
                        f"class {self.name(mw, pos, c)} marked hit but outside boundary span"
                    )
        if newly_zero != ech.rank:
            raise EngineError(f"boundary rank mismatch at mw={mw}, c={c}")


def dense_bidegrees(page: Page, mw: int) -> list[int]:
    """Every Chow degree c <= c_internal at which column mw has a class."""
    col = page.columns.get(mw)
    if col is None:
        return []
    cs: set[int] = set()
    for fam, runs in page.alive.get(mw, {}).items():
        c0 = col.c0[fam]
        for lo, hi in runs:
            cs.update(range(c0 + lo, min(c0 + hi, page.c_internal + 1)))
    return sorted(cs)


def verify_transition(
    page: Page,
    new_alive,
    new_zero,
    mode: str,
    seed: int = 0,
) -> int:
    """Replay the transition per bidegree via gf2 on integer class
    positions (see Homology).  mode 'all' covers every bidegree with
    classes; 'sample' draws up to SAMPLES_PER_COLUMN deterministic
    random picks per column from the run endpoints and midpoints,
    skipping instances larger than SAMPLE_DIM_CAP.  Returns the number
    of bidegrees checked."""
    if mode == "off":
        return 0

    def column_bidegrees(mw: int) -> list[int]:
        if mode == "all":
            return dense_bidegrees(page, mw)
        rng = random.Random((seed, page.r, mw).__hash__())
        pool: set[int] = set()
        column = page._column_alive(mw)
        stride = max(1, len(column) // 64)
        for fam, c0, runs in column[:: stride]:
            for lo, hi in runs:
                pool.add(c0 + lo)
                pool.add(min(c0 + hi - 1, page.c_internal))
                pool.add(min(c0 + hi, page.c_internal))
                pool.add((c0 + lo + min(c0 + hi, page.c_internal)) // 2)
        dims = {d: page.dims_column(mw + d) for d in (-1, 0, 1)}
        pool = {
            c
            for c in pool
            if dims[0].get(c, 0)
            and dims[0].get(c, 0) + dims[1].get(c, 0) + dims[-1].get(c, 0)
            <= SAMPLE_DIM_CAP
        }
        cs = rng.sample(sorted(pool), min(len(pool), SAMPLES_PER_COLUMN))
        return sorted(c for c in cs if 0 <= c <= page.c_internal)

    replay = _Replay(page, new_alive, new_zero)
    count = 0
    for mw in sorted(page.alive):
        for c in column_bidegrees(mw):
            replay.bidegree(mw, c)
            count += 1
    return count


# ---------------------------------------------------------------------------
# the Bockstein run

def _full_runs(columns: dict[int, Column], c_internal: int) -> dict[int, dict[Monomial, Runs]]:
    alive: dict[int, dict[Monomial, Runs]] = {}
    for mw, col in columns.items():
        alive[mw] = {
            fam: ((0, c_internal - col.c0[fam] + 1),)
            for fam in col.fams
            if col.c0[fam] <= c_internal
        }
    return alive


def build_e1(mw_max: int) -> Page:
    """The first page: every monomial over rho, P, v_n, no relations,
    zero differential."""
    if mw_max < 0:
        raise ValueError("mw_max >= 0")
    c_max = c_max_for(mw_max)
    columns = enumerate_families(mw_max)
    return Page(
        kind="bockstein",
        label="bockstein-E1",
        r=1,
        max_mw=mw_max,
        c_max=c_max,
        c_internal=c_max,
        columns=columns,
        alive=_full_runs(columns, c_max),
        zero={mw: {} for mw in columns},
    )


def bockstein_page_indices(mw_max: int) -> list[int]:
    out = []
    n = 2
    while 2 ** n - 1 <= mw_max + 1:
        out.append(2 ** n - 1)
        n += 1
    return out


def run_bockstein(
    mw_max: int,
    *,
    verify: str = "auto",
    seed: int = 0,
) -> tuple[list[Page], Page]:
    """Run the sequence from E1 to its last differential page.

    Returns the pages that carry differentials (r = 2^n - 1) and the
    stable page after the last one; all other page indices are identity
    steps.  verify is 'all', 'sample', 'off' or 'auto' (dense up to
    DENSE_VERIFY_LIMIT).
    """
    if verify == "auto":
        verify = "all" if mw_max <= DENSE_VERIFY_LIMIT else "sample"
    e1 = build_e1(mw_max)
    columns = e1.columns
    alive, zero = e1.alive, e1.zero
    pages: list[Page] = []
    last_r = 1
    for r in bockstein_page_indices(mw_max):
        n = r.bit_length()  # r = 2^n - 1
        rule = bockstein_rule(n)
        page = Page(
            kind="bockstein",
            label=f"bockstein-E{r}",
            r=r,
            max_mw=mw_max,
            c_max=e1.c_max,
            c_internal=e1.c_internal,
            columns=columns,
            alive=alive,
            zero=zero,
            rule=rule,
            edges=_edges_from_rule(alive, rule),
        )
        new_alive, new_zero = _advance(page)
        verify_transition(page, new_alive, new_zero, verify, seed)
        pages.append(page)
        alive, zero = new_alive, new_zero
        last_r = r
    einfty = Page(
        kind="bockstein",
        label="bockstein-Einf",
        r=last_r + 1,
        max_mw=mw_max,
        c_max=e1.c_max,
        c_internal=e1.c_internal,
        columns=columns,
        alive=alive,
        zero=zero,
    )
    return pages, einfty


def closed_form_einfty(mw_max: int, columns: dict[int, Column] | None = None) -> Page:
    """The predicted stable page: the rho tower on 1, and for every
    normal monomial with minimal v index n a tower of length 2^n - 1.

    Pass the columns of an already-built page to skip re-enumeration.
    """
    if mw_max < 0:
        raise ValueError("mw_max >= 0")
    c_max = c_max_for(mw_max)
    if columns is None:
        columns = enumerate_families(mw_max)
    alive: dict[int, dict[Monomial, Runs]] = {}
    for mw, col in columns.items():
        per: dict[Monomial, Runs] = {}
        for fam in col.fams:
            n = fam.min_v
            if n is None:
                if fam.p_exp == 0:
                    per[fam] = ((0, c_max - col.c0[fam] + 1),)
                continue
            if fam.p_exp % 2 ** (n - 1):
                continue
            per[fam] = ((0, 2 ** n - 1),)
        alive[mw] = per
    return Page(
        kind="bockstein",
        label="bockstein-Einf-closed-form",
        r=0,
        max_mw=mw_max,
        c_max=c_max,
        c_internal=c_max,
        columns=columns,
        alive=alive,
        zero={mw: {} for mw in columns},
    )


def compare_pages(computed: Page, predicted: Page, check: str) -> Report:
    """Dimension-by-bidegree and tower-by-tower equality inside the
    reporting window."""
    rep = Report()
    bad_dims = []
    for mw in range(computed.max_mw + 1):
        got = computed.dims_column(mw)
        want = predicted.dims_column(mw)
        if got != want:
            diffs = {
                c: (got.get(c, 0), want.get(c, 0))
                for c in sorted(set(got) | set(want))
                if got.get(c, 0) != want.get(c, 0)
            }
            bad_dims.append((mw, diffs))
    rep.add(
        check,
        "dimensions",
        not bad_dims,
        "" if not bad_dims else f"mismatched columns: {bad_dims[:4]}",
    )
    got_towers = sorted(
        (t.generator.bidegree.mw, t.generator.bidegree.c, t.length, t.truncated)
        for t in computed.towers()
    )
    want_towers = sorted(
        (t.generator.bidegree.mw, t.generator.bidegree.c, t.length, t.truncated)
        for t in predicted.towers()
    )
    rep.add(
        check,
        "towers",
        got_towers == want_towers,
        "" if got_towers == want_towers else "tower lists differ",
    )
    return rep


def rho_inverted_check(einfty: Page) -> Report:
    """Only the 0-column may carry a tower that reaches the truncation
    boundary."""
    rep = Report()
    boundary = [t for t in einfty.towers() if t.truncated]
    bad = [t for t in boundary if t.mw != 0]
    rep.add(
        "rho-inverted",
        "unbounded towers confined to mw=0",
        not bad,
        "" if not bad else f"boundary towers at {[str(t.generator) for t in bad]}",
    )
    rep.add(
        "rho-inverted",
        "mw=0 tower unbounded",
        any(t.mw == 0 for t in boundary),
        "",
    )
    return rep
