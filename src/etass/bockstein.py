"""The rho-Bockstein spectral sequence and the shared page engine.

A page stores, for every Milnor-Witt column, the rho-towers that are
alive: each rho-free monomial (a "family", packed into one int by
algebra.family_of and enumerated by families()) spans the tower of its
rho multiples, and the page keeps one interval (lo, hi) of rho exponents
alive per family plus one interval already hit by earlier
differentials; a family without such classes is absent.  A page carries
one Differential (Page.differential), which gives the image of a whole
tower (family_image): bockstein_rule, adams.d2_rule or adams.adams_rule.
Differentials on these pages send single monomials to single monomials,
so each page transition (_advance) is interval arithmetic on
tower-to-tower blocks, in one sweep over the columns: each family's run
of differentials (Page._family_differentials, as in Page.differentials)
cuts its own interval and its target's; a transition that would leave a
family two intervals raises EngineError instead.

Every such transition is then replayed at every bidegree that holds a
class, on the replay's own family images (Page.family_image), and any
disagreement raises.  Each differential is rho-linear (the Adams d2
drops only shifted terms that torsion kills, which its model reports as
zero), so a family's image, shifted by the rho exponent, serves its
whole tower; an image term outside the target basis must be zero by the
page's class_status.  The per-family replay (_tower_replay) checks each
family's classes at once, one bit per rho exponent, as a partial
matching.  The class-at-a-time homology routine
(Homology.column_homology: one column at a time, its bases, matrices
and echelons each filled by one pass, gf2 elimination per degree on
integer class positions) computes the Adams page-2 to page-3 step,
whose images are genuine sums, and cross-checks the per-family replay
in "all" mode (_class_replay).  Monomials are built only on the read
side and for error messages.

Only pages r = 2^n - 1 carry differentials, and run_bockstein walks
exactly those.  Inside the window each page is one tower rule at that
page (bockstein_tower), which builds E1 and predicts the stable page;
its differential is bockstein_rule.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import (
    MW_LIMIT,
    P_STEP,
    V_STEP,
    V_TOP,
    Bidegree,
    MissingRule,
    Monomial,
    family_c0,
    family_min_v,
    family_monomial,
    family_of,
    family_p,
    torsion_bound,
)
from .gf2 import Echelon, F2Matrix, F2Vector, SubspaceNotContained, kernel_basis, quotient_basis
from .report import Report

# "auto" adds the class-at-a-time replay up to this window size
DENSE_VERIFY_LIMIT = 96


def c_max_for(mw_max: int) -> int:
    if mw_max < 0:
        raise ValueError("mw_max >= 0")
    return 2 * mw_max + 8


class EngineError(Exception):
    """The computed pages violate a structural invariant."""


class RepresentativeNotMonomial(EngineError):
    """A homology class has no single-monomial representative."""


# ---------------------------------------------------------------------------
# columns of rho-free families

@dataclass
class Column:
    fams: list[int]  # packed families, ascending: the column order


def families(mw_max: int, normal: bool) -> dict[int, Column]:
    """The rho-free families by Milnor-Witt column, mw <= mw_max + 1.

    All of them, or with normal=True the normal ones only: the unit, and
    every P^p v_n ... whose minimal v index n has p a multiple of
    2^(n-1).  Families are packed ints (algebra.family_of), built by
    integer addition of the generator steps and sorted as ints.
    """
    c_max_for(mw_max)  # rejects a negative window
    if mw_max > MW_LIMIT:
        raise ValueError(f"the window must be 0..{MW_LIMIT}, got {mw_max}")
    top = mw_max + 1
    per_mw: list[list[int]] = [[] for _ in range(top + 1)]
    vs = [(n, 2 ** n - 1, V_STEP[n]) for n in range(2, V_TOP + 1) if 2 ** n - 1 <= top]

    def rec(i: int, mw: int, f: int, p_step: int):
        # P powers in steps of p_step (0: the bare unit of the normal
        # families), then every extension by v_n with n >= vs[i]
        if p_step:
            for e in range(0, (top - mw) // 4 + 1, p_step):
                per_mw[mw + 4 * e].append(f + P_STEP * e)
        else:
            per_mw[mw].append(f)
        for j in range(i, len(vs)):
            n, d, step = vs[j]
            if mw + d > top:
                break
            rec(j, mw + d, f + step, p_step or 2 ** (n - 1))

    rec(0, 0, 0, 0 if normal else 1)
    return {mw: Column(sorted(fams)) for mw, fams in enumerate(per_mw)}


def enumerate_families(mw_max: int) -> dict[int, Column]:
    """All rho-free families of the window, by mw."""
    return families(mw_max, normal=False)


def _sweep(entries: Iterable, degrees: Sequence[int]) -> dict[int, list[int]]:
    """Per Chow degree of `degrees` (ascending), the positions of the
    (position, c0, (lo, hi)) entries with a class there, in one pass."""
    out: list[list[int]] = [[] for _ in degrees]
    for pos, c0, (lo, hi) in entries:
        for positions in out[bisect_left(degrees, c0 + lo) : bisect_left(degrees, c0 + hi)]:
            positions.append(pos)
    return dict(zip(degrees, out))


def _column_dims(per: dict[int, tuple[int, int]], c_max: int) -> dict[int, int]:
    """The number of classes at every Chow degree c <= c_max of one
    column's alive intervals, degrees without classes left out."""
    diff = [0] * (c_max + 2)
    for fam, (lo, hi) in per.items():
        c0 = family_c0(fam)
        a = c0 + lo
        b = min(c0 + hi, c_max + 1)
        if a <= c_max and a < b:
            diff[a] += 1
            diff[b] -= 1
    out: dict[int, int] = {}
    acc = 0
    for c in range(c_max + 1):
        acc += diff[c]
        if acc:
            out[c] = acc
    return out


# ---------------------------------------------------------------------------
# towers and pages

# a run of differentials: (family, lo, hi, [(target family, rho delta)])
DiffRun = tuple[int, int, int, list[tuple[int, int]]]


@dataclass
class Page:
    """One spectral-sequence page over the truncated window.

    `alive` holds, per column and packed family (see algebra.family_of),
    the one rho-interval (lo, hi) of the family's surviving classes
    fam * rho^b, lo <= b < hi; `zero` holds the one interval of its
    classes already hit (known-zero classes).  A family without such
    classes is absent.  `differential` acts on this page (None once the
    sequence has collapsed): a Differential, from bockstein_rule,
    adams.d2_rule or adams.adams_rule; the tower transition (_advance)
    and both replays read it through family_image.
    On an "adams" page the Ext model's ring torsion holds as well: a
    class past its family's torsion_bound is zero.  The Chow truncation
    c_max follows from max_mw.  basis_at and status speak Monomials;
    differentials and window_towers give packed families
    and rho intervals to every reader that walks a page, which names a
    class with family_monomial.

    A page is read-only once built: a page transition (_advance) hands
    the next page the very column dicts of `alive` and `zero` that no
    edge touches, and dataclasses.replace shares the tables, so a
    caller that wants to edit a column copies it first.  It caches only
    differentials() and the tracer's dims_column; the column and class
    listings are rebuilt from the intervals on every call.
    """

    kind: str
    label: str
    r: int
    max_mw: int
    columns: dict[int, Column]
    alive: dict[int, dict[int, tuple[int, int]]]
    zero: dict[int, dict[int, tuple[int, int]]] = field(default_factory=dict)
    differential: Differential | None = None
    c_max: int = field(init=False)
    # caches; init=False so that dataclasses.replace starts them afresh
    _dims_cache: dict[int, dict[int, int]] = field(
        default_factory=dict, init=False, repr=False
    )
    _differentials: list[DiffRun] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        self.c_max = c_max_for(self.max_mw)

    @property
    def c_internal(self) -> int:
        """An alias of c_max, read by perfbench/tracer.py."""
        return self.c_max

    # -- basis ----------------------------------------------------------
    def window_columns(self) -> Iterable[tuple[int, list[tuple[int, int, tuple[int, int]]]]]:
        """(mw, _column_alive(mw)) per column of the reporting window,
        ascending in mw."""
        for mw in sorted(self.alive):
            if mw <= self.max_mw:
                yield mw, self._column_alive(mw)

    def _column_alive(self, mw: int) -> list[tuple[int, int, tuple[int, int]]]:
        """(family, c0, (lo, hi)) for the alive families of column mw in
        column order, which is ascending family order; built afresh on
        every call."""
        per = self.alive.get(mw, {})
        return [(fam, family_c0(fam), per[fam]) for fam in sorted(per)]

    def basis_at(self, mw: int, c: int) -> list[Monomial]:
        """Ordered class representatives at one bidegree, in column
        order: a scan of the column's intervals that builds no table."""
        column = self._column_alive(mw)
        return [family_monomial(f, c - c0) for f, c0, (lo, hi) in column if lo <= c - c0 < hi]

    def dim_at(self, mw: int, c: int) -> int:
        return sum(lo <= c - c0 < hi for _, c0, (lo, hi) in self._column_alive(mw))

    def dims_column(self, mw: int) -> dict[int, int]:
        """_column_dims of column mw, cached."""
        cached = self._dims_cache.get(mw)
        if cached is None:
            cached = self._dims_cache[mw] = _column_dims(self.alive.get(mw, {}), self.c_max)
        return cached

    def status(self, m: Monomial) -> str:
        """'alive', 'zero', or 'absent' for a monomial on this page."""
        return self.class_status(m.bidegree.mw, family_of(m), m.rho_exp)

    def class_status(self, mw: int, fam: int, b: int) -> str:
        """status of the class fam * rho^b of column mw."""
        lo, hi = self.alive.get(mw, {}).get(fam, (b, b))
        if lo <= b < hi:
            return "alive"
        lo, hi = self.zero.get(mw, {}).get(fam, (b, b))
        if lo <= b < hi:
            return "zero"
        if self.kind == "adams":
            t = torsion_bound(fam)
            if t is not None and b >= t:
                return "zero"
        return "absent"

    # -- differential ----------------------------------------------------
    def family_image(self, fam: int) -> tuple[list[tuple[int, int]], int]:
        """The differential on the tower of a rho-free family.

        Returns (terms, threshold): for b >= threshold the class
        fam * rho^b maps to the sum of tfam * rho^(b + delta) over the
        (tfam, delta) terms, sorted by family, and below threshold it
        maps to zero; ([], 0) without differential.  Only the Adams rule
        pages from 3 on have a threshold above 0.  The d2 image is that
        of the rho-free family, where torsion kills no term; a shifted
        term that torsion kills is one the Ext model makes zero
        (class_status on an "adams" page), so callers must check every
        term outside the target basis against class_status.
        """
        return ([], 0) if self.differential is None else self.differential.family_image(fam)

    def diff_shift(self) -> Bidegree:
        return Bidegree(-1, 0) if self.differential is None else self.differential.shift

    def differentials(self) -> list[DiffRun]:
        """All nonzero differentials on this page inside the reporting
        window, run-length encoded (_family_differentials on each alive
        interval, clipped to the window), ordered by column, family
        position and rho exponent; computed once per page."""
        if self._differentials is not None:
            return self._differentials
        out: list[DiffRun] = []
        shift = self.diff_shift().mw
        for mw, column in self.window_columns():
            for fam, c0, (lo, hi) in column:
                run = (lo, min(hi, self.c_max - c0 + 1))
                out += self._family_differentials(fam, run, self.family_image(fam), mw + shift)
        self._differentials = out
        return out

    def _family_differentials(
        self, fam: int, run: tuple[int, int], image: tuple[list[tuple[int, int]], int], tmw: int
    ) -> list[DiffRun]:
        """The maximal runs (fam, lo, hi, targets) of nonzero
        differentials on fam * rho^b, b in run: each such class maps to
        the sum of the alive classes tfam * rho^(b + delta) of column tmw
        over the (tfam, delta) of targets, in term order.  image is
        family_image(fam), passed in so that a caller asks for it once.
        The run, clipped to the image threshold, is cut only where some
        term's alive target interval starts or ends, so touching runs
        differ in targets; a term that is not alive must be zero on the
        page (_check_zero), else EngineError.  differentials() and the
        tower transition (_advance, margin column included) both read
        their runs here."""
        terms, threshold = image
        lo, hi = max(run[0], threshold), run[1]
        if not terms or lo >= hi:
            return []
        # each term's alive interval in source rho exponents, (lo, lo)
        # for a term that is not alive, and its ends inside the run
        per = self.alive.get(tmw, {})
        alive, inner = [], []
        for tfam, delta in terms:
            tlo, thi = per.get(tfam, (lo + delta, lo + delta))
            tlo, thi = tlo - delta, thi - delta
            alive.append((tlo, thi))
            if lo < tlo < hi:
                inner.append(tlo)
            if lo < thi < hi:
                inner.append(thi)
        cuts = [lo, *sorted(set(inner)), hi] if inner else (lo, hi)
        out = []
        for a, b in zip(cuts, cuts[1:]):
            targets = []
            for (tfam, delta), (tlo, thi) in zip(terms, alive):
                if tlo <= a < thi:
                    targets.append((tfam, delta))
                else:
                    self._check_zero(tmw, tfam, a + delta, b + delta)
            if targets:
                out.append((fam, a, b, targets))
        return out

    def _check_zero(self, tmw: int, tfam: int, lo: int, hi: int) -> None:
        """Raise unless tfam * rho^tb is zero on the page for every tb in
        [lo, hi): the classes outside its zero interval go through
        class_status."""
        zlo, zhi = self.zero.get(tmw, {}).get(tfam, (hi, hi))
        for tb in [*range(lo, min(zlo, hi)), *range(max(zhi, lo), hi)]:
            if self.class_status(tmw, tfam, tb) != "zero":
                term = family_monomial(tfam, tb)
                raise EngineError(f"image term {term} is neither alive nor hit")

    # -- read side --------------------------------------------------------
    def window_towers(self) -> Iterable[tuple[int, int, int, int, bool]]:
        """(mw, family, lo, hi, truncated) per tower fam * rho^b,
        lo <= b < hi, of the reporting window, in column order, one column
        listing per column; truncated when the Chow truncation rather
        than torsion cut it."""
        for mw, column in self.window_columns():
            for fam, c0, (lo, hi) in column:
                yield mw, fam, lo, hi, hi > self.c_max - c0

    def window_classes(self) -> Iterable[tuple[int, list, list[tuple[int, list[int]]]]]:
        """(mw, column, classes) per column of the reporting window, one
        column listing each: column is _column_alive(mw), and classes
        the (c, positions) per Chow degree c <= c_max with classes,
        ascending in c, where positions index column.  They come from
        one _sweep over the column's intervals, and each degree's count
        must equal the independent difference-array count of
        _column_dims, else EngineError."""
        for mw, column in self.window_columns():
            entries = [(pos, c0, run) for pos, (_, c0, run) in enumerate(column)]
            swept = _sweep(entries, range(self.c_max + 1))
            dims = _column_dims(self.alive.get(mw, {}), self.c_max)
            for c, positions in swept.items():
                if len(positions) != dims.get(c, 0):
                    raise EngineError(f"basis at mw={mw}, c={c} disagrees with the alive runs")
            yield mw, column, [(c, positions) for c, positions in swept.items() if positions]


def tower_page(
    kind: str, label: str, r: int, mw_max: int, columns: dict[int, Column], tower: Callable
) -> Page:
    """A page with no differential whose alive intervals follow one
    tower rule: tower(fam) gives the (lo, hi) of each family of
    `columns`, None for a family that is not alive.  An interval without
    0 <= lo < hi raises EngineError."""
    alive: dict[int, dict[int, tuple[int, int]]] = {}
    for mw, col in columns.items():
        per = alive[mw] = {}
        for fam in col.fams:
            run = tower(fam)
            if run is not None:
                per[fam] = run
    for lo, hi in set().union(*(per.values() for per in alive.values())):  # rules share them
        if not 0 <= lo < hi:
            fam = next(f for per in alive.values() for f, run in per.items() if run == (lo, hi))
            raise EngineError(f"{label}: {family_monomial(fam)} has run ({lo}, {hi})")
    return Page(kind=kind, label=label, r=r, max_mw=mw_max, columns=columns, alive=alive)


# ---------------------------------------------------------------------------
# differential rules

@dataclass(frozen=True)
class Differential:
    """A page differential: it shifts (mw, c) by `shift`, and
    family_image(fam) is its image on a whole tower (Page.family_image)."""

    shift: Bidegree
    family_image: Callable[[int], tuple[list[tuple[int, int]], int]]


def bockstein_rule(n: int) -> Differential:
    """Page 2^n - 1: d(P^q) = rho^(2^n - 1) v_n, q = 2^(n-2), extended by
    Leibniz; rho and every v_k are cycles.  With m the family's least v
    index, P^p ... has no image when p = 0 or m < n (P^p rides on the
    v_m torsion family, a cycle); else P^p = (P^q)^(p/q) needs q | p (or
    MissingRule), and Leibniz gives (p/q) d(P^q) P^(p-q): for p/q odd
    the one term fam + V_STEP[n] - P_STEP q at rho^(2^n - 1), else none.
    rho is a cycle, so the threshold is 0."""
    if n < 2:
        raise ValueError("n >= 2")
    q, r = 2 ** (n - 2), 2 ** n - 1
    move = V_STEP[n] - P_STEP * q

    def family_image(fam: int) -> tuple[list[tuple[int, int]], int]:
        p = family_p(fam)
        if not p:
            return [], 0
        m = family_min_v(fam)
        if m is not None and m < n:
            return [], 0
        if p % q:
            raise MissingRule(f"P^{p} is not a power of the block generator P^{q}")
        return ([(fam + move, r)] if (p // q) % 2 else []), 0

    return Differential(Bidegree(-1, 0), family_image)


def bockstein_tower(n: int, c_max: int) -> Callable[[int], tuple[int, int] | None]:
    """The tower rule, for tower_page, of the page that holds the result
    of d_(2^n - 1): n = 1 is E1, n = V_TOP the stable page of any window.
    A family with least v index m <= n and P exponent p keeps (0, 2^m - 1)
    if 2^(m-1) divides p; any other keeps its full truncated tower
    (0, c_max - c0 + 1) if 2^(n-1) divides p; the rest are dead (None).
    On full towers d(P^(2^(m-2))) = rho^(2^m - 1) v_m (bockstein_rule,
    m <= n) maps each source tower onto the whole of its target's tower
    above rho^(2^m - 1): the source dies, the target keeps length
    2^m - 1.  Interval tuples are shared, by c0 for full towers and by m
    for short ones."""
    full = {c0: (0, c_max - c0 + 1) for c0 in range(c_max + 1)}
    short = {m: (0, 2 ** m - 1) for m in range(2, n + 1)}

    def tower(fam: int) -> tuple[int, int] | None:
        if n > 1:  # at n = 1 no family has m <= n, and 2^0 divides every p
            m = family_min_v(fam)
            if m is not None and m <= n:
                return None if family_p(fam) % 2 ** (m - 1) else short[m]
            if family_p(fam) % 2 ** (n - 1):
                return None
        return full.get(family_c0(fam))

    return tower


# ---------------------------------------------------------------------------
# page transitions

def _advance(page: Page) -> tuple[dict[int, dict[int, tuple[int, int]]], ...]:
    """Homology of the page differential, tower by tower, in one sweep
    over the columns that visits each source column before its target
    column: descending mw, as every rule lowers mw by one.

    Each alive family's image (family_image) must be one term, raising
    the rho exponent by r at least on a Bockstein page r, and no two
    families may share an image family, else EngineError: so every
    bidegree's matrix is a direct sum of 1x1 blocks.  The family loses
    its run of nonzero differentials (Page._family_differentials, zero
    check included), and its target, in the target column, that run
    shifted by the rho delta.  A family's two cuts must not meet (d o d
    = 0); what survives, and the zero interval joined with the new hits,
    must each be one interval, else EngineError naming the page, the
    column and the family.  verify_transition replays it.

    The new tables list the columns in ascending mw.  Pages are
    read-only, so they share with the page, as the same dict object,
    every column that no edge leaves or enters, alive and zero alike.
    """
    d = page.differential
    floor = page.r if page.kind == "bockstein" else None  # the least rho delta
    shift = page.diff_shift().mw
    name = family_monomial
    order = sorted(page.alive)
    new_alive: dict[int, dict[int, tuple[int, int]]] = {}
    new_zero: dict[int, dict[int, tuple[int, int]]] = {}
    carry: dict[int, dict] = {}  # target column -> target -> (source, rho delta, source run)
    for mw in order[::-1] if shift < 0 else order:
        per_fam, zero = page.alive[mw], page.zero.get(mw, {})
        into = carry.setdefault(mw + shift, {})
        killed: dict[int, tuple[int, int] | None] = {}
        # d.family_image is Page.family_image less its None check, which
        # costs as much as the image itself on most families
        for fam, run in per_fam.items() if d is not None else ():
            image = d.family_image(fam)
            if not image[0]:
                continue
            if len(image[0]) != 1:
                raise EngineError(f"family image of {name(fam)} is not a single monomial")
            ((tfam, delta),) = image[0]
            if floor is not None and delta < floor:
                raise EngineError(f"rule image {name(tfam, delta)} has rho exponent below r = {floor}")
            if tfam in into:
                raise EngineError(
                    f"families {name(into[tfam][0])} and {name(fam)} share image {name(tfam)}"
                )
            runs = page._family_differentials(fam, run, image, mw + shift)
            killed[fam] = runs[0][1:3] if runs else None
            into[tfam] = (fam, delta, killed[fam])
        hits = carry.pop(mw, {})
        if not killed and per_fam.keys().isdisjoint(hits):
            new_alive[mw], new_zero[mw] = per_fam, zero
            continue
        na = new_alive[mw] = {}  # afresh: a dict copy keeps the dead families' slots
        nz = new_zero[mw] = zero  # copied at the column's first hit
        for fam, run in per_fam.items():
            kill, (_, delta, hit) = killed.get(fam), hits.get(fam, (0, 0, None))
            if hit:  # shifted; max and min keep the run's own ints, shared by the zero table
                hit = (max(run[0], hit[0] + delta), min(run[1], hit[1] + delta))
            if not (kill or hit):
                na[fam] = run
                continue
            cuts = sorted(filter(None, (kill, hit)))
            if len(cuts) == 2 and cuts[0][1] > cuts[1][0]:
                raise EngineError(f"d o d != 0 at mw={mw} family {name(fam)}")
            ends = [run[0], *(x for cut in cuts for x in cut), run[1]]
            left = [(a, b) for a, b in zip(ends[::2], ends[1::2]) if a < b]
            if len(left) > 1:
                raise EngineError(
                    f"{page.label}: the surviving classes of {name(fam)} at mw={mw} "
                    f"are not one rho-interval: {left}"
                )
            if left:
                na[fam] = left[0]
            if hit:
                if nz is zero:
                    nz = new_zero[mw] = dict(zero)
                zlo, zhi = nz.get(fam, hit)
                if hit[0] > zhi or zlo > hit[1]:
                    raise EngineError(
                        f"{page.label}: the zero classes of {name(fam)} at mw={mw} "
                        f"are not one rho-interval: {(zlo, zhi)} and {hit}"
                    )
                nz[fam] = (min(zlo, hit[0]), max(zhi, hit[1]))
    return {mw: new_alive[mw] for mw in order}, {mw: new_zero[mw] for mw in order}


@dataclass
class _ColumnTable:
    """One column of a page by family position: the alive families
    (Page._column_alive) with their Chow degrees, their positions and
    their bases (the positions at each Chow degree, [] past the last
    class: one _sweep, the page's only class listing), and per degree
    the image bits of its classes (maps) and the echelon of the nonzero
    ones (echelons), filled for the whole column at once (Homology._fill)."""

    alive: list[tuple[int, int, tuple[int, int]]]
    pos_of: dict[int, int]
    bases: defaultdict[int, list[int]]
    maps: dict[int, list[int]] | None = None
    echelons: dict[int, Echelon] = field(default_factory=dict)


class Homology:
    """Homology of a page differential one column at a time, through gf2
    on integer classes.

    A class at (mw, c) is the position of its family in the column's
    alive families; its rho exponent is b = c - c0.  Column mw's
    homology (column_homology) keeps the tables of columns mw - 1 to
    mw + 1 only, so an ascending sweep fills each column and eliminates
    each matrix once; a column out of that order just recomputes what it
    needs.  The homology is read off the rank of the outgoing matrix,
    the boundary echelon and the zero columns of the outgoing matrix,
    which are the cycles; a degree with no boundary and a zero outgoing
    matrix needs no elimination, as each class is its own
    representative.  It computes the Adams page-2 step and, in "all"
    mode, replays the tower transitions (_class_replay).
    """

    def __init__(self, page: Page):
        self.page = page
        self.shift = page.diff_shift()
        self._columns: dict[int, _ColumnTable] = {}

    def column(self, mw: int) -> _ColumnTable:
        table = self._columns.get(mw)
        if table is None:
            alive = self.page._column_alive(mw)
            entries = [(pos, c0, run) for pos, (_, c0, run) in enumerate(alive)]
            top = max((c0 + hi for _, c0, (_, hi) in alive), default=0)
            table = self._columns[mw] = _ColumnTable(
                alive,
                {fam: pos for pos, (fam, _, _) in enumerate(alive)},
                defaultdict(list, _sweep(entries, range(top))),
            )
        return table

    def _fill(self, mw: int) -> _ColumnTable:
        """Column mw's table, its maps (_fill_maps) and echelons filled
        once: the echelon at c, of the nonzero map columns, has the rank
        of the differential out of (mw, c) and spans the boundaries at
        (mw, c) + shift; a zero map has none."""
        table = self.column(mw)
        if table.maps is None:
            table.maps = self._fill_maps(mw, table)
            for c, cols in table.maps.items():
                if any(cols):
                    echelon = table.echelons[c] = Echelon()
                    for bits in filter(None, cols):
                        echelon.insert(bits)
        return table

    def _fill_maps(self, mw: int, table: _ColumnTable) -> dict[int, list[int]]:
        """The page differential out of column mw, per degree c of its
        bases one int per class of basis(mw, c): the image bits over the
        basis of the target bidegree (mw, c) + shift.  One pass over the
        families with an image takes each image once (Page.family_image)
        and visits only its classes at or above the rho threshold; a
        degree that no image reaches reads zeros.  A term outside the
        target basis must be zero on the page, else EngineError."""
        page, sc = self.page, self.shift.c
        tmw = mw + self.shift.mw
        target = self.column(tmw)
        bases, tbases = table.bases, target.bases
        maps = {c: [0] * len(mid) for c, mid in bases.items()}
        for pos, (fam, c0, (lo, hi)) in enumerate(table.alive):
            terms, threshold = page.family_image(fam)
            start = max(lo, threshold)
            for tfam, delta in terms:
                # the rho exponents whose term is in the target basis: none
                # off the target column or Chow degree
                tpos = target.pos_of.get(tfam)
                tlo = thi = start
                if tpos is not None and target.alive[tpos][1] + delta == c0 + sc:
                    tlo, thi = target.alive[tpos][2]
                    tlo, thi = tlo - delta, thi - delta
                a, z = max(start, tlo), min(hi, thi)
                if a >= z:
                    a = z = hi
                for b in [*range(start, a), *range(z, hi)]:
                    if page.class_status(tmw, tfam, b + delta) != "zero":
                        term = family_monomial(tfam, b + delta)
                        raise EngineError(f"image term {term} is neither alive nor hit")
                for c in range(c0 + a, c0 + z):
                    maps[c][bisect_left(bases[c], pos)] ^= 1 << bisect_left(tbases[c + sc], tpos)
        return maps

    def column_homology(
        self, mw: int, sums_allowed: bool = False
    ) -> Iterator[tuple[int, list[int], list[int], Echelon]]:
        """The homology at every degree c <= c_max of column mw that
        holds classes, ascending: (c, basis, reps, boundaries).

        basis is the classes at (mw, c) as family positions; reps the
        coordinates, in that basis, of the single-class coset
        representatives (unit_representatives); boundaries the echelon
        of the boundary span, that of (mw, c) - shift, which callers must
        not change.  The outgoing matrix and its rank come from column
        mw's table and the boundaries from column mw - shift's, each
        filled (_fill) at the column's first degree, column mw first.  A
        boundary that is not a cycle raises gf2.SubspaceNotContained; a
        class with no single-class representative raises
        RepresentativeNotMonomial, or is left out when sums_allowed; an
        image term that is neither a basis class nor zero on the page
        raises EngineError (_fill_maps).
        """
        reach = abs(self.shift.mw)
        for k in [k for k in self._columns if not mw - reach <= k <= mw + reach]:
            del self._columns[k]
        bases = self.column(mw).bases
        degrees = [c for c, mid in bases.items() if mid and c <= self.page.c_max]
        if not degrees:
            return
        table, source, sc = self._fill(mw), self._fill(mw - self.shift.mw), self.shift.c
        for c in degrees:
            mid, out = bases[c], table.maps[c]
            boundaries = source.echelons.get(c - sc) or Echelon()
            if not boundaries.pivots and not any(out):  # each class represents itself
                yield c, mid, list(range(len(mid))), boundaries
                continue
            for p, row in boundaries.pivots.items():
                image, todo = out[p], row ^ (1 << p)
                while todo:
                    low = todo & -todo
                    image ^= out[low.bit_length() - 1]
                    todo ^= low
                if image:
                    raise SubspaceNotContained(
                        f"boundary {F2Vector(len(mid), row).support()} at mw={mw}, c={c} is not a cycle"
                    )
            want = len(mid) - len(table.echelons.get(c, ())) - boundaries.rank
            reps = unit_representatives(out, boundaries, want)
            if len(reps) < want and not sums_allowed:
                v = _sum_representative(out, boundaries, reps)
                raise RepresentativeNotMonomial(
                    f"no single-monomial representative at mw={mw}, c={c}: {v.coeffs()}"
                )
            yield c, mid, reps, boundaries


def unit_representatives(out: list[int], boundaries: Echelon, want: int) -> list[int]:
    """The first `want` indices i, ascending, such that class i is a
    cycle (out[i] == 0) whose unit vector is independent of the
    boundaries and of the units already picked.

    These are the representatives gf2.quotient_basis takes first from a
    kernel basis, because e_i lies in the kernel exactly when column i
    of the outgoing matrix is zero; the kernel vectors it tries next
    never add a single class.  Fewer than `want` means some class needs
    a sum of classes.  A unit outside the boundary support is independent
    of the boundaries and of every other unit; the echelon is copied only
    for a unit inside the support that is not a boundary itself."""
    reps: list[int] = []
    acc = None  # the boundaries and the units picked inside their support
    for i in [i for i, bits in enumerate(out) if not bits] if want > 0 else ():
        if (boundaries.support >> i) & 1:
            if boundaries.contains(1 << i):
                continue
            acc = boundaries.copy() if acc is None else acc
            if not acc.insert(1 << i):
                continue
        reps.append(i)
        if len(reps) == want:
            break
    return reps


def _sum_representative(out: list[int], boundaries: Echelon, reps: list[int]) -> F2Vector:
    """A cycle outside the span of the boundaries and the unit
    representatives: the first representative that quotient_basis gives
    on the kernel of the outgoing matrix.  Only for the error message."""
    n = len(out)
    rows = [0] * max(out).bit_length()
    for j, bits in enumerate(out):
        while bits:
            low = bits & -bits
            rows[low.bit_length() - 1] |= 1 << j
            bits ^= low
    acc = boundaries.copy()
    for i in reps:
        acc.insert(1 << i)
    kernel = kernel_basis(F2Matrix(n, tuple(F2Vector(n, b) for b in rows)))
    return quotient_basis(acc, kernel)[0]


def _class_replay(page: Page, new_alive, new_zero) -> int:
    """Replay a page transition (new_alive, new_zero) a class at a time
    against Homology.column_homology, column by column in ascending mw;
    returns the number of eligible bidegrees, those (mw, c <= c_max) that
    hold a class.  Three independent checks raise EngineError (or
    RepresentativeNotMonomial): the survivors, the newly hit classes
    inside the boundary span, and the boundary rank.  A column's claimed
    survivors and new hits are tabled like its bases, by one _sweep over
    the new alive intervals and one over the new zero intervals less the
    old ones; a column whose alive and zero tables are the page's own
    dicts claims its bases and no hit.  A difference of two intervals may
    be two pieces, so any table is judged."""
    homology, count = Homology(page), 0

    def name(mw: int, pos: int, c: int) -> str:
        fam, c0, _ = homology.column(mw).alive[pos]
        return str(family_monomial(fam, c - c0))

    for mw in sorted(page.alive):
        table = homology.column(mw)
        na, nz, oz = (per.get(mw, {}) for per in (new_alive, new_zero, page.zero))
        if na is page.alive.get(mw) and nz is page.zero.get(mw):
            survivors, hits = table.bases, {}  # handed over unchanged
        else:
            fams = list(enumerate(table.alive))
            alive = [(pos, c0, na[fam]) for pos, (fam, c0, _) in fams if fam in na]
            hit = []
            for pos, (fam, c0, _) in fams:
                new, old = nz.get(fam), oz.get(fam)
                if new is not None and new is not old:
                    lo, hi = new
                    olo, ohi = old or (hi, hi)
                    hit += [(pos, c0, (lo, min(hi, olo))), (pos, c0, (max(lo, ohi), hi))]
            degrees = sorted(table.bases)
            survivors, hits = _sweep(alive, degrees), _sweep(hit, degrees)
        for c, mid, got, ech in homology.column_homology(mw):
            count += 1
            expected, newly_hit = survivors[c], hits.get(c, [])
            # surviving classes are a subset of the old ones, in the same order
            if [mid[i] for i in got] != expected:
                raise EngineError(
                    f"homology mismatch at mw={mw}, c={c}: gf2 gives "
                    f"{[name(mw, mid[i], c) for i in got]}, towers give "
                    f"{[name(mw, pos, c) for pos in expected]}"
                )
            # classes newly hit must span exactly the boundary space
            spanned = {mid[i] for i in ech.units()} if newly_hit else ()
            for pos in newly_hit:
                if pos not in spanned:
                    raise EngineError(
                        f"class {name(mw, pos, c)} marked hit but outside boundary span"
                    )
            if len(newly_hit) != ech.rank:
                raise EngineError(f"boundary rank mismatch at mw={mw}, c={c}")
    return count


def _bits(lo: int, hi: int) -> int:
    """The int with bits lo <= b < hi set, those below 0 left out."""
    lo = max(lo, 0)
    return (1 << hi) - (1 << lo) if lo < hi else 0


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _tower_replay(page: Page, new_alive, new_zero) -> int:
    """Replay a tower transition a family at a time; returns the number
    of eligible bidegrees, those (mw, c <= c_max) that hold a class.

    When each class maps to at most one class, the homology at every
    bidegree is read off that partial matching: the hit classes must be
    cycles, and the cycles not hit survive.  One int per family, one bit
    per rho exponent, holds its classes at c <= c_max.  One sweep over
    the columns in the order of _advance asks Page.family_image itself
    for every alive family and raises EngineError when a class's image
    has two terms in the target basis, when two sources hit one class,
    when an image term off the target's alive interval (or Chow degree)
    is not zero by class_status, or when a family's survivors or new
    hits differ from new_alive or new_zero less the page's zero; a class
    both a source and a hit raises gf2.SubspaceNotContained."""
    shift = page.diff_shift()
    image, name, c_max = page.family_image, family_monomial, page.c_max
    order = sorted(page.alive)
    carry: dict[int, dict[int, tuple[int, int]]] = {}  # target column -> target -> (hit bits, source)
    eligible = 0
    for mw in order[::-1] if shift.mw < 0 else order:
        per, tmw = page.alive[mw], mw + shift.mw
        target, tzero = page.alive.get(tmw, {}), page.zero.get(tmw, {})
        into, hits = carry.setdefault(tmw, {}), carry.pop(mw, {})
        outs: dict[int, int] = {}  # source -> the bits of its classes with a nonzero image
        for fam, run in per.items():
            terms, threshold = image(fam)
            if not terms:
                continue
            c0 = family_c0(fam)
            src, out = _bits(max(run[0], threshold), min(run[1], c_max - c0 + 1)), 0
            for tfam, delta in terms:
                tlo, thi = target.get(tfam, (0, 0))
                if family_c0(tfam) + delta != c0 + shift.c:
                    tlo = thi = 0  # at another Chow degree: never in the target basis
                on = src & _bits(tlo - delta, thi - delta)
                zlo, zhi = tzero.get(tfam, (0, 0))
                off = src & ~on & ~_bits(zlo - delta, zhi - delta)
                while off:
                    b = _lowest(off)
                    if page.class_status(tmw, tfam, b + delta) != "zero":
                        term = name(tfam, b + delta)
                        raise EngineError(f"image term {term} is neither alive nor hit")
                    off &= off - 1
                if not on:
                    continue
                if on & out:
                    raise EngineError(f"family image of {name(fam)} is not a single monomial")
                out |= on
                hit = on << delta if delta >= 0 else on >> -delta
                got, first = into.get(tfam, (0, fam))
                if got & hit:
                    both = name(tfam, _lowest(got & hit))
                    raise EngineError(f"families {name(first)} and {name(fam)} share image {both}")
                into[tfam] = (got | hit, first)
            if out:
                outs[fam] = out
        na, nz, oz = new_alive.get(mw, {}), new_zero.get(mw, {}), page.zero.get(mw, {})
        if na is not per and not na.keys() <= per.keys():
            fam = min(na.keys() - per.keys())
            raise EngineError(f"homology mismatch at mw={mw}: {name(fam)} was not alive")
        degrees, shared = 0, na is per and nz is oz
        for fam, run in per.items():
            c0, (lo, hi) = family_c0(fam), run
            top = c_max - c0 + 1
            cls = (1 << min(hi, top)) - (1 << lo) if lo < top else 0
            degrees |= cls << c0
            out, hit = outs.get(fam, 0), hits[fam][0] & cls if fam in hits else 0
            if not (out or hit) and (shared or na.get(fam) is run and nz.get(fam) is oz.get(fam)):
                continue  # a cycle, not hit, claimed unchanged
            if out & hit:
                b = _lowest(out & hit)
                boundary = f"boundary {name(fam, b)} at mw={mw}, c={c0 + b}"
                raise SubspaceNotContained(f"{boundary} is not a cycle")
            keep, clip = cls & ~out & ~hit, _bits(0, top)
            claim = _bits(*na.get(fam, (0, 0))) & clip
            if keep != claim:
                b = _lowest(keep ^ claim)
                says = ("survives", "dies") if keep >> b & 1 else ("dies", "survives")
                raise EngineError(
                    f"homology mismatch at mw={mw}, c={c0 + b}: {name(fam, b)} {says[0]} "
                    f"by the replay, {says[1]} by the towers"
                )
            new = _bits(*nz.get(fam, (0, 0))) & ~_bits(*oz.get(fam, (0, 0))) & clip
            if new & ~hit:
                b = _lowest(new & ~hit)
                raise EngineError(f"class {name(fam, b)} marked hit but outside boundary span")
            if hit & ~new:
                raise EngineError(f"boundary rank mismatch at mw={mw}, c={c0 + _lowest(hit & ~new)}")
        eligible += degrees.bit_count()
    return eligible


def verify_transition(page: Page, new_alive, new_zero, mode: str, seed: int = 0) -> int:
    """Replay a tower transition; returns the number of eligible
    bidegrees checked.  'sample', a historical name kept for criterion 9,
    scale112 and --page-verify, runs the per-family replay
    (_tower_replay) at every one of them; 'all' then also runs the
    class-at-a-time replay (_class_replay), which must count the same;
    'off' replays nothing; any other mode raises ValueError.  Nothing is
    drawn at random: seed stays for the callers that pass it and no
    longer reaches the replay."""
    if mode not in ("all", "sample", "off"):
        raise ValueError(f"unknown replay mode {mode!r}")
    if mode == "off":
        return 0
    count = _tower_replay(page, new_alive, new_zero)
    if mode == "all" and _class_replay(page, new_alive, new_zero) != count:
        raise EngineError(f"{page.label}: the two replays count different bidegrees")
    return count


# ---------------------------------------------------------------------------
# the Bockstein run

def build_e1(mw_max: int) -> Page:
    """The first page: every monomial over rho, P, v_n, no relations,
    zero differential; bockstein_tower at n = 1."""
    tower = bockstein_tower(1, c_max_for(mw_max))
    return tower_page("bockstein", "bockstein-E1", 1, mw_max, enumerate_families(mw_max), tower)


def replay_mode(verify: str, mw_max: int) -> str:
    """The verify_transition mode of a run: 'all', 'sample' or 'off' as
    given, and 'auto' 'all' up to DENSE_VERIFY_LIMIT, 'sample' above it;
    both replay every eligible bidegree, 'all' twice.  Any other value
    raises ValueError."""
    if verify == "auto":
        return "all" if mw_max <= DENSE_VERIFY_LIMIT else "sample"
    if verify not in ("all", "sample", "off"):
        raise ValueError(f"unknown replay mode {verify!r}")
    return verify


def bockstein_page_indices(mw_max: int) -> list[int]:
    out = []
    n = 2
    while 2 ** n - 1 <= mw_max + 1:
        out.append(2 ** n - 1)
        n += 1
    return out


def run_bockstein(mw_max: int, *, verify: str = "auto", seed: int = 0) -> tuple[list[Page], Page]:
    """Run the sequence from E1 to its last differential page.

    Returns the pages that carry differentials (r = 2^n - 1) and the
    stable page after the last one; all other page indices are identity
    steps.  verify is as in replay_mode; seed no longer reaches the
    replay (verify_transition), which draws nothing at random.
    """
    verify = replay_mode(verify, mw_max)
    page = build_e1(mw_max)
    alive, zero = page.alive, page.zero
    pages: list[Page] = []
    for r in bockstein_page_indices(mw_max):
        rule = bockstein_rule(r.bit_length())  # r = 2^n - 1
        page = replace(
            page, label=f"bockstein-E{r}", r=r, alive=alive, zero=zero, differential=rule
        )
        alive, zero = _advance(page)
        verify_transition(page, alive, zero, verify, seed)
        pages.append(page)
    einfty = replace(
        page, label="bockstein-Einf", r=page.r + 1, alive=alive, zero=zero, differential=None
    )
    return pages, einfty


def closed_form_einfty(mw_max: int, columns: dict[int, Column]) -> Page:
    """The predicted stable page over `columns`: bockstein_tower at V_TOP."""
    tower = bockstein_tower(V_TOP, c_max_for(mw_max))
    return tower_page("bockstein", "bockstein-Einf-closed-form", 0, mw_max, columns, tower)


def compare_pages(computed: Page, predicted: Page, check: str) -> Report:
    """Dimension-by-bidegree and tower-by-tower equality inside the
    reporting window, which must be the same on both pages, in one pass
    over the columns: identical alive intervals have equal dimensions and
    towers (same window, so same c_max and truncation); any other column
    counts dimensions afresh (_column_dims, no page cache), and the
    first such column fails "towers", naming the first tower, in column
    order, of each page that the other lacks."""
    if computed.max_mw != predicted.max_mw:
        raise ValueError(f"windows differ: max_mw {computed.max_mw} and {predicted.max_mw}")

    def first_only(mine: dict[int, tuple[int, int]], theirs: dict[int, tuple[int, int]]) -> str:
        """The first tower of column `mine`, in column order, that `theirs` lacks."""
        fam = min((f for f, run in mine.items() if theirs.get(f) != run), default=None)
        lo, hi = mine.get(fam, (0, 0))
        return "none" if fam is None else f"{family_monomial(fam, lo)} of length {hi - lo}"

    bad_dims, bad = [], ""
    for mw in range(computed.max_mw + 1):
        alive = computed.alive.get(mw, {}), predicted.alive.get(mw, {})
        if alive[0] == alive[1]:
            continue
        if not bad:
            bad = f"mw={mw}: computed {first_only(*alive)}, predicted {first_only(*alive[::-1])}"
        got, want = (_column_dims(per, computed.c_max) for per in alive)
        if got != want:
            cs = sorted(c for c in got.keys() | want.keys() if got.get(c) != want.get(c))
            bad_dims.append((mw, {c: (got.get(c, 0), want.get(c, 0)) for c in cs}))
    rep = Report()
    detail = f"mismatched columns: {bad_dims[:4]}" if bad_dims else ""
    rep.add(check, "dimensions", not bad_dims, detail)
    rep.add(check, "towers", not bad, bad)
    return rep


def rho_inverted_check(einfty: Page) -> Report:
    """Only the 0-column may carry a tower that reaches the truncation
    boundary."""
    rep = Report()
    boundary = [(mw, fam, lo) for mw, fam, lo, _, truncated in einfty.window_towers() if truncated]
    bad = [str(family_monomial(fam, lo)) for mw, fam, lo in boundary if mw != 0]
    rep.add(
        "rho-inverted",
        "unbounded towers confined to mw=0",
        not bad,
        "" if not bad else f"boundary towers at {bad}",
    )
    rep.add(
        "rho-inverted",
        "mw=0 tower unbounded",
        any(mw == 0 for mw, _, _ in boundary),
        "",
    )
    return rep
