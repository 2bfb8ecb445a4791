"""The rho-Bockstein spectral sequence and the shared page engine.

A page stores, for every Milnor-Witt column, the rho-towers that are
alive: each rho-free monomial (a "family", packed into one int by
algebra.family_of and enumerated by families()) spans the tower of its
rho multiples, and the page keeps the interval of rho exponents alive
plus the interval already hit by earlier differentials.  A page carries
one differential (Page.differential): a Leibniz Derivation or an Adams
rule table (adams.RuleTable), both giving the image of a whole tower
(family_image).  Differentials on these pages send single monomials to
single monomials, so each page transition (_advance) decomposes into
tower-to-tower blocks, derived from family_image, whose homology is
interval arithmetic.

Every such transition is then replayed per bidegree through gf2
elimination of the page differential's matrices (at every bidegree up
to DENSE_VERIFY_LIMIT, on a deterministic sample above it) and any
disagreement raises.  The replay works on integers: a class is the
position of its family in the page's column plus its rho exponent, and
each family's image (Page.family_image) is computed once and shifted by
the rho exponent, which is exact because every differential the engine
runs is rho-linear (the Adams d2 drops only shifted terms that torsion
kills, which its model reports as zero).  An image term outside the
target basis must be zero by the page's class_status.  Family images
are exponent arithmetic on the packed ints; Monomials are built only on
the read side and for error messages.  One homology routine (Homology)
serves the dense and the sampled replay and the Adams page-2 to page-3
step, whose images are genuine sums.  It sweeps the columns in
ascending mw and fills each column's bases in one pass over its alive
runs; it eliminates each bidegree's differential matrix once (the
echelon gives the outgoing rank at its source and is the boundary span
at its target), takes the coset representatives from the zero columns
of the outgoing matrix (a cycle outside the boundary support needs no
elimination), and keeps three columns' tables at a time.  The replay
reads the survivors and new hits the transition claims from the same
kind of sweep over the new runs.

Only pages r = 2^n - 1 carry differentials; the page list returned by
run_bockstein walks exactly those, and the E-infinity page is compared
against the closed-form answer by the caller.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .algebra import (
    MW_LIMIT,
    P_STEP,
    V_STEP,
    V_TOP,
    Bidegree,
    Derivation,
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

if TYPE_CHECKING:
    from .adams import RuleTable

MW_MAX_DEFAULT = 64

# full per-bidegree verification below this window size, sampling above
DENSE_VERIFY_LIMIT = 96
# sampled replays skip instances whose three columns exceed this; the
# interval transition is still fully asserted there
SAMPLE_DIM_CAP = 1500
SAMPLES_PER_COLUMN = 6


def c_max_for(mw_max: int) -> int:
    if mw_max < 0:
        raise ValueError("mw_max >= 0")
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
    if not 0 <= mw_max <= MW_LIMIT:
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


def _alive_column(per: dict[int, Runs]) -> list[tuple[int, int, Runs]]:
    """(family, c0, runs) for the alive families of one column in column
    order, which is ascending family order."""
    return [(fam, family_c0(fam), per[fam]) for fam in sorted(per)]


def _chow_index(column: list[tuple[int, int, Runs]]) -> tuple:
    """A column's alive runs for Chow lookups: the (first, end, position)
    Chow intervals of every run sorted by first Chow degree, their first
    degrees, and the longest run."""
    entries = sorted(
        (c0 + lo, c0 + hi, pos) for pos, (_, c0, runs) in enumerate(column) for lo, hi in runs
    )
    longest = max((end - first for first, end, _ in entries), default=0)
    return [e[0] for e in entries], entries, longest


def _sweep(entries: Iterable, degrees: Sequence[int]) -> dict[int, list[int]]:
    """Per Chow degree of `degrees` (ascending), the positions of the
    (position, c0, runs) entries with a class there, in one pass."""
    out: dict[int, list[int]] = {c: [] for c in degrees}
    for pos, c0, runs in entries:
        for lo, hi in runs:
            for c in degrees[bisect_left(degrees, c0 + lo) : bisect_left(degrees, c0 + hi)]:
                out[c].append(pos)
    return out


def _column_dims(per: dict[int, Runs], c_max: int) -> dict[int, int]:
    """The number of classes at every Chow degree c <= c_max of one
    column's alive runs, degrees without classes left out."""
    diff = [0] * (c_max + 2)
    for fam, runs in per.items():
        c0 = family_c0(fam)
        for lo, hi in runs:
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


def _positions(index: tuple, c: int) -> list[int]:
    """The ascending column positions of the classes at Chow degree c."""
    firsts, entries, longest = index
    hi = bisect_right(firsts, c)
    lo = bisect_left(firsts, c - longest + 1)
    return sorted(pos for _, end, pos in entries[lo:hi] if c < end)


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


# a class on the read side: (rho-free family, rho exponent)
Class = tuple[Monomial, int]
# a run of differentials: (family, lo, hi, [(target family, rho delta)])
DiffRun = tuple[int, int, int, list[tuple[int, int]]]


@dataclass
class Page:
    """One spectral-sequence page over the truncated window.

    `alive` holds the surviving rho-intervals per packed family (see
    algebra.family_of), `zero` the intervals already hit (known-zero
    classes).  `differential` acts on this page (None once the sequence
    has collapsed): a Leibniz Derivation or an Adams RuleTable, both
    answering `shift` and `family_image`; the tower transition
    (_advance) and the gf2 replay both read it through family_image.
    On an "adams" page the Ext model's ring torsion holds as well: a
    class past its family's torsion_bound is zero.  The Chow truncation
    c_max follows from max_mw.  The read side (basis_at, classes,
    towers, status) speaks Monomials: it gives a class as a (rho-free
    family, rho exponent) pair and builds one Monomial per family it
    reads, none per class.  differentials, column_towers and
    window_towers give packed families and rho intervals, one entry per
    run of classes, for the dump writer, the charts and the checks.

    A page is read-only once built: a page transition (_advance) hands
    the next page the very column dicts of `alive` and `zero` that no
    edge touches, and dataclasses.replace shares the tables, so a
    caller that wants to edit a column copies it first.
    """

    kind: str
    label: str
    r: int
    max_mw: int
    columns: dict[int, Column]
    alive: dict[int, dict[int, Runs]]
    zero: dict[int, dict[int, Runs]] = field(default_factory=dict)
    differential: Derivation | RuleTable | None = None
    c_max: int = field(init=False)
    # caches; init=False so that dataclasses.replace starts them afresh
    _alive_sorted: dict[int, list[tuple[int, int, Runs]]] = field(
        default_factory=dict, init=False, repr=False
    )
    _c0_index: dict[int, tuple] = field(default_factory=dict, init=False, repr=False)
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
    def alive_runs(self, mw: int, fam: int) -> Runs:
        return self.alive.get(mw, {}).get(fam, EMPTY)

    def window_columns(self) -> Iterable[tuple[int, list[tuple[int, int, Runs]]]]:
        """(mw, _column_alive(mw)) per column of the reporting window,
        ascending in mw."""
        for mw in sorted(self.alive):
            if mw <= self.max_mw:
                yield mw, self._column_alive(mw)

    def _column_alive(self, mw: int) -> list[tuple[int, int, Runs]]:
        """_alive_column of column mw, cached."""
        cached = self._alive_sorted.get(mw)
        if cached is None:
            cached = self._alive_sorted[mw] = _alive_column(self.alive.get(mw, {}))
        return cached

    def positions_at(self, mw: int, c: int) -> list[int]:
        """The classes at one bidegree as ascending positions of their
        families in _column_alive(mw); class order is position order."""
        index = self._c0_index.get(mw)
        if index is None:
            index = self._c0_index[mw] = _chow_index(self._column_alive(mw))
        return _positions(index, c)

    def basis_at(self, mw: int, c: int) -> list[Monomial]:
        """Ordered class representatives at one bidegree."""
        column = self._column_alive(mw)
        out = []
        for pos in self.positions_at(mw, c):
            fam, c0, _ = column[pos]
            out.append(family_monomial(fam, c - c0))
        return out

    def dim_at(self, mw: int, c: int) -> int:
        return len(self.positions_at(mw, c))

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
        if runs_contain(self.alive.get(mw, {}).get(fam, EMPTY), b):
            return "alive"
        if runs_contain(self.zero.get(mw, {}).get(fam, EMPTY), b):
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
        (tfam, delta) terms, and below threshold it maps to zero.  A
        Leibniz derivation gives threshold 0, since rho is a cycle and
        its P attachment ignores rho; its terms come from the exponent
        arithmetic of algebra.derivation_image.  A rule table reads the
        entry off its rule.  A derivation that renormalizes its terms
        (page 2 of the Adams side) is applied to the rho-free family,
        where the torsion bound drops nothing; a shifted term that
        torsion kills is one the Ext model makes zero (class_status on
        an "adams" page), so callers must check every term outside the
        target basis against class_status.
        """
        return ([], 0) if self.differential is None else self.differential.family_image(fam)

    def diff_shift(self) -> Bidegree:
        return Bidegree(-1, 0) if self.differential is None else self.differential.shift

    def differentials(self) -> list[DiffRun]:
        """All nonzero differentials on this page inside the reporting
        window, run-length encoded, ordered by column, family position
        and rho exponent; computed once per page.

        An entry (fam, lo, hi, targets) says that for every b in
        [lo, hi) the class fam * rho^b maps to the sum of the alive
        classes tfam * rho^(b + delta) over the (tfam, delta) pairs of
        targets, in family_image's term order.  The runs are maximal:
        each alive source run, clipped to the image threshold and the
        window, is cut only where some term's target tower starts or
        stops being alive, and alive runs never touch, so two touching
        runs have different targets.  A term that is not alive must be
        zero on the page for every b of its run: zero runs first, then
        class_status class by class (the model's torsion), else
        EngineError.
        """
        if self._differentials is not None:
            return self._differentials
        out: list[DiffRun] = []
        shift = self.diff_shift().mw
        for mw, column in self.window_columns():
            for fam, c0, runs in column:
                self._family_differentials(fam, runs, mw + shift, self.c_max - c0 + 1, out)
        self._differentials = out
        return out

    def _family_differentials(self, fam: int, runs: Runs, tmw: int, top: int, out: list) -> None:
        """Append the runs of nonzero differentials on the classes
        fam * rho^b with b in runs and b < top; their targets lie in
        column tmw."""
        terms, threshold = self.family_image(fam)
        if not terms:
            return
        runs = runs_intersect(runs, ((threshold, top),))
        # each term's alive runs, in source rho exponents
        alive = [runs_shift(self.alive_runs(tmw, tfam), -delta) for tfam, delta in terms]
        zero = self.zero.get(tmw, {})
        for lo, hi in runs:
            cuts = {lo, hi}
            for talive in alive:
                cuts.update(x for run in talive for x in run if lo < x < hi)
            bounds = sorted(cuts)
            for a, b in zip(bounds, bounds[1:]):
                targets = []
                for (tfam, delta), talive in zip(terms, alive):
                    if runs_contain(talive, a):
                        targets.append((tfam, delta))
                    else:
                        self._check_zero(tmw, tfam, delta, a, b, zero.get(tfam, EMPTY))
                if targets:
                    out.append((fam, a, b, targets))

    def _check_zero(self, tmw: int, tfam: int, delta: int, lo: int, hi: int, zero: Runs) -> None:
        """Raise unless tfam * rho^(b + delta) is zero on the page for
        every b in [lo, hi)."""
        for left_lo, left_hi in runs_subtract(((lo + delta, hi + delta),), zero):
            for tb in range(left_lo, left_hi):
                if self.class_status(tmw, tfam, tb) != "zero":
                    term = family_monomial(tfam, tb)
                    raise EngineError(f"image term {term} is neither alive nor hit")

    # -- read side --------------------------------------------------------
    def column_towers(self, mw: int) -> list[tuple[int, int, int, bool]]:
        """(family, lo, hi, truncated) per maximal rho-run of column mw,
        in column order: the tower of fam * rho^b for lo <= b < hi, at
        bidegree (mw, family_c0(fam) + lo) and of length hi - lo,
        truncated when the Chow truncation rather than torsion cut it."""
        return [
            (fam, lo, hi, hi > self.c_max - c0)
            for fam, c0, runs in self._column_alive(mw)
            for lo, hi in runs
        ]

    def window_towers(self) -> Iterable[tuple[int, int, int, int, bool]]:
        """(mw, family, lo, hi, truncated) per tower of the reporting
        window, in column order (see column_towers)."""
        for mw, _ in self.window_columns():
            for tower in self.column_towers(mw):
                yield (mw, *tower)

    def towers(self) -> list[TorsionTower]:
        """The towers of the reporting window, in column order, each
        with a Monomial generator: for charts, homotopy and the Adams
        scans, which name the generators."""
        return [
            TorsionTower(family_monomial(fam, lo), hi - lo, truncated)
            for _, fam, lo, hi, truncated in self.window_towers()
        ]

    def column_classes(self, mw: int) -> list[tuple[int, list[int]]]:
        """(c, positions) per Chow degree c <= c_max of column mw that
        has classes, ascending in c; positions index _column_alive(mw).
        They are gathered from the alive runs and must agree with
        positions_at, else EngineError."""
        per_c: dict[int, list[int]] = {}
        for pos, (_, c0, runs) in enumerate(self._column_alive(mw)):
            for lo, hi in runs:
                for c in range(c0 + lo, min(c0 + hi, self.c_max + 1)):
                    per_c.setdefault(c, []).append(pos)
        out = sorted(per_c.items())
        for c, positions in out:
            if positions != self.positions_at(mw, c):
                raise EngineError(f"basis at mw={mw}, c={c} disagrees with the alive runs")
        return out

    def classes(self) -> Iterable[tuple[int, int, Class]]:
        """(mw, c, class) over the reporting window, ordered by mw, c
        and family position (see column_classes)."""
        for mw, column in self.window_columns():
            names = [family_monomial(fam) for fam, _, _ in column]
            for c, positions in self.column_classes(mw):
                for pos in positions:
                    yield mw, c, (names[pos], c - column[pos][1])


def tower_page(
    kind: str, label: str, r: int, mw_max: int, columns: dict[int, Column], tower: Callable
) -> Page:
    """A page with no differential whose alive runs follow one tower
    rule: tower(fam) gives the Runs of each family of `columns`, EMPTY
    for a family that is not alive."""
    alive: dict[int, dict[int, Runs]] = {}
    for mw, col in columns.items():
        per = alive[mw] = {}
        for fam in col.fams:
            runs = tower(fam)
            if runs:
                per[fam] = runs
    return Page(kind=kind, label=label, r=r, max_mw=mw_max, columns=columns, alive=alive)


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


# ---------------------------------------------------------------------------
# page transitions

def _advance(page: Page) -> tuple[dict[int, dict[int, Runs]], dict[int, dict[int, Runs]]]:
    """Homology of the page differential, tower by tower.

    The edges are the differential's family images (Page.family_image)
    on the sources it names: every alive family for a Derivation, the
    alive rule sources for a RuleTable.  Each family must map to at
    most one family and receive from at most one, else EngineError, so
    that every bidegree's matrix is a direct sum of 1x1 blocks and the
    surviving classes form interval complements.  The per-bidegree
    claim is re-derived through gf2 by verify_transition afterwards.  A
    Bockstein page-r differential must raise the rho exponent by r at
    least; derivation_image adds exactly the rule images' rho exponents,
    so that is checked once on the derivation.

    Pages are read-only, so the new tables share with the page every
    column that no edge leaves or enters: the same dict object, alive
    and zero alike.  A column that an edge touches is built once, as a
    new dict.
    """
    d = page.differential
    if page.kind == "bockstein" and d is not None:
        images = [t for terms in d.v_rules.values() for t in terms]
        if d.p_rule is not None:
            images.append(d.p_rule[1])
        low = [m for m in images if m.rho_exp < d.r]
        if low:
            raise EngineError(f"rule image {low[0]} has rho exponent below r = {d.r}")
    shift = page.diff_shift().mw
    edges: dict[int, tuple[int, int, int]] = {}  # fam -> (target, rho delta, threshold)
    incoming: dict[int, tuple[int, int, int]] = {}  # target -> (fam, rho delta, threshold)
    name = family_monomial
    # d.family_image is Page.family_image less its None check, which
    # costs as much as the image itself on most families
    for fam in d.sources(page.alive) if d is not None else ():
        terms, threshold = d.family_image(fam)
        if not terms:
            continue
        if len(terms) != 1:
            raise EngineError(f"family image of {name(fam)} is not a single monomial")
        ((tfam, delta),) = terms
        if tfam in incoming:
            raise EngineError(
                f"families {name(incoming[tfam][0])} and {name(fam)} share image {name(tfam)}"
            )
        edges[fam] = (tfam, delta, threshold)
        incoming[tfam] = (fam, delta, threshold)

    touched = edges.keys() | incoming.keys()
    new_alive: dict[int, dict[int, Runs]] = {}
    new_zero: dict[int, dict[int, Runs]] = {}
    for mw, per_fam in page.alive.items():
        zero = new_zero[mw] = page.zero.get(mw, {})
        if touched.isdisjoint(per_fam):
            new_alive[mw] = per_fam
            continue
        na = new_alive[mw] = {}  # afresh: a dict copy keeps the dead families' slots
        nz = None  # zero, copied at the column's first hit
        for fam, runs in per_fam.items():
            if fam not in touched:
                na[fam] = runs
                continue
            edge = edges.get(fam)
            inc = incoming.get(fam)
            if edge is not None:
                tfam, delta, min_b = edge
                target_alive = page.alive_runs(mw + shift, tfam)
                nonzero_domain = runs_intersect(
                    runs_shift(target_alive, -delta),
                    ((min_b, runs[-1][1]),) if runs else EMPTY,
                )
                kernel = runs_subtract(runs, nonzero_domain)
            else:
                kernel = runs
            if inc is not None:
                sfam, sdelta, smin = inc
                src_alive = page.alive_runs(mw - shift, sfam)
                src_alive = runs_intersect(
                    src_alive, ((smin, src_alive[-1][1]),) if src_alive else EMPTY
                )
                hit = runs_intersect(runs_shift(src_alive, sdelta), runs)
            else:
                hit = EMPTY
            if hit and not runs_subset(hit, kernel):
                raise EngineError(f"d o d != 0 at mw={mw} family {family_monomial(fam)}")
            alive = runs_subtract(kernel, hit)
            if alive:
                na[fam] = alive
            if hit:
                if nz is None:
                    nz = new_zero[mw] = dict(zero)
                nz[fam] = runs_union(nz.get(fam, EMPTY), hit)
    return new_alive, new_zero


class _Bases(dict):
    """Chow degree -> the positions of a column's classes there: one _sweep
    at `degrees`, or (None) at every degree up to the last class.  Another
    degree is swept alone when asked for; a dense sweep found none there."""

    def __init__(self, alive: list[tuple[int, int, Runs]], degrees: Sequence[int] | None):
        self.entries = [(pos, c0, runs) for pos, (_, c0, runs) in enumerate(alive)]
        self.dense = degrees is None
        if degrees is None:
            degrees = range(max((c0 + runs[-1][1] for _, c0, runs in alive if runs), default=0))
        super().__init__(_sweep(self.entries, degrees))

    def __missing__(self, c: int) -> list[int]:
        out = self[c] = [] if self.dense else _sweep(self.entries, (c,))[c]
        return out


@dataclass
class _ColumnTable:
    """One column of a page by family position: the alive families
    (_alive_column) with their Chow degrees, their positions, bases and
    image entries (Homology.image), and each Chow degree's image bits
    (Homology.map_columns) and echelon (Homology.echelon)."""

    alive: list[tuple[int, int, Runs]]
    pos_of: dict[int, int]
    bases: _Bases
    images: list[tuple[list, int] | None]
    maps: dict[int, list[int]] = field(default_factory=dict)
    echelons: dict[int, Echelon] = field(default_factory=dict)


class Homology:
    """Homology of a page differential at single bidegrees, through gf2
    on integer classes.

    A class at (mw, c) is the position of its family in the column's
    alive families; its rho exponent is b = c - c0.  Every table belongs
    to a column, whose bases come from one sweep over its alive runs
    (_Bases): at every Chow degree by default, or, given `picks` (the
    Chow degrees to visit, by column), at the picks and the degrees
    their matrices reach in the neighbouring columns.  Visiting column
    mw (at, bidegrees) keeps the tables of columns mw - 1 to mw + 1 only,
    so an ascending sweep builds and eliminates each matrix once; a call
    out of that order just recomputes what it needs.  The homology is read off the
    rank of the outgoing matrix, the boundary echelon and the zero
    columns of the outgoing matrix, which are the cycles.
    """

    def __init__(self, page: Page, picks: dict[int, list[int]] | None = None):
        self.page = page
        self.shift = page.diff_shift()
        self.picks = picks
        self._columns: dict[int, _ColumnTable] = {}
        self._mw: int | None = None

    def column(self, mw: int) -> _ColumnTable:
        table = self._columns.get(mw)
        if table is None:
            alive = _alive_column(self.page.alive.get(mw, {}))
            degrees = None
            if self.picks is not None:  # the picks and the degrees their matrices reach
                s, get = self.shift, self.picks.get
                reach = [c + s.c for c in get(mw - s.mw, ())] + [c - s.c for c in get(mw + s.mw, ())]
                degrees = sorted({*get(mw, ()), *reach})
            table = self._columns[mw] = _ColumnTable(
                alive=alive,
                pos_of={fam: pos for pos, (fam, _, _) in enumerate(alive)},
                bases=_Bases(alive, degrees),
                images=[None] * len(alive),
            )
        return table

    def basis(self, mw: int, c: int) -> list[int]:
        return self.column(mw).bases[c]

    def visit(self, mw: int) -> _ColumnTable:
        """Column mw's table, dropping those of columns out of reach."""
        if mw != self._mw:
            self._mw = mw
            reach = abs(self.shift.mw)
            for k in [k for k in self._columns if not mw - reach <= k <= mw + reach]:
                del self._columns[k]
        return self.column(mw)

    def bidegrees(self, mw: int) -> list[int]:
        """The degrees to visit in column mw: the picks, or all c <= c_max with classes."""
        if self.picks is not None:
            return self.picks.get(mw, [])
        return [c for c, mid in self.visit(mw).bases.items() if mid and c <= self.page.c_max]

    def image(self, mw: int, pos: int) -> tuple[list[tuple[int | None, int, int]], int]:
        """The family's image as (target position, target family, rho
        delta) entries plus the first Chow degree it applies at (c0 plus
        the rho threshold).  The target position is None when the target
        family is not alive in the target column, or would land at
        another Chow degree, so the term is never in a target basis."""
        table = self.column(mw)
        cached = table.images[pos]
        if cached is None:
            fam, c0, _ = table.alive[pos]
            terms, threshold = self.page.family_image(fam)
            target = self.column(mw + self.shift.mw)
            entries = []
            for tfam, delta in terms:
                tpos = target.pos_of.get(tfam)
                if tpos is not None and target.alive[tpos][1] + delta != c0 + self.shift.c:
                    tpos = None
                entries.append((tpos, tfam, delta))
            cached = table.images[pos] = (entries, c0 + threshold)
        return cached

    def map_columns(self, mw: int, c: int) -> list[int]:
        """The page differential out of (mw, c) as one column per class:
        the image bits of each class of basis(mw, c) over the basis of
        the target bidegree (mw, c) + shift.  A term outside that basis
        must be zero on the page, else EngineError.  Built once per
        bidegree: at(mw, c) reads it as its outgoing matrix, and
        at((mw, c) + shift) as its boundaries."""
        table = self.column(mw)
        out = table.maps.get(c)
        if out is None:
            tmw = mw + self.shift.mw
            target = self.column(tmw).bases[c + self.shift.c]
            index = dict(zip(target, range(len(target))))
            images, alive = table.images, table.alive
            out = []
            for pos in table.bases[c]:
                entries, start = images[pos] or self.image(mw, pos)
                bits = 0
                if entries and c >= start:
                    for tpos, tfam, delta in entries:
                        i = index.get(tpos)
                        if i is not None:
                            bits ^= 1 << i
                        elif self.page.class_status(tmw, tfam, c - alive[pos][1] + delta) != "zero":
                            term = family_monomial(tfam, c - alive[pos][1] + delta)
                            raise EngineError(f"image term {term} is neither alive nor hit")
                out.append(bits)
            table.maps[c] = out
        return out

    def name(self, mw: int, pos: int, c: int) -> str:
        fam, c0, _ = self.column(mw).alive[pos]
        return str(family_monomial(fam, c - c0))

    def echelon(self, mw: int, c: int) -> Echelon:
        """The echelon of the nonzero columns of map_columns(mw, c),
        built once per bidegree and kept next to the matrix: its rank is
        the rank of the differential out of (mw, c), and it is the
        boundary span at (mw, c) + shift.  Callers must not change it."""
        table = self.column(mw)
        out = table.echelons.get(c)
        if out is None:
            out = Echelon()
            for bits in filter(None, self.map_columns(mw, c)):
                out.insert(bits)
            table.echelons[c] = out
        return out

    def at(self, mw: int, c: int, sums_allowed: bool = False) -> tuple[list[int], list[int], Echelon]:
        """The homology at one bidegree: (basis, reps, boundaries).

        basis is the classes at (mw, c) as family positions; reps the
        coordinates, in that basis, of the single-class coset
        representatives (unit_representatives); boundaries the echelon
        of the boundary span, echelon((mw, c) - shift).  The outgoing
        matrix is map_columns(mw, c), and its rank is that of
        echelon(mw, c), so each matrix is eliminated once per sweep.
        A boundary that is not a cycle raises gf2.SubspaceNotContained;
        a class with no single-class representative raises
        RepresentativeNotMonomial, or is left out when sums_allowed; an
        image term that is neither a basis class nor zero on the page
        raises EngineError (map_columns).
        """
        mid = self.visit(mw).bases[c]
        if not mid:
            return mid, [], Echelon()
        out = self.map_columns(mw, c)
        boundaries = self.echelon(mw - self.shift.mw, c - self.shift.c)
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
        want = len(mid) - self.echelon(mw, c).rank - boundaries.rank
        reps = unit_representatives(out, boundaries, want)
        if len(reps) < want and not sums_allowed:
            v = _sum_representative(out, boundaries, reps)
            raise RepresentativeNotMonomial(
                f"no single-monomial representative at mw={mw}, c={c}: {v.coeffs()}"
            )
        return mid, reps, boundaries


def unit_representatives(out: list[int], boundaries: Echelon, want: int) -> list[int]:
    """The first `want` indices i, ascending, such that class i is a
    cycle (out[i] == 0) whose unit vector is independent of the
    boundaries and of the units already picked.

    These are the representatives gf2.quotient_basis picks first from a
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


class _Replay(Homology):
    """Compares one page transition (new_alive, new_zero) with the
    homology at each bidegree.  The classes it claims survive and newly
    hit are tabled like the bases (claims), for the current column."""

    def __init__(self, page: Page, new_alive, new_zero, picks: dict[int, list[int]] | None = None):
        super().__init__(page, picks)
        self.new_alive = new_alive
        self.new_zero = new_zero
        self._claims_mw, self._claims = None, ({}, {})

    def claims(self, mw: int, c: int) -> tuple[list[int], list[int]]:
        """The positions at (mw, c) that the transition claims survive,
        and those it claims are newly hit: one _sweep per column over the
        new alive runs and one over the new zero runs less the old zero
        runs, at the degrees of the column's bases."""
        if mw != self._claims_mw or c not in self._claims[0]:
            table = self.column(mw)
            na, nz, oz = (per.get(mw, {}) for per in (self.new_alive, self.new_zero, self.page.zero))
            fams = list(enumerate(table.alive))
            alive = [(pos, c0, na[fam]) for pos, (fam, c0, _) in fams if fam in na]
            hit = [
                (pos, c0, runs_subtract(nz.get(fam, EMPTY), oz.get(fam, EMPTY)))
                for pos, (fam, c0, _) in fams
                if nz.get(fam, EMPTY) is not oz.get(fam, EMPTY)
            ]
            degrees = sorted(table.bases)
            self._claims, self._claims_mw = (_sweep(alive, degrees), _sweep(hit, degrees)), mw
        survivors, hits = self._claims
        return survivors[c], hits[c]

    def bidegree(self, mw: int, c: int) -> None:
        """Recompute the homology at one bidegree and compare: raises
        EngineError (or RepresentativeNotMonomial) on any disagreement
        with the tower transition.  Three independent checks: the
        survivors, the newly hit classes inside the boundary span, and
        the boundary rank."""
        mid, got, ech = self.at(mw, c)
        if not mid:
            return
        expected, hits = self.claims(mw, c)

        # surviving classes are a subset of the old ones, in the same order
        if [mid[i] for i in got] != expected:
            raise EngineError(
                f"homology mismatch at mw={mw}, c={c}: gf2 gives "
                f"{[self.name(mw, mid[i], c) for i in got]}, towers give "
                f"{[self.name(mw, pos, c) for pos in expected]}"
            )
        # classes newly hit must span exactly the boundary space
        spanned = {mid[i] for i in ech.units()} if hits else ()
        for pos in hits:
            if pos not in spanned:
                raise EngineError(
                    f"class {self.name(mw, pos, c)} marked hit but outside boundary span"
                )
        if len(hits) != ech.rank:
            raise EngineError(f"boundary rank mismatch at mw={mw}, c={c}")


def sample_seed(seed: int, r: int, mw: int) -> int:
    """The sampler's seed for page r and column mw, by explicit integer
    arithmetic: random.Random seeds from an int the same way on every
    interpreter, whereas a tuple's hash is implementation-defined."""
    return (seed * 1_000_003 + r) * 1_000_003 + mw


def _sample_picks(page: Page, seed: int) -> dict[int, list[int]]:
    """Up to SAMPLES_PER_COLUMN random Chow degrees per column, drawn
    from the run endpoints and midpoints, leaving out every bidegree
    whose three columns hold more than SAMPLE_DIM_CAP classes.  Those
    dimensions come from a window of columns mw - 1 to mw + 1 that
    lives for this one ascending pass, so the page keeps no dimension
    table (Page.dims_column) for them."""
    picks: dict[int, list[int]] = {}
    window: dict[int, dict[int, int]] = {}
    for mw in sorted(page.alive):
        window = {
            k: window[k] if k in window else _column_dims(page.alive.get(k, {}), page.c_max)
            for k in (mw - 1, mw, mw + 1)
        }
        below, here, above = window.values()
        rng = random.Random(sample_seed(seed, page.r, mw))
        pool: set[int] = set()
        per = page.alive[mw]
        for fam in sorted(per)[:: max(1, len(per) // 64)]:
            c0 = family_c0(fam)
            for lo, hi in per[fam]:
                top = min(c0 + hi, page.c_max)
                pool.update((c0 + lo, min(c0 + hi - 1, page.c_max), top, (c0 + lo + top) // 2))
        pool = {
            c
            for c in pool
            if 0 < here.get(c, 0) <= SAMPLE_DIM_CAP - above.get(c, 0) - below.get(c, 0)
        }
        cs = rng.sample(sorted(pool), min(len(pool), SAMPLES_PER_COLUMN))
        picks[mw] = sorted(c for c in cs if 0 <= c <= page.c_max)
    return picks


def verify_transition(
    page: Page,
    new_alive,
    new_zero,
    mode: str,
    seed: int = 0,
) -> int:
    """Replay the transition per bidegree via gf2 on integer class
    positions (see Homology).  mode 'all' covers every bidegree with
    classes; 'sample' draws its picks up front (_sample_picks) and
    sweeps only what they reach.  Returns the number of bidegrees
    checked."""
    if mode == "off":
        return 0
    picks = None if mode == "all" else _sample_picks(page, seed)
    replay = _Replay(page, new_alive, new_zero, picks)
    count = 0
    for mw in sorted(page.alive):
        for c in replay.bidegrees(mw):
            replay.bidegree(mw, c)
            count += 1
    return count


# ---------------------------------------------------------------------------
# the Bockstein run

def build_e1(mw_max: int) -> Page:
    """The first page: every monomial over rho, P, v_n, no relations,
    zero differential."""
    c_max = c_max_for(mw_max)
    columns = enumerate_families(mw_max)
    full = {c0: ((0, c_max - c0 + 1),) for c0 in range(c_max + 1)}  # shared
    return tower_page(
        "bockstein", "bockstein-E1", 1, mw_max, columns, lambda fam: full.get(family_c0(fam), EMPTY)
    )


def replay_mode(verify: str, mw_max: int) -> str:
    """The verify_transition mode of a run: 'all', 'sample' or 'off' as
    given, and 'auto' dense up to DENSE_VERIFY_LIMIT, sampled above it.
    Any other value raises ValueError."""
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


def run_bockstein(
    mw_max: int,
    *,
    verify: str = "auto",
    seed: int = 0,
) -> tuple[list[Page], Page]:
    """Run the sequence from E1 to its last differential page.

    Returns the pages that carry differentials (r = 2^n - 1) and the
    stable page after the last one; all other page indices are identity
    steps.  verify is as in replay_mode.
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
    """The predicted stable page over `columns`, the families of the
    computed page: the rho tower on 1, and for every normal monomial
    with minimal v index n a tower of length 2^n - 1."""
    c_max = c_max_for(mw_max)
    towers = {n: ((0, 2 ** n - 1),) for n in range(2, V_TOP + 1)}  # shared

    def tower(fam: int) -> Runs:
        n = family_min_v(fam)
        if n is None:
            return ((0, c_max + 1),) if fam == 0 else EMPTY  # the unit
        if family_p(fam) % 2 ** (n - 1):
            return EMPTY
        return towers[n]

    return tower_page("bockstein", "bockstein-Einf-closed-form", 0, mw_max, columns, tower)


def compare_pages(computed: Page, predicted: Page, check: str) -> Report:
    """Dimension-by-bidegree and tower-by-tower equality inside the
    reporting window, which must be the same on both pages.

    Towers compare exactly, generator included, one column at a time: a
    column with identical alive runs on both pages has equal towers; a
    failure names, in the first column whose column_towers differ, the
    first tower of each page that the other lacks.
    """
    if computed.max_mw != predicted.max_mw:
        raise ValueError(f"windows differ: max_mw {computed.max_mw} and {predicted.max_mw}")
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

    def first_only(page: Page, other: Page, mw: int) -> str:
        """The first tower of column mw of page that other lacks."""
        theirs = set(other.column_towers(mw))
        for fam, lo, hi, truncated in page.column_towers(mw):
            if (fam, lo, hi, truncated) not in theirs:
                return f"{family_monomial(fam, lo)} of length {hi - lo}"
        return "none"

    bad = next(
        (
            f"mw={mw}: computed {first_only(computed, predicted, mw)}, "
            f"predicted {first_only(predicted, computed, mw)}"
            for mw in range(computed.max_mw + 1)
            if computed.alive.get(mw, {}) != predicted.alive.get(mw, {})
            and computed.column_towers(mw) != predicted.column_towers(mw)
        ),
        "",
    )
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
