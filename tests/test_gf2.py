import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from etass.bockstein import unit_representatives
from etass.gf2 import (
    Echelon,
    F2Matrix,
    F2Vector,
    SubspaceNotContained,
    kernel_basis,
    quotient_basis,
    rank,
)
from gf2_reference import (
    add,
    apply,
    coeff,
    from_coeffs,
    from_rows,
    identity,
    is_zero,
    nrows,
    reference_insert,
    reference_kernel_basis,
    reference_quotient_basis,
    reference_reduce,
    row_reduce,
    transpose,
    unit,
    zero_matrix,
)
from homology_reference import reference_unit_representatives


def naive_rank(rows, cols):
    """Independent Gaussian elimination on unpacked 0/1 lists."""
    mat = [list(r) for r in rows]
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                mat[i] = [(a + b) % 2 for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def random_matrix(rng, nrows, cols, density=0.4):
    rows = [[1 if rng.random() < density else 0 for _ in range(cols)] for _ in range(nrows)]
    return rows, from_rows(rows, cols)


def test_row_reduce_identity():
    m = identity(3)
    reduced, r, pivots = row_reduce(m)
    assert r == 3
    assert pivots == [0, 1, 2]
    assert reduced == m


def test_row_reduce_duplicate_rows():
    m = from_rows([[1, 1], [1, 1]])
    reduced, r, pivots = row_reduce(m)
    assert r == 1
    assert pivots == [0]
    assert reduced.rows[0].coeffs() == [1, 1]
    assert is_zero(reduced.rows[1])


def test_row_reduce_matches_naive_oracle():
    rng = random.Random(20301)
    for _ in range(25):
        rows, m = random_matrix(rng, 20, 30)
        assert rank(m) == naive_rank(rows, 30)


def test_row_reduce_is_reduced():
    rng = random.Random(7)
    for _ in range(10):
        _, m = random_matrix(rng, 12, 9)
        reduced, r, pivots = row_reduce(m)
        assert pivots == sorted(pivots)
        for i, p in enumerate(pivots):
            col = [coeff(row, p) for row in reduced.rows]
            assert col == [1 if j == i else 0 for j in range(nrows(m))]


def test_kernel_zero_matrix():
    m = zero_matrix(2, 3)
    basis = kernel_basis(m)
    assert len(basis) == 3
    assert sorted(v.bits for v in basis) == [1, 2, 4]


def test_kernel_single_relation():
    m = from_rows([[1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    assert basis[0].coeffs() == [1, 1]


def test_kernel_rank_nullity_random():
    rng = random.Random(99)
    for _ in range(20):
        _, m = random_matrix(rng, 15, 15)
        basis = kernel_basis(m)
        assert len(basis) + rank(m) == 15
        for v in basis:
            assert is_zero(apply(m, v))
        # independence
        span = from_rows(basis, 15) if basis else zero_matrix(0, 15)
        assert rank(span) == len(basis)


def test_quotient_subspace_equals_ambient():
    vs = [from_coeffs(c) for c in ([1, 0, 1], [0, 1, 0])]
    assert quotient_basis(vs, vs) == []


def test_quotient_empty_subspace_returns_basis():
    ambient = [from_coeffs(c) for c in ([1, 1, 0], [0, 1, 1])]
    reps = quotient_basis([], ambient)
    assert len(reps) == 2
    ech = from_rows(reps, 3)
    assert rank(ech) == 2


def test_quotient_prefers_standard_vectors():
    ambient = [from_coeffs([1, 0, 0]), from_coeffs([1, 1, 0])]
    reps = quotient_basis([from_coeffs([1, 0, 0])], ambient)
    # e1 is in the ambient span and completes the quotient
    assert reps == [from_coeffs([0, 1, 0])]


def test_quotient_dimension_random():
    rng = random.Random(4242)
    for _ in range(20):
        _, amb_m = random_matrix(rng, 10, 12)
        ambient = list(amb_m.rows)
        # random subspace: combinations of ambient vectors
        sub = []
        for _ in range(4):
            v = F2Vector(12)
            for a in ambient:
                if rng.random() < 0.5:
                    v = add(v, a)
            sub.append(v)
        reps = quotient_basis(sub, ambient)
        dim_amb = rank(amb_m)
        dim_sub = rank(from_rows(sub, 12))
        assert len(reps) == dim_amb - dim_sub
        total = from_rows(sub + reps, 12)
        assert rank(total) == dim_amb


def test_quotient_rejects_outside_vector():
    ambient = [from_coeffs([1, 0, 0])]
    with pytest.raises(SubspaceNotContained):
        quotient_basis([from_coeffs([0, 1, 0])], ambient)


@st.composite
def matrices(draw, max_dim=12):
    nrows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.integers(0, (1 << cols) - 1), min_size=nrows, max_size=nrows
        )
    )
    return F2Matrix(cols, tuple(F2Vector(cols, b) for b in rows))


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rank_equals_rank_of_transpose(m):
    assert rank(m) == rank(transpose(m))


@settings(deadline=None, max_examples=60)
@given(matrices())
def test_rank_plus_nullity_is_cols(m):
    assert rank(m) + len(kernel_basis(m)) == m.cols


@settings(deadline=None, max_examples=40)
@given(matrices())
def test_kernel_vectors_are_killed(m):
    for v in kernel_basis(m):
        assert is_zero(apply(m, v))


@settings(deadline=None, max_examples=30)
@given(matrices(max_dim=8))
def test_quotient_deterministic(m):
    ambient = list(m.rows)
    sub = ambient[: len(ambient) // 2]
    first = quotient_basis(sub, ambient)
    second = quotient_basis(sub, ambient)
    assert first == second


def reference_rref(vectors, width):
    """Gauss-Jordan on unpacked 0/1 lists, columns in ascending order:
    the unique reduced echelon basis of the span, as {pivot: row bits}."""
    mat = [[(v >> i) & 1 for i in range(width)] for v in vectors]
    pivot_rows = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                mat[i] = [(a + b) % 2 for a, b in zip(mat[i], mat[r])]
        pivot_rows.append((col, r))
        r += 1
    return {col: sum(bit << i for i, bit in enumerate(mat[row])) for col, row in pivot_rows}


@st.composite
def echelon_inputs(draw):
    width = draw(st.integers(1, 96))
    dense = st.integers(0, (1 << width) - 1)
    sparse = st.sets(st.integers(0, width - 1), max_size=3).map(
        lambda bits: sum(1 << i for i in bits)
    )
    row = st.one_of(dense, sparse)
    return width, draw(st.lists(row, max_size=24)), draw(st.lists(row, max_size=8))


@settings(deadline=None, max_examples=150)
@given(echelon_inputs())
def test_echelon_matches_reference_elimination(case):
    width, vectors, probes = case
    ech = Echelon()
    seen = []
    for v in vectors:
        before = len(reference_rref(seen, width))
        seen.append(v)
        assert ech.insert(v) == (len(reference_rref(seen, width)) > before)
    basis = reference_rref(seen, width)
    assert ech.pivots == basis
    assert ech.rank == len(basis)
    for x in probes + vectors:
        y = ech.reduce(x)
        # the reduced vector is zero on every pivot and differs from x by
        # an element of the span
        assert not any((y >> p) & 1 for p in basis)
        assert len(reference_rref(seen + [x ^ y], width)) == len(basis)
        in_span = len(reference_rref(seen + [x], width)) == len(basis)
        assert ech.contains(x) == in_span == (y == 0)


@st.composite
def unit_echelons(draw):
    """Rows for an echelon, mostly unit vectors as on the tower pages,
    the columns of an outgoing matrix (0 marks a cycle) and a `want`."""
    width = draw(st.integers(1, 40))
    units = st.integers(0, width - 1).map(lambda i: 1 << i)
    rows = draw(st.lists(st.one_of(units, units, st.integers(0, (1 << width) - 1)), max_size=16))
    out = draw(st.lists(st.sampled_from([0, 0, 1, 6]), min_size=width, max_size=width))
    return width, rows, out, draw(st.integers(-1, width))


@settings(deadline=None, max_examples=300)
@given(unit_echelons())
def test_unit_fast_paths_match_generic_elimination(case):
    """Storing a vector outside the support as it stands, reading a unit's
    membership off its pivot row (contains, units) and picking cycles
    outside the boundary support without the echelon give the pivots,
    memberships and picks of generic elimination."""
    width, rows, out, want = case
    ech, ref = Echelon(), {}
    for bits in rows:
        assert ech.insert(bits) == reference_insert(ref, bits)
        assert ech.pivots == ref
    in_span = [i for i in range(width) if reference_reduce(ref, 1 << i) == 0]
    assert [i for i in range(width) if ech.contains(1 << i)] == in_span
    assert sorted(ech.units()) == in_span
    reps = unit_representatives(out, ech, want)
    assert reps == reference_unit_representatives(out, ref, want)
    assert ech.pivots == ref


def test_vector_is_immutable_and_hashes_by_value():
    v = F2Vector(5, 0b10110)
    with pytest.raises(AttributeError):
        v.bits = 1
    with pytest.raises(AttributeError):
        v.length = 6
    with pytest.raises(AttributeError):
        del v.bits
    assert v.bits == 0b10110 and v.length == 5
    w = from_coeffs([0, 1, 1, 0, 1])
    assert v == w and hash(v) == hash(w) and len({v, w}) == 1
    assert v != F2Vector(6, 0b10110) and v != (5, 0b10110)
    assert repr(v) == "F2Vector(length=5, bits=22)"
    assert pickle.loads(pickle.dumps(v)) == v
    with pytest.raises(ValueError):
        F2Vector(2, 0b100)
    with pytest.raises(ValueError):
        F2Vector(-1)


def _rows(width: int, min_weight: int = 0):
    """Rows as bits: sparse ones of weight min_weight..3, and dense ones
    too when min_weight is 0."""
    sparse = st.sets(
        st.integers(0, width - 1), min_size=min(min_weight, width), max_size=3
    ).map(lambda bits: sum(1 << i for i in bits))
    if min_weight:
        return sparse
    return st.one_of(st.integers(0, (1 << width) - 1), sparse)


@st.composite
def wide_matrices(draw):
    cols = draw(st.integers(1, 96))
    rows = draw(st.lists(_rows(cols), max_size=40))
    return F2Matrix(cols, tuple(F2Vector(cols, b) for b in rows))


@settings(deadline=None, max_examples=150)
@given(wide_matrices())
def test_kernel_basis_matches_reference(m):
    assert kernel_basis(m) == reference_kernel_basis(m)


@st.composite
def quotient_inputs(draw):
    """An ambient list (sparse rows of weight >= 2 make many cosets
    without a unit representative) and a subspace of combinations of
    ambient vectors."""
    width = draw(st.integers(1, 96))
    rows = _rows(width, draw(st.sampled_from([0, 2])))
    ambient = [F2Vector(width, b) for b in draw(st.lists(rows, min_size=1, max_size=24))]
    masks = draw(st.lists(st.integers(0, (1 << len(ambient)) - 1), max_size=12))
    subspace = []
    for mask in masks:
        bits = 0
        for i, v in enumerate(ambient):
            if (mask >> i) & 1:
                bits ^= v.bits
        subspace.append(F2Vector(width, bits))
    return subspace, ambient


@settings(deadline=None, max_examples=200)
@given(quotient_inputs())
def test_quotient_basis_matches_reference(case):
    subspace, ambient = case
    assert quotient_basis(subspace, ambient) == reference_quotient_basis(subspace, ambient)


@settings(deadline=None, max_examples=100)
@given(quotient_inputs())
def test_quotient_basis_takes_subspace_echelon(case):
    """An Echelon of the subspace gives the same representatives as its
    spanning vectors and is left unchanged."""
    subspace, ambient = case
    ech = Echelon()
    for v in subspace:
        ech.insert(v.bits)
    pivots = dict(ech.pivots)
    assert quotient_basis(ech, ambient) == quotient_basis(subspace, ambient)
    assert ech.pivots == pivots and len(ech) == ech.rank


def test_quotient_rejects_outside_echelon():
    ech = Echelon()
    ech.insert(0b010)
    with pytest.raises(SubspaceNotContained):
        quotient_basis(ech, [from_coeffs([1, 0, 0])])
    with pytest.raises(SubspaceNotContained):
        quotient_basis(ech, [])


def test_quotient_sum_representatives_match_reference():
    e = [unit(5, i) for i in range(5)]
    ambient = [add(e[0], e[1]), add(e[1], e[2]), e[3], e[4]]
    subspace = [e[3]]
    reps = quotient_basis(subspace, ambient)
    assert reps == reference_quotient_basis(subspace, ambient)
    # e4 is the only unit left to take; the other two cosets are sums
    assert reps == [e[4], add(e[0], e[1]), add(e[1], e[2])]
