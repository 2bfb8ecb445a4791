import pytest

from etass.adams import run_adams
from etass.homotopy import (
    HomotopyGroup,
    MultipleTowers,
    WrongStem,
    extract_groups,
    generator_name,
    groups_vs_order_formula,
    imj_order,
    ring_structure_report,
    two_adic_valuation,
)


@pytest.fixture(scope="module")
def groups64():
    _, einf = run_adams(64, verify="off")
    return extract_groups(einf)


def test_two_adic_valuation():
    assert two_adic_valuation(48) == 4
    assert two_adic_valuation(1) == 0
    assert two_adic_valuation(64) == 6
    with pytest.raises(ValueError):
        two_adic_valuation(0)


def test_generator_names():
    assert generator_name(2, 0) == "lambda2"
    assert generator_name(4, 1) == "P^8lambda4"


def test_stem_examples(groups64):
    assert groups64[3].order_exponent == 3
    assert groups64[3].generator_name == "lambda2"
    assert groups64[31].order_exponent == 6
    assert groups64[31].generator_name == "lambda5"
    assert groups64[5].is_trivial
    assert groups64[0].order_exponent is None


def test_imj_order_examples():
    assert imj_order(47) == 5
    assert imj_order(63) == 7
    assert imj_order(11) == 3
    with pytest.raises(WrongStem):
        imj_order(5)
    with pytest.raises(WrongStem):
        imj_order(12)


def test_formula_matches_extraction(groups64):
    assert groups_vs_order_formula(groups64).ok
    for g in groups64:
        if g.mw % 4 == 3 and g.mw >= 3:
            assert g.order_exponent == imj_order(g.mw)


def test_torsion_column(groups64):
    torsion = [g.order_exponent for g in groups64 if g.mw > 0 and not g.is_trivial]
    assert torsion == [3, 4, 3, 5, 3, 4, 3, 6, 3, 4, 3, 5, 3, 4, 3, 7]


def test_ring_structure(groups64):
    rep = ring_structure_report(groups64)
    assert rep.ok
    # lambda2 * lambda2 lands in the trivial 6-stem
    assert groups64[6].is_trivial
    assert groups64[10].is_trivial


def test_describe_format(groups64):
    assert groups64[63].describe() == "mw=63 Z/2^7 gen=lambda6"
    assert groups64[0].describe() == "mw=0 Z2[eta^+-1] gen=1"


def test_multiple_towers_guard():
    from etass.bockstein import Column, Page
    from etass.algebra import Monomial, family_of

    v3 = family_of(Monomial.make(0, 0, {3: 1}))
    pv2 = family_of(Monomial.make(0, 1, {2: 1}))
    # an artificial page with two families in one stem triggers the guard
    col = Column(sorted([v3, pv2]))
    page = Page(
        kind="adams",
        label="fake",
        r=9,
        max_mw=7,
        columns={7: col, 0: Column([])},
        alive={7: {v3: (0, 7), pv2: (0, 3)}, 0: {}},
        zero={7: {}, 0: {}},
    )
    with pytest.raises(MultipleTowers):
        extract_groups(page)
