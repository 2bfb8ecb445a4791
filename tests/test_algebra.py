import random

import pytest
from hypothesis import given, settings, strategies as st

from etass.algebra import (
    Bidegree,
    Derivation,
    MissingRule,
    Monomial,
    NormalizationFailure,
    NormalMonomial,
    leibniz_apply,
    multiply,
    normalize,
    v_degree,
)
from brute_force import default_generators, enumerate_monomials, times_rho


def mono(rho=0, p=0, **vs):
    return Monomial.make(rho, p, {int(k[1:]): a for k, a in vs.items()})


def nmono(rho=0, p=0, **vs):
    m = mono(rho, p, **vs)
    return NormalMonomial(m.rho_exp, m.p_exp, m.v_exps)


D2 = Derivation(
    shift=Bidegree(-1, 1),
    v_rules={n: (mono(**{f"v{n - 1}": 2}),) for n in range(3, 8)},
    v_cycles=frozenset({2}),
    normalize_terms=True,
)

D3 = Derivation(
    shift=Bidegree(-1, 0),
    all_v_cycles=True,
    p_rule=(1, mono(rho=3, v2=1)),
    p_attach_min=2,
)


def test_generator_degrees():
    gens = {(g.kind, g.index): g.degree for g in default_generators(64)}
    assert gens[("rho", None)] == Bidegree(0, 1)
    assert gens[("P", None)] == Bidegree(4, 4)
    assert gens[("v", 2)] == Bidegree(3, 1)
    assert gens[("v", 6)] == Bidegree(63, 1)
    assert ("v", 7) not in gens  # 2^7 - 1 = 127 > 65


def test_enumerate_v2_bidegree():
    got = enumerate_monomials(Bidegree(3, 1), default_generators(64))
    assert got == [mono(v2=1)]


def test_enumerate_pure_rho():
    got = enumerate_monomials(Bidegree(0, 5), default_generators(64))
    assert got == [mono(rho=5)]


def test_enumerate_matches_bruteforce():
    deg = Bidegree(8, 8)
    expected = set()
    # independent nested-loop exponent search over rho, P, v2, v3
    for b in range(9):
        for e in range(3):
            for a2 in range(3):
                for a3 in range(2):
                    mw = 4 * e + 3 * a2 + 7 * a3
                    c = b + 4 * e + a2 + a3
                    if (mw, c) == (8, 8):
                        expected.add(mono(rho=b, p=e, v2=a2, v3=a3))
    got = enumerate_monomials(deg, default_generators(8))
    assert set(got) == expected
    assert len(got) == len(expected)
    assert got == sorted(got, key=Monomial.sort_key)


def test_normalize_shift_examples():
    # exponent sums of P^2 v2 * P^4 v2 and of P^4 v3 * P^48 v5
    assert normalize(mono(p=6, v2=2)) == nmono(p=6, v2=2)
    assert normalize(mono(p=52, v3=1, v5=1)) == nmono(p=52, v3=1, v5=1)


def test_normalize_torsion_kills():
    m = mono(rho=3, v2=1)
    assert normalize(m) is None
    NormalMonomial(m.rho_exp, m.p_exp, m.v_exps)  # normal: torsion alone kills it


def test_normalize_rejects_malformed():
    with pytest.raises(NormalizationFailure):
        normalize(mono(p=2, v3=1))  # 2 not a multiple of 2^(3-1)
    with pytest.raises(NormalizationFailure):
        normalize(mono(p=1))  # pure P power


def test_multiply_torsion():
    assert multiply(nmono(rho=2, v2=1), nmono(rho=1, v2=1)) is None


def test_multiply_identity():
    one = nmono()
    x = nmono(rho=1, p=4, v2=1)
    assert multiply(one, x) == x


def test_multiply_shift_relation_examples():
    assert multiply(nmono(p=2, v2=1), nmono(p=4, v2=1)) == nmono(p=6, v2=2)
    assert multiply(nmono(p=4, v2=1), nmono(p=8, v3=1)) == nmono(p=12, v2=1, v3=1)


def random_normal(rng, mw_cap=40):
    while True:
        n = rng.choice([2, 2, 3, 4])
        k = rng.randrange(0, 4)
        extra = {n: 1}
        if rng.random() < 0.4:
            m = rng.choice([n, n + 1])
            extra[m] = extra.get(m, 0) + 1
        b = rng.randrange(0, 2 ** n - 1)
        cand = Monomial.make(b, 2 ** (n - 1) * k, extra)
        if cand.bidegree.mw <= mw_cap:
            return NormalMonomial(cand.rho_exp, cand.p_exp, cand.v_exps)


def test_multiply_associative_commutative_random():
    rng = random.Random(1234)
    for _ in range(1000):
        a, b, c = (random_normal(rng) for _ in range(3))
        ab = multiply(a, b)
        bc = multiply(b, c)
        left = multiply(ab, c) if ab is not None else None
        right = multiply(a, bc) if bc is not None else None
        assert left == right
        assert multiply(a, b) == multiply(b, a)


def test_leibniz_square_cancels():
    assert leibniz_apply(D3, mono(p=2)) == []


def test_leibniz_two_factors():
    got = leibniz_apply(D2, mono(v3=1, v4=1))
    assert got == sorted([mono(v2=2, v4=1), mono(v3=3)], key=Monomial.sort_key)


def test_leibniz_p_rule():
    assert leibniz_apply(D3, mono(p=1)) == [mono(rho=3, v2=1)]


def test_leibniz_attached_p_is_cycle():
    # on the later page the P power rides on the v2 family, a cycle
    d7 = Derivation(
        shift=Bidegree(-1, 0),
        all_v_cycles=True,
        p_rule=(2, mono(rho=7, v3=1)),
        p_attach_min=3,
    )
    assert leibniz_apply(d7, mono(p=2, v2=1)) == []
    assert leibniz_apply(d7, mono(p=2, v3=1)) == [mono(rho=7, v3=2)]
    # below the cutoff the rule still fires on page 3
    assert leibniz_apply(D3, mono(p=1, v2=1)) == [mono(rho=3, v2=2)]


def test_leibniz_missing_rule():
    d = Derivation(shift=Bidegree(-1, 1), v_rules={3: (mono(v2=2),)})
    with pytest.raises(MissingRule):
        leibniz_apply(d, mono(v2=1))


def test_derivation_rejects_wrong_shift():
    with pytest.raises(ValueError):
        Derivation(shift=Bidegree(-1, 0), v_rules={3: (mono(v2=2),)})


def test_leibniz_product_rule_random():
    # d2 is a derivation of the truncated product
    rng = random.Random(777)
    for _ in range(300):
        a, b = random_normal(rng), random_normal(rng)
        prod = multiply(a, b)
        via_product = leibniz_apply(D2, prod) if prod is not None else []
        terms = []
        for da in leibniz_apply(D2, a):
            t = multiply(NormalMonomial(da.rho_exp, da.p_exp, da.v_exps), b)
            if t is not None:
                terms.append(t)
        for db in leibniz_apply(D2, b):
            t = multiply(a, NormalMonomial(db.rho_exp, db.p_exp, db.v_exps))
            if t is not None:
                terms.append(t)
        reduced = sorted(
            (t for t in set(terms) if terms.count(t) % 2), key=Monomial.sort_key
        )
        assert [Monomial.make(m.rho_exp, m.p_exp, m.v_dict) for m in via_product] == [
            Monomial.make(m.rho_exp, m.p_exp, m.v_dict) for m in reduced
        ]


@st.composite
def monomials(draw):
    rho = draw(st.integers(0, 6))
    p = draw(st.integers(0, 8))
    vs = draw(
        st.dictionaries(st.integers(2, 6), st.integers(1, 3), max_size=3)
    )
    return Monomial.make(rho, p, vs)


@settings(deadline=None, max_examples=80)
@given(monomials(), monomials())
def test_degree_additivity(a, b):
    assert a.raw_product(b).bidegree == a.bidegree + b.bidegree


@settings(deadline=None, max_examples=80)
@given(monomials())
def test_normalize_idempotent(m):
    try:
        nm = normalize(m)
    except NormalizationFailure:
        return
    if nm is not None:
        assert normalize(nm) == nm


@settings(deadline=None, max_examples=60)
@given(monomials())
def test_bockstein_rule_shifts_degree(m):
    for t in leibniz_apply(D3, m):
        assert t.bidegree == m.bidegree + Bidegree(-1, 0)


@settings(deadline=None, max_examples=60)
@given(monomials())
def test_sort_key_total_order(m):
    assert v_degree(2) == Bidegree(3, 1)
    assert (m.sort_key() < times_rho(m).sort_key()) or times_rho(m).total_exponent > m.total_exponent
