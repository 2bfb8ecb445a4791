import pytest

from etass.algebra import (
    Bidegree,
    Monomial,
    NormalMonomial,
    family_monomial,
    family_of,
    normalize,
    torsion_bound,
)
from etass.bockstein import closed_form_einfty, enumerate_families, run_bockstein
from etass.ext import (
    enumerate_ext_families,
    ext_model_page,
    massey_index_check,
    massey_instances,
    massey_scan,
    product_consistency,
    stem_finiteness_scan,
    unique_detection_scan,
    vanishing_scan,
)
from brute_force import column_key, enumerate_normal_monomials, monomial_families


def mono(rho=0, p=0, **vs):
    return Monomial.make(rho, p, {int(k[1:]): a for k, a in vs.items()})


def test_model_page_matches_direct_enumeration():
    page = ext_model_page(24)
    for deg in [(3, 1), (6, 2), (11, 9), (14, 10), (21, 3), (0, 7), (24, 16)]:
        direct = enumerate_normal_monomials(Bidegree(*deg), 24)
        assert page.basis_at(*deg) == direct


def test_torsion_bounds():
    assert torsion_bound(family_of(mono(v2=1))) == 3
    assert torsion_bound(family_of(mono(p=4, v3=1, v5=2))) == 7
    assert torsion_bound(family_of(mono())) is None


def test_unique_detection_scan_passes():
    assert unique_detection_scan(64, enumerate_ext_families(64)).ok


def test_unique_detection_nonclaim_witness():
    # the scan's claim does not extend to mixed products: these two
    # normal monomials share a bidegree and the second is rho-divisible
    a = mono(p=2, v2=1, v5=1)
    b = mono(rho=4, v3=6)
    assert a.bidegree == b.bidegree
    assert normalize(b) is not None


def test_vanishing_scan():
    assert vanishing_scan(closed_form_einfty(64, enumerate_families(64))).ok
    _, einf = run_bockstein(16, verify="off")
    assert vanishing_scan(einf).ok
    assert einf.dim_at(2, 2) == 0
    assert einf.dim_at(4, 4) == 0
    assert einf.dim_at(0, 0) == 1  # the unit class, excluded from the claim


def test_massey_remark_instances():
    # three expressions for the same target P^8 v2
    for n, k, m in [(2, 3, 3), (2, 2, 4), (2, 0, 5)]:
        rep = massey_index_check(n, k, m)
        assert rep.ok, rep.to_json()
        target_p = 2 ** (n - 1) * k + 2 ** (m - 2)
        assert target_p == 8


def test_massey_degree_clause():
    # n=3, k=1, m=4: entries sum plus (1,0) lands on the target
    n, k, m = 3, 1, 4
    target = mono(p=2 ** (n - 1) * k + 2 ** (m - 2), **{f"v{n}": 1})
    entries = [
        mono(rho=2 ** m - 2 ** n, **{f"v{m}": 1}),
        mono(rho=2 ** n - 1),
        mono(p=2 ** (n - 1) * k, **{f"v{n}": 1}),
    ]
    total = Bidegree(0, 0)
    for e in entries:
        total = total + e.bidegree
    assert target.bidegree == total + Bidegree(1, 0)
    assert massey_index_check(n, k, m).ok


def test_massey_instances_cover_window():
    inst = massey_instances(64)
    assert (2, 3, 3) in inst and (2, 0, 5) in inst
    for n, k, m in inst:
        assert m > n >= 2 and k >= 0
        assert 2 ** n - 1 + 2 ** (n + 1) * k + 2 ** m <= 64
    assert massey_scan(64).ok


def test_product_consistency():
    assert product_consistency(64, enumerate_ext_families(64), trials=500, seed=0).ok


def test_stem_finiteness():
    from etass.adams import run_adams

    _, einf = run_adams(32, verify="off")
    assert stem_finiteness_scan(einf).ok


def test_family_enumeration_counts():
    """Each column holds distinct families of its Milnor-Witt degree,
    normal ones for the Ext model, in the documented column order
    (-p, sum a_n, -a_2, -a_3, ...), for both enumerators."""
    for mw_max in (16, 64):
        for enumerate_ in (enumerate_families, enumerate_ext_families):
            cols = enumerate_(mw_max)
            assert sorted(cols) == list(range(mw_max + 2))
            for mw, col in cols.items():
                fams = [family_monomial(f) for f in col.fams]
                assert all(m.bidegree.mw == mw for m in fams)
                if enumerate_ is enumerate_ext_families:
                    for m in fams:
                        NormalMonomial(m.rho_exp, m.p_exp, m.v_exps)  # raises unless normal
                assert len(set(col.fams)) == len(col.fams)
                assert fams == sorted(fams, key=column_key)


@pytest.mark.parametrize("mw_max", [*range(65), 112])
def test_families_match_monomial_enumeration(mw_max):
    """The packed enumerator gives the exhaustive Monomial search's
    families, in content and order, for both family sets."""
    for normal, enumerate_ in ((False, enumerate_families), (True, enumerate_ext_families)):
        want = monomial_families(mw_max, normal)
        got = enumerate_(mw_max)
        assert {mw: [family_monomial(f) for f in col.fams] for mw, col in got.items()} == want
