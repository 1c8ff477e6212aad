"""T-family, TBRSC recognition, codimension, and going-up tests."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsc.catalog import named
from brsc.core import Complex, DomainError, bits, is_paving, k_submasks, mask_of, truncate, union
from brsc.lattice import MooreFamily, flats, j_complex, is_boolean_representable
from brsc.operators import b_d
from brsc.iso import canonical_complex
from brsc.t_operator import (
    classify_minimality,
    cl_T,
    codimension,
    dim1_gu_facts,
    enumerate_mgu,
    enumerate_mngu,
    everyres_classes,
    goes_up,
    is_tbrsc,
    jt_complex,
    paving_tbrsc_criterion,
    t_family,
)


def tri(*t):
    return mask_of(tuple(x - 1 for x in t))


def complexes(max_n=5):
    @st.composite
    def strat(draw):
        n = draw(st.integers(1, max_n))
        full = (1 << n) - 1
        gens = draw(st.lists(st.integers(0, full), max_size=8))
        return Complex(n, gens)

    return strat()


def test_t_family_far_example():
    C = Complex(4, set(k_submasks(0b1111, 2)) | {tri(1, 2, 3)})
    fam = t_family(C)
    expect = {0, 0b0001, 0b0010, 0b0100, 0b1000, 0b1111}
    assert set(fam.members) == expect


@given(complexes())
@settings(max_examples=120, deadline=None)
def test_t_family_is_moore_and_contains_flats(C):
    fam = t_family(C)
    MooreFamily(C.n, fam.members)  # validates intersection closure
    assert set(flats(C).members) <= set(fam.members)


@given(complexes(), st.integers(0, 31))
@settings(max_examples=150, deadline=None)
def test_cl_T_matches_family_scan(C, seed):
    X = seed & C.full_mask
    fam = t_family(C)
    assert cl_T(C, X) == fam.closure(X)
    assert cl_T(C, cl_T(C, X)) == cl_T(C, X)


@given(complexes())
@settings(max_examples=100, deadline=None)
def test_jt_complex_matches_family_route(C):
    assert jt_complex(C) == j_complex(t_family(C))


TBRSC_FIXTURES = [
    ("btbtwo", {}),
    ("ncu", {}),
    ("sme", {}),
    ("tracks", {}),
    ("cepc", {}),
    ("desargues", {}),
    ("jijn", {"i": 2, "j": 4, "n": 6}),
]


def _jt_flats_are_t_family(C):
    # the recognition theorem pins the flats of J(T(H)) down for a TBRSC
    return set(flats(jt_complex(C)).members) == set(t_family(C).members)


@given(complexes())
@settings(max_examples=150, deadline=None)
def test_tbrsc_flats_of_jt_are_t_family(C):
    if is_tbrsc(C):
        assert _jt_flats_are_t_family(C)


@pytest.mark.parametrize("name, params", TBRSC_FIXTURES)
def test_named_tbrsc_flats_of_jt_are_t_family(name, params):
    C = named(name, **params)
    assert is_tbrsc(C)
    assert _jt_flats_are_t_family(C)


def test_flats_inside_truncation_t_family():
    # partition matroid with blocks 12 / 34 / 5: its flats are block unions,
    # and they land in T(H_k) for every truncation level
    gens = {
        tri(a, b, 5) for a in (1, 2) for b in (3, 4)
    }
    C = Complex(5, gens)
    fl = set(flats(C).members)
    assert tri(1, 2) in fl and tri(3, 4) in fl
    for k in (1, 2):
        Ck = truncate(C, k)
        assert fl <= set(t_family(Ck).members)
    T2 = set(t_family(truncate(C, 2)).members)
    assert tri(1, 3) not in T2


def _random_paving(rng, n, d):
    full = (1 << n) - 1
    keep = [X for X in k_submasks(full, d + 1) if rng.random() < 0.6]
    return Complex(n, set(keep) | set(k_submasks(full, d)))


def test_t_monotone_for_paving_pairs():
    rng = random.Random(23)
    tried = 0
    while tried < 40:
        n = rng.randint(4, 6)
        d = rng.choice([1, 2])
        C = _random_paving(rng, n, d)
        if is_paving(C) != d:
            continue
        # enlarge by a few extra top faces
        extra = [X for X in k_submasks(C.full_mask, d + 1) if not C.has(X) and rng.random() < 0.5]
        D = Complex(n, set(C.facets) | set(extra))
        if is_paving(D) != d:
            continue
        tried += 1
        TH = set(t_family(C).members)
        TH2 = set(t_family(D).members)
        assert TH <= TH2
        JC = jt_complex(C)
        JD = jt_complex(D)
        assert all(JD.has(f) for f in JC.facets)


def _btbtwo():
    full = (1 << 6) - 1
    fivesix = tri(5, 6)
    gens = set(k_submasks(full, 2))
    for X in k_submasks(full, 3):
        if (X & fivesix).bit_count() == 1:
            gens.add(X)
    gens |= {tri(1, 2, 3), tri(1, 2, 4)}
    return Complex(6, gens)


def test_is_tbrsc_on_truncation_example():
    C = _btbtwo()
    assert is_tbrsc(C)
    assert not is_boolean_representable(C)[0]
    fam = t_family(C)
    expect = {0, tri(1), tri(2), tri(3), tri(4), tri(5), tri(6), tri(1, 2), tri(1, 2, 3, 4), (1 << 6) - 1}
    assert set(fam.members) == expect
    ok, _ = paving_tbrsc_criterion(C)
    assert ok


def test_is_tbrsc_rejects_matroid_union():
    # two rank-3 matroids on five points whose union is not a truncation
    full = (1 << 5) - 1
    H2 = {tri(1, 3), tri(1, 4), tri(2, 3), tri(2, 4)}
    H2 |= {tri(1, 3, 5), tri(1, 4, 5), tri(2, 3, 5), tri(2, 4, 5)}
    B = Complex(5, H2)
    A = Complex(5, set(k_submasks(full, 2)))
    U = union(A, B)
    assert U.facets == frozenset(
        set(k_submasks(full, 2)) - {tri(1, 3), tri(1, 4), tri(2, 3), tri(2, 4), tri(3, 5), tri(4, 5), tri(1, 5), tri(2, 5)}
        | {tri(1, 3, 5), tri(1, 4, 5), tri(2, 3, 5), tri(2, 4, 5)}
    )
    assert is_tbrsc(A)
    assert is_tbrsc(B)
    assert not is_tbrsc(U)
    ok, witness = paving_tbrsc_criterion(U)
    assert not ok and witness is not None
    # membership of 13 in a T-set forces 2 and 4 along
    forced = cl_T(U, tri(1, 3))
    assert forced & tri(2) and forced & tri(4)


def test_tbrsc_closed_under_union_for_paving():
    rng = random.Random(9)
    done = 0
    while done < 25:
        n = rng.randint(5, 6)
        full = (1 << n) - 1
        lines = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(2, n - 2)
            L = mask_of(rng.sample(range(n), size))
            lines.append(L)
        gens = set(k_submasks(full, 2))
        Hs = []
        for L in lines:
            Hs.append(b_d(n, L, 2))
        C = Complex(n, set().union(*[set(h.facets) for h in Hs]) | gens)
        lines2 = []
        for _ in range(rng.randint(1, 3)):
            size = rng.randint(2, n - 2)
            lines2.append(mask_of(rng.sample(range(n), size)))
        D = Complex(
            n,
            set().union(*[set(b_d(n, L, 2).facets) for L in lines2]) | gens,
        )
        if C.dim != 2 or D.dim != 2:
            continue
        if not (is_tbrsc(C) and is_tbrsc(D)):
            continue
        done += 1
        assert is_tbrsc(union(C, D))


def test_union_of_representable_can_lose_representability():
    full = (1 << 6) - 1
    C = b_d(6, tri(1, 2), 2)
    gens = set(k_submasks(full, 2))
    for X in k_submasks(full, 3):
        if (X & tri(5, 6)).bit_count() == 1:
            gens.add(X)
    D = Complex(6, gens)
    assert is_boolean_representable(C)[0]
    assert is_boolean_representable(D)[0]
    U = union(C, D)
    assert U == _btbtwo()
    assert not is_boolean_representable(U)[0]
    assert is_tbrsc(U)


def test_codimension_examples():
    # remove three triangles forming a triangle of lines: codimension 1
    excl = {tri(1, 2, 4), tri(1, 3, 5), tri(2, 3, 6)}
    full = (1 << 6) - 1
    C = Complex(6, set(k_submasks(full, 3)) - excl)
    assert codimension(C) == 1
    lines = [tri(1, 2, 4), tri(1, 3, 5), tri(2, 3, 6)]
    fam = t_family(C)
    expect = {T for T in range(1 << 6) if all((T & L).bit_count() <= 1 for L in lines)}
    expect |= set(lines) | {full}
    assert set(fam.members) == expect

    # remove one triangle: J(T(H)) goes two dimensions higher
    C2 = Complex(6, set(k_submasks(full, 3)) - {tri(4, 5, 6)})
    fam2 = t_family(C2)
    assert set(fam2.members) == {T for T in range(1 << 6) if (T & tri(4, 5, 6)).bit_count() != 2}
    J2 = jt_complex(C2)
    assert J2.faces == frozenset(
        X for X in range(1 << 6) if X.bit_count() <= 5 and (X & tri(4, 5, 6)).bit_count() <= 2
    )
    assert J2.dim == 4
    assert codimension(C2) == 2


def test_goes_up_report_shape():
    # the single extra triple keeps J(T(H)) one dimension BELOW H
    C = Complex(4, set(k_submasks(0b1111, 2)) | {tri(1, 2, 3)})
    rep = goes_up(C)
    assert rep.verdict == "NGU"
    assert rep.witness is None
    assert rep.t_family_size == 6
    assert rep.dim_JT == C.dim - 1
    D = Complex(4, set(k_submasks(0b1111, 3)))
    rep2 = goes_up(D)
    assert rep2.verdict == "GU"
    assert rep2.dim_JT == 3
    assert rep2.witness is not None
    assert rep2.t_family_size == 16
    with pytest.raises(DomainError):
        goes_up(Complex(4, [tri(1, 2, 3)]))


def test_classify_minimality_examples():
    # single missing triple on four points: MNGU
    full4 = 0b1111
    C = Complex(4, set(k_submasks(full4, 3)) - {tri(1, 2, 3)})
    assert classify_minimality(C) == "MNGU"
    # the full uniform U_{3,4} is mGU
    U34 = Complex(4, set(k_submasks(full4, 3)))
    assert classify_minimality(U34) == "mGU"
    with pytest.raises(DomainError):
        classify_minimality(Complex(4, [tri(1, 2, 3)]))


def test_enumerate_mngu_small():
    out4 = enumerate_mngu(4)
    assert len(out4) == 1
    full4 = 0b1111
    assert out4[0] == canonical_complex(Complex(4, set(k_submasks(full4, 3)) - {tri(1, 2, 3)}))

    out5 = enumerate_mngu(5)
    assert len(out5) == 2
    full5 = 0b11111

    def from_defect(*missing):
        gens = set(k_submasks(full5, 2)) | (set(k_submasks(full5, 3)) - set(missing))
        return canonical_complex(Complex(5, gens))

    expect = {
        from_defect(tri(1, 2, 3), tri(1, 2, 4), tri(1, 3, 4)),
        from_defect(tri(1, 2, 3), tri(3, 4, 5)),
    }
    assert set(out5) == expect


def test_enumerate_mgu_counts():
    for n in (4, 5, 6):
        out = enumerate_mgu(n)
        assert len(out) == (n * n - 9 * n + 22) // 2


def test_everyres_empty_below_nine():
    assert everyres_classes(5) == []
    assert everyres_classes(6) == []


def test_dim1_facts():
    # defect = two disjoint edges on four points: MNGU
    C = Complex(4, set(k_submasks(0b1111, 2)) - {tri(1, 2), tri(3, 4)})
    facts = dim1_gu_facts(C)
    assert facts["mngu"] and not facts["gu"]

    # defect = triangle, edge, and an isolated point on six points: mGU
    defect_edges = {tri(1, 2), tri(1, 3), tri(2, 3), tri(4, 5)}
    D = Complex(6, set(k_submasks((1 << 6) - 1, 2)) - defect_edges)
    facts = dim1_gu_facts(D)
    assert facts["mgu"] and facts["gu"]
    assert len(facts["components"]) == 3

    # a single defect edge leaves two isolated vertices: three clique
    # components, hence minimally going up
    E = Complex(4, set(k_submasks(0b1111, 2)) - {tri(1, 2)})
    facts = dim1_gu_facts(E)
    assert facts["gu"] and facts["mgu"] and not facts["mngu"]

    # defect = triangle plus an isolated vertex: two components, but the
    # cycle rules out maximality
    F = Complex(4, set(k_submasks(0b1111, 2)) - {tri(1, 2), tri(1, 3), tri(2, 3)})
    facts = dim1_gu_facts(F)
    assert not facts["gu"] and not facts["mngu"] and not facts["mgu"]

    with pytest.raises(DomainError):
        dim1_gu_facts(Complex(4, set(k_submasks(0b1111, 3))))
