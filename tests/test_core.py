"""Core data model tests against independent set-based oracles."""

import json
from itertools import chain, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsc import (
    CapacityError,
    Complex,
    DomainError,
    complex_from_json,
    complex_to_json,
    contraction,
    counting_function,
    defect,
    is_paving,
    join,
    oplus,
    pure_part,
    restriction,
    sum_complex,
    truncate,
    union,
)
from brsc.core import (
    alpha_vector,
    bits,
    compress,
    decompress,
    defect_graph_components,
    is_unimodal,
    k_submasks,
    mask_of,
    submasks,
)


# Oracle: plain frozenset-of-frozensets downward closure.

def closure_oracle(n, generators):
    faces = {frozenset()}
    faces.update(frozenset([i]) for i in range(n))
    for g in generators:
        g = frozenset(g)
        for r in range(len(g) + 1):
            faces.update(map(frozenset, combinations(sorted(g), r)))
    return faces


def faces_as_sets(C):
    return {frozenset(bits(f)) for f in C.faces}


def complexes(max_n=6):
    @st.composite
    def strat(draw):
        n = draw(st.integers(1, max_n))
        full = (1 << n) - 1
        gens = draw(st.lists(st.integers(0, full), max_size=8))
        return Complex(n, gens)

    return strat()


def test_bit_helpers():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
    assert sorted(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert sorted(k_submasks(0b111, 2)) == [0b011, 0b101, 0b110]
    assert compress(0b10100, 0b10110) == 0b110
    assert decompress(0b110, 0b10110) == 0b10100


def test_build_small():
    C = Complex(4, [0b0011, 0b1100])
    assert C.dim == 1
    assert faces_as_sets(C) == closure_oracle(4, [{0, 1}, {2, 3}])
    assert C.facets == frozenset({0b0011, 0b1100})


def test_singletons_always_present():
    C = Complex(3)
    assert faces_as_sets(C) == {frozenset(), frozenset([0]), frozenset([1]), frozenset([2])}
    assert C.dim == 0


def test_domain_and_capacity():
    with pytest.raises(DomainError):
        Complex(0)
    with pytest.raises(CapacityError):
        Complex(65)
    with pytest.raises(DomainError):
        Complex(2, [0b100])
    with pytest.raises(DomainError):
        Complex(2, labels=("a", "a"))


@given(complexes())
@settings(max_examples=200, deadline=None)
def test_faces_match_oracle(C):
    gens = [set(bits(f)) for f in C.facets]
    assert faces_as_sets(C) == closure_oracle(C.n, gens)


@given(complexes())
@settings(max_examples=200, deadline=None)
def test_facets_are_maximal_faces(C):
    faces = C.faces
    maximal = {
        f for f in faces if not any(g != f and f & ~g == 0 for g in faces)
    }
    assert C.facets == maximal


@given(complexes(), st.integers(0, 127))
@settings(max_examples=200, deadline=None)
def test_has_agrees_with_faces(C, probe):
    probe &= C.full_mask
    assert C.has(probe) == (probe in C.faces)


def test_restriction_oracle():
    C = Complex(5, [0b00111, 0b11100])
    R = restriction(C, 0b01110)
    expect = {
        frozenset(X & {1, 2, 3})
        for X in faces_as_sets(C)
        if X <= {1, 2, 3}
    }
    got = {frozenset(C.labels[i] - 1 for i in bits(decompress(f, 0b01110))) for f in R.faces}
    assert {frozenset(x - 0 for x in s) for s in got} == {
        frozenset(i for i in X) for X in expect
    }
    assert R.labels == (2, 3, 4)


@given(complexes(), st.integers(1, 127))
@settings(max_examples=100, deadline=None)
def test_restriction_matches_filter(C, W_seed):
    W = W_seed & C.full_mask
    if W == 0:
        W = 1
    R = restriction(C, W)
    Wlist = sorted(bits(W))
    expect = {X for X in faces_as_sets(C) if X <= set(Wlist)}
    got = {frozenset(Wlist[i] for i in bits(f)) for f in R.faces}
    assert got == expect


def test_contraction():
    C = Complex(4, [0b0111, 0b1100])
    X = contraction(C, 0b0100)
    # faces Y of X satisfy Y union {2} in C
    expect = {
        frozenset(Y)
        for Y in chain.from_iterable(combinations([0, 1, 3], r) for r in range(4))
        if frozenset(Y) | {2} in faces_as_sets(C) or Y == ()
    }
    verts = [0, 1, 3]
    got = {frozenset(verts[i] for i in bits(f)) for f in X.faces}
    assert got == expect
    with pytest.raises(DomainError):
        contraction(C, 0b1001)


@given(complexes(), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_truncate_matches_filter(C, k):
    T = truncate(C, k)
    assert faces_as_sets(T) == {X for X in faces_as_sets(C) if len(X) <= k}


def test_union_sum_oplus_join():
    A = Complex(4, [0b0011])
    B = Complex(4, [0b1100])
    U = union(A, B)
    assert faces_as_sets(U) == faces_as_sets(A) | faces_as_sets(B)

    S = sum_complex(A, B)
    expect = {X | Y for X in faces_as_sets(A) for Y in faces_as_sets(B)}
    assert faces_as_sets(S) == expect

    P = oplus(A, Complex(2, [0b11], labels=(5, 6)))
    assert P.n == 6
    assert P.labels == (1, 2, 3, 4, 5, 6)
    assert P.dim == 3
    assert any(f.bit_count() == 4 for f in P.facets)

    J = join(A, Complex(3, [0b111], labels=(3, 4, 5)))
    assert J.n == 5
    assert J.labels == (1, 2, 3, 4, 5)
    jf = {frozenset(J.face_labels(f)) for f in J.faces}
    assert frozenset([3, 4, 5]) in jf and frozenset([1, 2]) in jf
    assert frozenset([2, 3]) not in jf

    with pytest.raises(DomainError):
        union(A, Complex(3))
    with pytest.raises(DomainError):
        oplus(A, B)


@given(complexes(4), complexes(4))
@settings(max_examples=100, deadline=None)
def test_sum_oracle(C, D):
    if C.n != D.n:
        D = Complex(C.n, [f & C.full_mask for f in D.facets])
    S = sum_complex(C, D)
    expect = {X | Y for X in faces_as_sets(C) for Y in faces_as_sets(D)}
    assert faces_as_sets(S) == expect


def test_pure_part():
    # one triangle plus a pendant edge: pure part keeps the triangle only
    C = Complex(5, [0b00111, 0b11000])
    P = pure_part(C)
    assert P.n == 3
    assert P.labels == (1, 2, 3)
    assert P.dim == 2
    C2 = Complex(3, [0b011, 0b101, 0b110])
    P2 = pure_part(C2)
    assert P2 == C2


def test_counting_function_and_unimodal():
    C = Complex(4, [0b1111])
    alpha, uni = counting_function(C)
    assert alpha == (1, 4, 6, 4, 1)
    assert uni
    assert is_unimodal((1, 16, 15, 20)) is False
    assert is_unimodal((1, 5, 5, 2)) is True
    assert is_unimodal((2, 2, 2)) is True
    assert is_unimodal((1, 3, 2, 2, 3)) is False


@given(complexes())
@settings(max_examples=100, deadline=None)
def test_alpha_sums_to_face_count(C):
    assert sum(alpha_vector(C)) == len(C.faces)


def test_paving_and_defect():
    # all 2-subsets present, one triangle missing from the 3-slice
    full3 = set(k_submasks(0b1111, 3))
    C = Complex(4, (full3 - {0b0111}) | {0b1111 & 0})
    C = Complex(4, full3 - {0b0111})
    assert C.dim == 2
    assert is_paving(C) == 2
    D = defect(C)
    assert set(D.members) == {0b0111}
    # non-paving: a missing edge below top dimension
    C2 = Complex(4, [0b0111])
    assert is_paving(C2) is None
    with pytest.raises(DomainError):
        defect(C2)


def test_defect_graph_components():
    # n=5, defect edges 12 and 23 form one component; 4 and 5 are isolated
    gens = set(k_submasks(0b11111, 2)) - {0b00011, 0b00110}
    C = Complex(5, gens)
    comps = defect_graph_components(C)
    assert sorted(comps) == [0b00111, 0b01000, 0b10000]


def test_json_round_trip():
    C = Complex(4, [0b0111, 0b1010])
    text = complex_to_json(C)
    data = json.loads(text)
    assert data["vertices"] == 4
    assert [1, 2, 3] in data["facets"]
    assert complex_from_json(text) == C

    L = Complex(3, [0b111], labels=("a", "b", "c"))
    text2 = complex_to_json(L)
    back = complex_from_json(text2)
    assert back.labels == ("a", "b", "c")
    assert back == L


@given(complexes())
@settings(max_examples=100, deadline=None)
def test_json_round_trip_random(C):
    assert complex_from_json(complex_to_json(C)) == C


def test_json_errors():
    with pytest.raises(DomainError):
        complex_from_json("not json")
    with pytest.raises(DomainError):
        complex_from_json('{"vertices": 3}')
    with pytest.raises(DomainError):
        complex_from_json('{"vertices": 3, "facets": [[1, 7]]}')
    with pytest.raises(DomainError):
        complex_from_json('{"vertices": [1, 1], "facets": []}')


def test_repr_smoke():
    C = Complex(4, [0b0111])
    assert "Complex" in repr(C)
    assert "SetFamily" in repr(defect(Complex(3, set(k_submasks(0b111, 2)) - {0b011})))
