"""Flats, closures, matrices, transversal complexes: oracle comparisons."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsc.core import Complex, DomainError, bits, k_submasks, mask_of, submasks
from brsc.lattice import (
    BooleanMatrix,
    MooreFamily,
    closure,
    complex_of_matrix,
    _extension_constraints,
    flats,
    flats_paving,
    _horn_closure,
    independence_witness,
    is_boolean_representable,
    is_flat,
    is_independent,
    j_complex,
    long_hyperplane_partition,
    long_hyperplanes,
    matrix_of,
    moore_close,
    tess_core,
    transversal_complex,
)


def flats_oracle(C):
    """Directly quantified flat definition, no constraint precomputation."""
    out = set()
    faces = C.faces
    for F in range(1 << C.n):
        good = True
        for X in faces:
            if X & ~F:
                continue
            for p in bits(C.full_mask & ~F):
                if X | (1 << p) not in faces:
                    good = False
                    break
            if not good:
                break
        if good:
            out.add(F)
    return out


def complexes(max_n=6):
    @st.composite
    def strat(draw):
        n = draw(st.integers(1, max_n))
        full = (1 << n) - 1
        gens = draw(st.lists(st.integers(0, full), max_size=8))
        return Complex(n, gens)

    return strat()


def moore_families(max_n=6):
    @st.composite
    def strat(draw):
        n = draw(st.integers(1, max_n))
        full = (1 << n) - 1
        sets = draw(st.lists(st.integers(0, full), max_size=7))
        return moore_close(n, sets + [0])

    return strat()


@given(complexes())
@settings(max_examples=120, deadline=None)
def test_flats_match_definition(C):
    assert set(flats(C).members) == flats_oracle(C)


@given(complexes())
@settings(max_examples=80, deadline=None)
def test_flats_form_moore_family(C):
    fl = flats(C)
    assert 0 in fl.members
    assert C.full_mask in fl.members
    ms = sorted(fl.members)
    for a, b in combinations(ms, 2):
        assert a & b in fl.members


@given(complexes(), st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=120, deadline=None)
def test_closure_axioms(C, x, y):
    X = x & C.full_mask
    Y = y & C.full_mask
    cx = closure(C, X)
    assert cx == _horn_closure(_extension_constraints(C, C.dim + 2), X)
    assert X & ~cx == 0
    assert closure(C, cx) == cx
    if X & ~Y == 0:
        assert cx & ~closure(C, Y) == 0


def test_moore_close_and_validation():
    fam = moore_close(4, [0b0011, 0b0101])
    assert fam.members == frozenset({0b0011, 0b0101, 0b0001, 0b1111})
    with pytest.raises(DomainError):
        MooreFamily(3, [0b011, 0b101])  # missing V and intersection
    MooreFamily(3, [0b011, 0b111])
    with pytest.raises(DomainError):
        MooreFamily(3, [0b011, 0b101, 0b111])  # 0b001 missing


def test_flats_of_full_boolean():
    # every subset is a flat of the full simplex
    C = Complex(4, [0b1111])
    assert len(flats(C).members) == 16


def test_flats_of_up_of_cfup_shape():
    # all 3-subsets of a 4-set: flats are everything of size <= 2, plus V
    C = Complex(4, set(k_submasks(0b1111, 3)))
    fl = flats(C)
    expect = {X for X in range(16) if X.bit_count() <= 2} | {0b1111}
    assert set(fl.members) == expect


def _random_paving(rng, n, d):
    full = (1 << n) - 1
    top = list(k_submasks(full, d + 1))
    keep = [X for X in top if rng.random() < 0.7]
    gens = set(keep) | set(k_submasks(full, d))
    C = Complex(n, gens)
    return C


def test_flats_paving_matches_brute():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(4, 7)
        d = rng.choice([2, 3])
        if d >= n - 1:
            d = 2
        C = _random_paving(rng, n, d)
        if C.dim != d:
            continue
        assert set(flats_paving(C).members) == set(flats(C).members)


def test_long_hyperplane_partition_example():
    # ten points 0..9; remove four named triples and every triple around {5,6}
    V = tuple(range(10))
    full = (1 << 10) - 1
    excluded = {mask_of(t) for t in [(1, 2, 3), (3, 4, 5), (7, 8, 9), (8, 9, 0)]}
    excluded |= {mask_of((5, 6, p)) for p in range(10) if p not in (5, 6)}
    gens = (set(k_submasks(full, 3)) - excluded) | set(k_submasks(full, 2))
    C = Complex(10, gens, labels=V)
    l1, l2, l3 = long_hyperplane_partition(C)
    assert set(l1.members) == {mask_of((1, 2, 3))}
    assert set(l2.members) == {mask_of((3, 4, 5))}
    assert set(l3.members) == {mask_of((7, 8, 9)), mask_of((8, 9, 0))}
    assert set(long_hyperplanes(C)) == set(l1.members) | set(l2.members) | set(l3.members)
    assert set(flats_paving(C).members) == set(flats(C).members)


def test_matrix_basics():
    M = BooleanMatrix(3, [0b110, 0b001])
    assert M.entry(0, 1) == 1 and M.entry(0, 0) == 0
    assert M.zero_sets == (0b001, 0b110)
    fam = MooreFamily(3, [0b000, 0b011, 0b111])
    Mf = matrix_of(fam)
    assert Mf.rows == (0b111, 0b100, 0b000)


def test_independence_and_witness():
    # rows 0: zeros {0,1}; row 1: zeros {2}
    fam = moore_close(3, [0b011, 0b100, 0])
    M = matrix_of(fam)
    assert is_independent(M, 0b101)
    order, rows = independence_witness(M, 0b101)
    assert len(order) == 2
    # check the lower unitriangular shape directly
    for i, (x, r) in enumerate(zip(order, rows)):
        assert M.entry(r, x) == 1
        for j in range(i):
            assert M.entry(r, order[j]) == 0
    # a singleton on an all-zero column is dependent
    M2 = BooleanMatrix(2, [0b10, 0b10])
    assert not is_independent(M2, 0b01)
    assert independence_witness(M2, 0b01) is None


@given(moore_families())
@settings(max_examples=200, deadline=None)
def test_transversal_equals_matrix_route(fam):
    assert transversal_complex(fam) == j_complex(fam)


@given(moore_families(), st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_membership_iff_independent(fam, seed):
    X = seed & ((1 << fam.n) - 1)
    M = matrix_of(fam)
    C = j_complex(fam)
    assert is_independent(M, X) == C.has(X)


def test_br_far_example():
    # two-skeleton of the tetrahedron plus a single triangle: not representable
    C = Complex(4, set(k_submasks(0b1111, 2)) | {0b0111})
    assert set(flats(C).members) == {0, 0b0001, 0b0010, 0b0100, 0b1000, 0b1111}
    ok, witness = is_boolean_representable(C)
    assert not ok
    assert witness == 0b0111


def test_br_positive():
    # uniform U_{3,5}: all triples independent over its flats
    C = Complex(5, set(k_submasks(0b11111, 3)))
    ok, witness = is_boolean_representable(C)
    assert ok and witness is None


def test_br_mixed_medium():
    # pairs everywhere, triples meeting {5,6} in one point, plus 123 and 124
    def tri(*t):
        return mask_of(tuple(x - 1 for x in t))

    full = (1 << 6) - 1
    fivesix = tri(5, 6)
    gens = set(k_submasks(full, 2))
    for X in k_submasks(full, 3):
        if (X & fivesix).bit_count() == 1:
            gens.add(X)
    gens |= {tri(1, 2, 3), tri(1, 2, 4)}
    C = Complex(6, gens)
    fl = flats(C)
    assert set(fl.members) == {0, tri(1), tri(2), tri(3), tri(4), tri(5), tri(6), tri(1, 2), full}
    ok, witness = is_boolean_representable(C)
    assert not ok


def test_tess_core_subcomplex():
    def tri(*t):
        return mask_of(tuple(x - 1 for x in t))

    full = (1 << 6) - 1
    fivesix = tri(5, 6)
    gens = set(k_submasks(full, 2))
    for X in k_submasks(full, 3):
        if (X & fivesix).bit_count() == 1:
            gens.add(X)
    gens |= {tri(1, 2, 3), tri(1, 2, 4)}
    C = Complex(6, gens)
    fam, T = tess_core(C)
    assert set(fam.members) == {0, tri(1), tri(2), tri(3), tri(4), tri(5), tri(6), tri(1, 2), full}
    assert all(C.has(f) for f in T.faces)
    expect = set(k_submasks(full, 2)) | {0} | {1 << i for i in range(6)}
    expect |= {tri(1, 2) | (1 << p) for p in range(2, 6)}
    assert T.faces == expect


def test_transversal_small_shapes():
    # chain family gives exactly the transversals of its differences
    fam = MooreFamily(4, [0b0000, 0b0001, 0b0111, 0b1111])
    C = transversal_complex(fam)
    # chains pick at most one point per difference {0}, {1,2}, {3}
    assert C.has(0b1011)
    assert not C.has(0b0110)
    assert C.dim == 2
