"""T-family, TBRSC recognition, codimension, and going-up tests."""

import os
import random
import subprocess
import sys
import time
from functools import partial
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsc import core, t_operator
from brsc.catalog import named
from brsc.core import (
    CapacityError,
    Complex,
    DomainError,
    bits,
    is_paving,
    k_submasks,
    mask_of,
    restriction,
    truncate,
    union,
)
from brsc.lattice import MooreFamily, _extension_constraints, _horn_closure, flats, j_complex, is_boolean_representable
from brsc.operators import b_d
from brsc.iso import canonical_complex
from brsc.reproduce import random_line_union, random_paving, tri
from brsc.t_operator import (
    _gu_witnesses,
    _is_gu,
    _t_constraints,
    classify_minimality,
    cl_T,
    codimension,
    dim1_gu_facts,
    enumerate_mgu,
    enumerate_mngu,
    everyres_classes,
    goes_up,
    is_tbrsc,
    j_restriction_params,
    jijn,
    jt_complex,
    mgu_pairs,
    paving2_reps,
    paving_tbrsc_criterion,
    t_family,
    two_line_complex,
)
from complex_helpers import assert_routes_agree, complexes, relabeled
from independence_oracle import independent_order


def dfs_is_tbrsc(C):
    """TBRSC test by an independence search per facet and per non-face k-subset."""
    cl = partial(cl_T, C)
    if any(independent_order(cl, f) is None for f in C.facets):
        return False
    for k in range(2, C.dim + 2):
        for X in k_submasks(C.full_mask, k):
            if X not in C.faces and independent_order(cl, X) is not None:
                return False
    return True


def _cltt_witness(cl, full, d):
    """The first pair (X, Y), X a (d+1)-set with cl(X) short of the full set
    and Y a d-subset of X with cl(Y) != cl(X), or None: the (d+1)-set-first
    search for a going-up witness. Each d-subset is closed once."""
    closed = {}
    for X in k_submasks(full, d + 1):
        cx = cl(X)
        if cx == full:
            continue
        for Y in k_submasks(X, d):
            cy = closed.get(Y)
            if cy is None:
                cy = closed[Y] = cl(Y)
            if cy != cx:
                return X, Y
    return None


def neighbour_complex_classify(C):
    """mGU / MNGU / neither, deciding each neighbour C - X or C + X on a
    freshly built Complex."""
    d = is_paving(C)
    top = sorted(C.faces_of_size(d + 1))
    full = C.full_mask

    def gu(D):
        return _cltt_witness(partial(cl_T, D), D.full_mask, D.dim) is not None

    if gu(C):
        if len(top) > 1:
            for X in top:
                gens = (set(C.facets) - {X}) | set(k_submasks(X, d))
                if gu(Complex(C.n, gens, C.labels)):
                    return "neither"
        return "mGU"
    for X in k_submasks(full, d + 1):
        if not C.has(X) and not gu(Complex(C.n, set(C.facets) | {X}, C.labels)):
            return "neither"
    return "MNGU"


def rebuilt_constraints_classify(C):
    """mGU / MNGU / neither, deciding each neighbour C - X or C + X on its own
    constraint dict, C's with bad(Y) gaining or losing X - Y for every
    d-subset Y of X, rescanned for a witness by _cltt_witness."""
    d = is_paving(C)
    full = C.full_mask
    bad = dict(_t_constraints(C))

    def neighbour_is_gu(X, added):
        nb = dict(bad)
        for Y in k_submasks(X, d):
            p = X & ~Y
            b = nb.get(Y, 0) & ~p if added else nb.get(Y, 0) | p
            if b:
                nb[Y] = b
            else:
                nb.pop(Y, None)
        return _cltt_witness(partial(_horn_closure, tuple(nb.items()), full, None, 0), full, d) is not None

    if _is_gu(C):
        top = C.faces_of_size(d + 1)
        if len(top) > 1:
            if d == 0:
                return "neither"
            if any(neighbour_is_gu(X, added=False) for X in sorted(top)):
                return "neither"
        return "mGU"
    for X in k_submasks(full, d + 1):
        if not C.has(X) and not neighbour_is_gu(X, added=True):
            return "neither"
    return "MNGU"


def pavings(max_n=7):
    """Paving complexes: every d-set plus a drawn subset of the (d+1)-sets."""

    @st.composite
    def strat(draw):
        n = draw(st.integers(2, max_n))
        d = draw(st.integers(1, min(2, n - 1)))
        full = (1 << n) - 1
        top = [X for X in k_submasks(full, d + 1) if draw(st.booleans())]
        return Complex(n, set(top) | set(k_submasks(full, d)))

    return strat()


def longest_chain_members(fam):
    """Most members in a strictly increasing chain of the family, by an
    O(|T|^2) pass over the members in size order."""
    ms = sorted(fam.members, key=lambda m: (m.bit_count(), m))
    best = {}
    for i, m in enumerate(ms):
        b = 1
        for j in range(i):
            mj = ms[j]
            if mj != m and mj & ~m == 0:
                b = max(b, best[mj] + 1)
        best[m] = b
    return max(best.values()) if best else 0


@given(complexes(max_n=6))
@settings(max_examples=200, deadline=None)
def test_tbrsc_walk_matches_independence_search(C):
    assert is_tbrsc(C) == dfs_is_tbrsc(C)


def test_tbrsc_walk_matches_independence_search_on_paving_classes():
    for n in (4, 5, 6):
        for C in paving2_reps(n):
            assert is_tbrsc(C) == dfs_is_tbrsc(C)


def test_paving2_reps_range_is_the_orbit_table_cap():
    # the orbit table caps C(n, 3) at 21: n = 3 gives the triangle alone, and
    # n = 7 (35 triples) is refused
    assert [C.facets for C in paving2_reps(3)] == [{0b111}]
    with pytest.raises(CapacityError, match=r"C\(n, d\+1\) <= 21"):
        next(paving2_reps(7))


def test_incremental_classify_matches_neighbour_complexes_on_paving_classes():
    for n in (4, 5, 6):
        for C in paving2_reps(n):
            assert classify_minimality(C) == neighbour_complex_classify(C)


def test_incremental_classify_matches_neighbour_complexes_on_line_unions():
    for n in range(4, 9):
        for i in range(2, n):
            for j in range(i + 1, n):
                C = jijn(i, j, n)
                assert classify_minimality(C) == neighbour_complex_classify(C)


def test_incremental_classify_matches_neighbour_complexes_in_low_dimension():
    rng = random.Random(61)
    cases = [Complex(n, []) for n in range(1, 6)]
    for n in range(2, 8):
        pairs = list(k_submasks((1 << n) - 1, 2))
        for _ in range(12):
            cases.append(Complex(n, [X for X in pairs if rng.random() < 0.7]))
    seen = set()
    for C in cases:
        if is_paving(C) is None:
            continue
        verdict = classify_minimality(C)
        assert verdict == neighbour_complex_classify(C)
        seen.add((C.dim, verdict))
    # every verdict shows up in both dimensions
    assert seen >= {(0, "neither"), (0, "MNGU"), (1, "mGU"), (1, "MNGU"), (1, "neither")}


def test_removal_route_matches_rebuilt_constraints_on_paving_classes():
    for n in (4, 5, 6):
        for C in paving2_reps(n):
            assert classify_minimality(C) == rebuilt_constraints_classify(C)


def test_removal_route_matches_rebuilt_constraints_on_line_unions():
    for n in range(4, 10):
        for i in range(2, n):
            for j in range(i + 1, n):
                C = jijn(i, j, n)
                assert classify_minimality(C) == rebuilt_constraints_classify(C)


def test_subset_tables_match_the_horn_route_on_the_paving_classes_of_six():
    seen = 0
    for C in paving2_reps(6):
        assert_routes_agree(C)
        seen += 1
    assert seen == 2135


def test_removal_route_matches_rebuilt_constraints_on_random_line_unions():
    # the benchmark's wide line unions: same seed, the sampler's own labels
    rng = random.Random(2309)
    seen = set()
    for _ in range(32):
        C = random_line_union(rng, rng.randint(10, 12), rng.randint(2, 3))
        verdict = classify_minimality(C)
        assert verdict == rebuilt_constraints_classify(C)
        seen.add(verdict)
    assert seen == {"mGU", "neither"}


@given(pavings())
@settings(max_examples=150, deadline=None)
def test_removal_route_matches_rebuilt_constraints(C):
    assert classify_minimality(C) == rebuilt_constraints_classify(C)


def _walk_matches_witness_search(C):
    # the walk yields, each once, exactly the pairs (Y, x) with x outside
    # cl_T(Y) and cl_T(Y + x) short of V, and has one exactly when the
    # (d+1)-set-first search finds a witness
    d, full = C.dim, C.full_mask
    cl = partial(cl_T, C)
    walked = [(Y, x) for Y, x, _, _ in _gu_witnesses(cl, full, d)]
    expect = [
        (Y, 1 << p)
        for Y in k_submasks(full, d)
        for p in bits(full & ~cl(Y))
        if cl(Y | 1 << p) != full
    ]
    assert walked == expect
    assert bool(walked) == (_cltt_witness(cl, full, d) is not None)
    return bool(walked)


def test_witness_walk_matches_witness_search_on_paving_classes():
    seen = set()
    for n in (4, 5, 6):
        for C in paving2_reps(n):
            seen.add(_walk_matches_witness_search(C))
    assert seen == {True, False}


def test_witness_walk_matches_witness_search_on_line_unions():
    for n in range(4, 10):
        for i in range(2, n):
            for j in range(i + 1, n):
                _walk_matches_witness_search(jijn(i, j, n))


@given(pavings())
@settings(max_examples=150, deadline=None)
def test_witness_walk_matches_witness_search(C):
    _walk_matches_witness_search(C)


def test_removal_route_closure_count(monkeypatch):
    # an mGU line union with more than 100 top faces: every removal
    # neighbour is decided, so every witness meets every top face
    rng = random.Random(2309)
    while True:
        C = random_line_union(rng, rng.randint(10, 12), rng.randint(2, 3))
        if len(C.faces_of_size(3)) > 100 and rebuilt_constraints_classify(C) == "mGU":
            break
    perm = list(range(C.n))
    random.Random(17).shuffle(perm)
    calls = []

    def counted(*args):
        calls.append(None)
        return _horn_closure(*args)

    monkeypatch.setattr(t_operator, "_horn_closure", counted)
    counts = []
    for D in (C, relabeled(C, perm)):
        top = D.faces_of_size(3)
        # each count starts from an empty closure memo
        t_operator._t_closure.cache_clear()
        calls.clear()
        assert classify_minimality(D) == "mGU"
        assert len(calls) <= comb(D.n, 2) * (D.n - 1) + len(top)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def _mgu_line_union():
    rng = random.Random(2309)
    while True:
        C = random_line_union(rng, rng.randint(10, 12), rng.randint(2, 3))
        if len(C.faces_of_size(3)) > 100:
            return C


@pytest.mark.parametrize("make", [lambda: named("nfb", n=9), _mgu_line_union], ids=["nfb:n=9", "line-union"])
def test_t_readers_close_each_small_set_once(monkeypatch, make):
    # is_tbrsc, codimension and classify_minimality share one memoised cl_T
    # per complex: a set of at most dim + 1 points is closed exactly once
    C = make()
    closed = []

    def counted(cons, full, faces, d1, X, stop=0):
        if not stop and X.bit_count() <= C.dim + 1:
            closed.append(X)
        return _horn_closure(cons, full, faces, d1, X, stop)

    monkeypatch.setattr(t_operator, "_horn_closure", counted)
    t_operator._t_closure.cache_clear()
    is_tbrsc(C)
    codimension(C)
    classify_minimality(C)
    assert len(closed) > C.n
    assert len(closed) == len(set(closed))


@given(complexes(5))
@settings(max_examples=120, deadline=None)
def test_memoised_cl_t_matches_a_fresh_closure(C):
    cons = _extension_constraints(C, C.dim + 1)
    # NextClosure's calls stop early, and must leave no partial closure behind
    t_family(C)
    is_tbrsc(C)
    codimension(C)
    for _ in range(2):
        for X in range(C.full_mask + 1):
            assert cl_T(C, X) == _horn_closure(cons, C.full_mask, None, 0, X)


def test_dim1_gu_facts_checks_paving_once(monkeypatch):
    calls = []

    def counted(C):
        calls.append(C)
        return is_paving(C)

    # the paving guard reads the name in core's namespace only
    monkeypatch.setattr(core, "is_paving", counted)
    C = Complex(6, set(k_submasks((1 << 6) - 1, 2)) - {tri(1, 2), tri(1, 3), tri(4, 5)})
    dim1_gu_facts(C)
    assert len(calls) == 1


def test_t_family_far_example():
    C = Complex(4, set(k_submasks(0b1111, 2)) | {tri(1, 2, 3)})
    fam = t_family(C)
    expect = {0, 0b0001, 0b0010, 0b0100, 0b1000, 0b1111}
    assert set(fam.members) == expect


@given(complexes(5))
@settings(max_examples=120, deadline=None)
def test_t_family_is_moore_and_contains_flats(C):
    fam = t_family(C)
    MooreFamily(C.n, fam.members)  # validates intersection closure
    assert set(flats(C).members) <= set(fam.members)


@given(complexes(5), st.integers(0, 31))
@settings(max_examples=150, deadline=None)
def test_cl_T_matches_family_scan(C, seed):
    X = seed & C.full_mask
    fam = t_family(C)
    assert cl_T(C, X) == fam.closure(X)
    assert cl_T(C, cl_T(C, X)) == cl_T(C, X)


@given(complexes(5))
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


@given(complexes(5))
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


def test_t_monotone_for_paving_pairs():
    rng = random.Random(23)
    tried = 0
    while tried < 40:
        n = rng.randint(4, 6)
        d = rng.choice([1, 2])
        C = random_paving(rng, n, d, 0.6)
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


def test_is_tbrsc_on_truncation_example():
    C = named("btbtwo")
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
    assert U == named("btbtwo")
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
    assert (rep.max_chain_length, rep2.max_chain_length) == (3, 5)
    with pytest.raises(DomainError):
        goes_up(Complex(4, [tri(1, 2, 3)]))


@given(pavings())
@settings(max_examples=150, deadline=None)
def test_going_up_witness_matches_dimension(C):
    dim_jt = jt_complex(C).dim
    rep = goes_up(C)
    assert rep.dim_JT == dim_jt
    assert rep.verdict == ("GU" if dim_jt > C.dim else "NGU")
    assert (rep.witness is not None) == (dim_jt > C.dim)
    assert _is_gu(C) == (dim_jt > C.dim)
    if rep.witness is not None:
        X, Y = rep.witness
        assert X.bit_count() == C.dim + 1 and Y.bit_count() == C.dim
        assert Y & ~X == 0
        assert cl_T(C, Y) != cl_T(C, X) != C.full_mask


def test_goes_up_past_the_t_family_cap(monkeypatch):
    # T(H) of a line union on 21 vertices has 27 members. Past a limit below
    # that it is not listed, and goes_up is refused first by J(T(H)): it has
    # no coloops, so its walk lists all of its 305 faces
    C = jijn(2, 3, 21)
    assert len(t_family(C)) == goes_up(C).t_family_size == 27
    monkeypatch.setattr(core, "SET_LIMIT", 26)
    with pytest.raises(CapacityError, match="T-family with more than 26 sets"):
        t_family(C)
    with pytest.raises(CapacityError, match="J-complex with more than"):
        goes_up(C)


@given(pavings())
@settings(max_examples=150, deadline=None)
def test_longest_t_family_chain_is_dim_jt_plus_two(C):
    fam = t_family(C)
    rep = goes_up(C)
    assert rep.t_family_size == len(fam) <= len(jt_complex(C).faces)
    assert longest_chain_members(fam) == jt_complex(C).dim + 2 == rep.max_chain_length


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
        assert all(classify_minimality(C) == "mGU" for C in out)
        # distinct T(H) member-size sets separate the classes
        sigs = {frozenset(m.bit_count() for m in t_family(C).members) for C in out}
        assert len(sigs) == len(out)
        # an exhaustive scan of the paving classes finds no others
        found = {canonical_complex(C) for C in paving2_reps(n) if classify_minimality(C) == "mGU"}
        assert found == {canonical_complex(C) for C in out}


def test_enumerate_mgu_bounds():
    # below 4 vertices there is no class to list; past 9 the count is untested
    assert len(enumerate_mgu(4)) == 1
    with pytest.raises(DomainError):
        enumerate_mgu(3)
    with pytest.raises(CapacityError):
        enumerate_mgu(10)


def union_two_line_complex(a, b, m):
    """The two-line complex by the union route: every pair, united with the
    b_d complex of each line size in 2..m-1."""
    out = Complex(m, set(k_submasks((1 << m) - 1, 2)))
    for size in {a, b}:
        if 2 <= size <= m - 1:
            out = union(out, b_d(m, (1 << size) - 1, 2))
    return out


def test_two_line_complex_matches_the_union_route():
    for m in range(1, 9):
        for a in range(m + 2):
            for b in range(a, m + 2):
                assert two_line_complex(a, b, m) == union_two_line_complex(a, b, m)
    for i, j in mgu_pairs(9):
        assert jijn(i, j, 9) == union(b_d(9, (1 << i) - 1, 2), b_d(9, (1 << j) - 1, 2))


def test_two_line_complex_refuses_before_listing():
    # the vertex count is checked before any pair is listed; listing the
    # pairs of 1400 points first took seconds
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="n=1400 exceeds the 64-vertex capacity"):
        two_line_complex(1, 1, 1400)
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("n", range(5, 10))
def test_vertex_deletions_of_two_line_complexes(n):
    # everyres_classes classifies each deletion by its restricted sizes
    full = (1 << n) - 1
    for i, j in mgu_pairs(n):
        C = jijn(i, j, n)
        for p in range(1, n + 1):
            a, b = j_restriction_params(i, j, n, p)
            R = restriction(C, full & ~(1 << (p - 1)))
            assert R == two_line_complex(min(a, b), max(a, b), n - 1)


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


def test_dim1_gu_facts_components():
    # n=5, defect edges 12 and 23 form one component; 4 and 5 are isolated
    C = Complex(5, set(k_submasks(0b11111, 2)) - {0b00011, 0b00110})
    assert sorted(dim1_gu_facts(C)["components"]) == [0b00111, 0b01000, 0b10000]


def test_dim1_facts_match_the_generic_machinery():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(2, 7)
        pairs = list(k_submasks((1 << n) - 1, 2))
        C = Complex(n, {e for e in pairs if rng.random() < 0.7})
        if is_paving(C) != 1:
            continue
        facts = dim1_gu_facts(C)
        cls = classify_minimality(C)
        assert facts["gu"] == _is_gu(C) == (jt_complex(C).dim > 1)
        assert facts["mngu"] == (cls == "MNGU")
        assert facts["mgu"] == (cls == "mGU")


def test_broken_witness_route_fails_the_defect_graph_check_under_O():
    # the comparison lives in reproduce, not in library asserts, so it still
    # runs, and reports, when python -O strips asserts
    code = (
        "from brsc import t_operator\n"
        "t_operator._is_gu = lambda C: True\n"
        "from brsc.reproduce import run_criterion\n"
        "print('\\n'.join(run_criterion('going-up').lines()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    line = next(l for l in proc.stdout.splitlines() if "defect-graph criteria agree" in l)
    assert line.split()[0] == "FAIL"
