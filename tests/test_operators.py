"""Up operator and one-point construction tests, with dual-route checks."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsc import core, operators
from brsc.core import (
    CapacityError,
    Complex,
    DomainError,
    SetFamily,
    adjacency,
    bits,
    contraction,
    is_paving,
    k_submasks,
    restriction,
    truncate,
)
from brsc.catalog import named
from brsc.iso import all_complexes
from brsc.lattice import MooreFamily, flats, j_complex
from brsc.operators import (
    b_d,
    boxplus_point,
    family_boxplus,
    graph_complex,
    is_graphic_boolean,
    oplus_point,
    plus_point,
    up,
    up_iter,
    up_iter_paving,
)
from brsc.reproduce import random_paving, tri
from complex_helpers import complexes


def up_scan(C):
    """Second route to the up operator: complement characterization.

    A nonempty X is missing from H-up exactly when every X minus a point
    is missing from H. Scans all subsets, so small n only.
    """
    faces = C.faces
    out = [0]
    for X in range(1, 1 << C.n):
        if any((X ^ (1 << x)) in faces for x in bits(X)):
            out.append(X)
    return Complex(C.n, out, C.labels)


def boxplus_direct(C):
    """Faces of boxplus_point(C) read off C: the old faces, the new point
    alone or with one old vertex, and I plus the new point whenever the
    closure of I is proper."""
    fl = flats(C)
    p = 1 << C.n
    faces = set(C.faces) | {p} | {(1 << v) | p for v in range(C.n)}
    faces |= {I | p for I in C.faces if fl.closure(I) != C.full_mask}
    return frozenset(faces)


def test_up_two_edges():
    # two disjoint edges on four points: up gives all of P_{<=3}
    C = Complex(4, [tri(1, 2), tri(3, 4)])
    U = up(C)
    assert U.faces == frozenset(X for X in range(16) if X.bit_count() <= 3)
    assert set(flats(U).members) == {X for X in range(16) if X.bit_count() <= 2} | {0b1111}


def test_up_counts_its_generators_before_listing(monkeypatch):
    # two triangles on 5 points: each facet and its sets f + p for the two
    # points outside it, 6 generating sets, counted before any is listed
    C = Complex(5, [tri(1, 2, 3), tri(3, 4, 5)])
    want = up(C)
    built = []
    monkeypatch.setattr(operators, "Complex", lambda *args: built.append(args))
    monkeypatch.setattr(core, "SET_LIMIT", 5)
    with pytest.raises(CapacityError, match="up with more than 5 generating sets"):
        up(C)
    assert built == []
    monkeypatch.undo()
    monkeypatch.setattr(core, "SET_LIMIT", 6)
    assert up(C) == want


@given(complexes(6))
@settings(max_examples=150, deadline=None)
def test_up_matches_scan(C):
    assert up(C) == up_scan(C)


@given(complexes(6))
@settings(max_examples=100, deadline=None)
def test_up_matches_matrix_route(C):
    # rows = all faces plus V represent the up complex
    fam = SetFamily(C.n, set(C.faces) | {C.full_mask})
    assert up(C) == j_complex(fam)


@given(complexes(6))
@settings(max_examples=100, deadline=None)
def test_up_dimension_growth(C):
    U = up(C)
    if C.full_mask in C.faces:
        assert U == C
    else:
        assert U.dim == C.dim + 1


@given(complexes(6), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_up_commutes_with_truncation(C, k):
    # (H-up)_k = (H_{k-1})-up, for k >= 2
    k = max(2, min(k, C.n))
    assert truncate(up(C), k) == up(truncate(C, k - 1))


def test_up_iter_paving_formula():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(3, 7)
        d = rng.choice([1, 2])
        C = random_paving(rng, n, d, 0.6)
        if is_paving(C) != d:
            continue
        for m in range(0, 3):
            assert up_iter(C, m) == up_iter_paving(C, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(2, 8), st.integers(0, 3), st.floats(0.0, 1.0), st.integers(0, 3))
def test_up_iter_paving_matches_up_iter(seed, n, d, density, m):
    C = random_paving(random.Random(seed), n, min(d, n - 1), density)
    if is_paving(C) is None:
        return
    assert up_iter_paving(C, m) == up_iter(C, m)


def test_up_iter_paving_counts_its_generators_before_listing(monkeypatch):
    # uniform:k=3,n=26 with m = 10 would list the C(26, 12) = 9.66M sets of
    # 12 points, and uniform:k=3,n=32 with m = 3 the C(32, 6) = 906,192
    # candidates of 6 points besides the C(32, 5) = 201,376 sets of 5 points
    # (40.7 s and 181 MB when only the sets of 5 points were counted):
    # refused on the count, at once
    for n, m in ((26, 10), (32, 3)):
        t0 = time.perf_counter()
        with pytest.raises(CapacityError, match="iterated up with more than"):
            up_iter_paving(named("uniform", k=3, n=n), m)
        assert time.perf_counter() - t0 < 1
    # the 3-sets of 6 points, m = 1: the C(6, 3) = 20 sets of 3 points and
    # the C(6, 4) = 15 candidates of 4 points; the faces are listed before
    # the limit is patched
    C = Complex(6, k_submasks(0b111111, 3))
    want = up_iter_paving(C, 1)
    monkeypatch.setattr(core, "SET_LIMIT", 35)
    assert up_iter_paving(C, 1) == want
    monkeypatch.setattr(core, "SET_LIMIT", 34)
    with pytest.raises(CapacityError, match="iterated up with more than 34 generating sets"):
        up_iter_paving(C, 1)


def test_up_iter_refuses_negative_m():
    C = Complex(3, [0b011])
    assert up_iter(C, 0) == C
    for it in (up_iter, up_iter_paving):
        with pytest.raises(DomainError):
            it(C, -1)


def test_up_of_two_tetrahedra_facets():
    # facets 123 and 345 as solid simplices; up has four known facets
    C = Complex(5, [tri(1, 2, 3), tri(3, 4, 5)])
    U = up(C)
    assert U.facets == frozenset(
        {tri(1, 2, 3, 4), tri(1, 2, 3, 5), tri(1, 3, 4, 5), tri(2, 3, 4, 5)}
    )


def test_plus_point_and_oplus_point():
    C = Complex(4, [tri(1, 2, 3)])
    P = plus_point(C)
    assert P.n == 5 and P.labels[-1] == 5
    # a new point's label is never one the complex already uses
    assert plus_point(Complex(2, labels=("a", "p2"))).labels == ("a", "p2", "p3")
    assert oplus_point(Complex(3, labels=("p3", 1, "p4"))).labels[-1] == "p5"
    assert P.dim == C.dim
    K = oplus_point(C)
    assert K.dim == C.dim + 1
    # cone flats are old flats with and without the new point
    old = set(flats(C).members)
    new = set(flats(K).members)
    p = 1 << 4
    assert new == old | {F | p for F in old}


@given(complexes(5))
@settings(max_examples=80, deadline=None)
def test_cone_flats(C):
    K = oplus_point(C)
    old = set(flats(C).members)
    p = 1 << C.n
    assert set(flats(K).members) == old | {F | p for F in old}


@given(complexes(5))
@settings(max_examples=80, deadline=None)
def test_plus_point_up_contract_recovers(C):
    P = plus_point(C)
    U = up(P)
    back = contraction(U, 1 << C.n)
    assert back == C


@given(complexes(5), st.integers(0, 30))
@settings(max_examples=80, deadline=None)
def test_up_contract_below_restrict_up(C, seed):
    W = seed & C.full_mask
    if W == 0 or W == C.full_mask or not up(C).has(W):
        return
    rest = C.full_mask & ~W
    A = contraction(up(C), W)
    B = up(restriction(C, rest))
    assert all(B.has(f) for f in A.faces)


def test_two_families_same_transversals_diverge_after_boxplus():
    R1 = MooreFamily(4, [0, 0b0001, 0b0010, 0b0111, 0b1111], validate=False)
    R2 = MooreFamily(4, [0, 0b1000, 0b1001, 0b1010, 0b1111], validate=False)
    J1 = j_complex(R1)
    J2 = j_complex(R2)
    expect = frozenset(X for X in range(16) if X.bit_count() <= 3 and X != 0b0111)
    assert J1.faces == expect
    assert J1 == J2
    B1 = j_complex(family_boxplus(R1))
    B2 = j_complex(family_boxplus(R2))
    probe = 0b10011  # 1, 2, and the new point
    assert B1.has(probe)
    assert not B2.has(probe)


def test_boxplus_point_dimension():
    C = Complex(4, set(k_submasks(0b1111, 2)))
    B = boxplus_point(C)
    assert B.n == 5
    assert B.dim == C.dim
    # dimension does grow from dimension zero
    Z = Complex(3)
    assert boxplus_point(Z).dim == 1
    # and non-representable input is rejected
    bad = Complex(4, set(k_submasks(0b1111, 2)) | {tri(1, 2, 3)})
    with pytest.raises(DomainError):
        boxplus_point(bad)


@given(complexes(5))
@settings(max_examples=60, deadline=None)
def test_boxplus_dual_route_consistency(C):
    from brsc.lattice import is_boolean_representable

    if not is_boolean_representable(C)[0]:
        return
    B = boxplus_point(C)
    assert B.faces == boxplus_direct(C)
    assert B.n == C.n + 1
    assert all(B.has(f) for f in C.facets)


def scan_b_d(n, L, d):
    """b_d by a scan of every (d+1)-set for the ones meeting L in d points."""
    full = (1 << n) - 1
    gens = set(k_submasks(full, d)) | {X for X in k_submasks(full, d + 1) if (X & L).bit_count() == d}
    return Complex(n, gens)


def test_b_d_faces_and_flats():
    n, d = 6, 2
    L = tri(1, 2, 3, 4)
    C = b_d(n, L, d)
    for X in k_submasks((1 << n) - 1, 3):
        assert C.has(X) == ((X & L).bit_count() == 2)
    for shape in [
        (6, tri(1, 2, 3, 4), 2),
        (5, tri(2, 4), 2),
        (7, tri(1, 3, 5), 3),
        (8, tri(1, 2, 3, 4, 5, 6), 3),
        (9, tri(2, 3, 5, 7, 8), 4),
        (10, tri(1, 10), 2),
    ]:
        assert b_d(*shape) == scan_b_d(*shape)
    # C(6, 2) + C(4, 2) * 2 = 27 generating sets, counted before any is listed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "SET_LIMIT", 26)
        with pytest.raises(CapacityError):
            b_d(6, tri(1, 2, 3, 4), 2)
        mp.setattr(core, "SET_LIMIT", 27)
        assert b_d(6, tri(1, 2, 3, 4), 2) == C
    fl = set(flats(C).members)
    expect = {X for X in range(1 << n) if X.bit_count() <= 1} | {L, (1 << n) - 1}
    assert fl == expect

    # when L misses one point only, the d-sets not inside L are also flats
    L2 = tri(1, 2, 3, 4, 5)
    C2 = b_d(6, L2, 2)
    fl2 = set(flats(C2).members)
    expect2 = {X for X in range(1 << 6) if X.bit_count() <= 1} | {L2, (1 << 6) - 1}
    expect2 |= {X for X in k_submasks((1 << 6) - 1, 2) if X & ~L2}
    assert fl2 == expect2

    with pytest.raises(DomainError):
        b_d(4, tri(1, 2, 3, 4), 2)
    with pytest.raises(DomainError):
        b_d(4, tri(1), 2)


def test_graphic_boolean_recognition():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 6)
        full = (1 << n) - 1
        edges = {e for e in k_submasks(full, 2) if rng.random() < 0.5}
        G = graph_complex(n, edges)
        U = up(G)
        ok, rec = is_graphic_boolean(U)
        assert ok
        assert up(graph_complex(n, rec.members)) == U


def test_graphic_boolean_negative():
    C = Complex(4, set(k_submasks(0b1111, 2)) | {tri(1, 2, 3)})
    ok, rec = is_graphic_boolean(C)
    assert not ok and rec is None


def probe_graphic_boolean(C):
    """(ok, edge family) with the candidate edges found by probing e + p
    against the faces for every pair e and every point p outside it."""
    full = C.full_mask
    edges = {e for e in k_submasks(full, 2) if all(C.has(e | (1 << p)) for p in bits(full & ~e))}
    ok = up(graph_complex(C.n, edges, C.labels)) == C
    return ok, (SetFamily(C.n, edges) if ok else None)


def test_graphic_boolean_matches_probe_loop_on_every_small_complex():
    seen = 0
    for n in range(1, 6):
        for C in all_complexes(n):
            assert is_graphic_boolean(C) == probe_graphic_boolean(C)
            seen += 1
    assert seen == 7020


@given(complexes(max_n=8))
@settings(max_examples=150, deadline=None)
def test_graphic_boolean_matches_probe_loop(C):
    assert is_graphic_boolean(C) == probe_graphic_boolean(C)
    assert is_graphic_boolean(up(C)) == probe_graphic_boolean(up(C))


def anticliques_of_size(n, edges, k):
    """All k-subsets inducing no edge."""
    adj = adjacency(n, edges)
    return [X for X in k_submasks((1 << n) - 1, k) if all(adj[v] & X == 0 for v in bits(X))]


@pytest.mark.parametrize("edge", [0b111, 0b1, 0, 0b100001, -3], ids=["three-points", "one-point", "empty", "outside", "negative"])
def test_graph_edges_are_validated(edge):
    with pytest.raises(DomainError):
        anticliques_of_size(4, [0b11, edge], 2)


def test_iterated_up_of_graph_counts_anticliques():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        full = (1 << n) - 1
        edges = {e for e in k_submasks(full, 2) if rng.random() < 0.4}
        G = graph_complex(n, edges)
        for m in range(0, 3):
            U = up_iter(G, m)
            k = m + 2
            expect = set(k_submasks(full, min(k - 1, n)))
            if k <= n:
                anti = set(anticliques_of_size(n, edges, k))
                expect |= set(k_submasks(full, k)) - anti
            assert U == Complex(n, expect)
