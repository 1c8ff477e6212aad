"""Canonical form, isomorphism, embedding, and orbit enumeration tests."""

import gc
import random
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsc.cli import load_complex
from brsc.core import SET_LIMIT, Complex, DomainError, bits, k_submasks, mask_of
from brsc.iso import (
    TABLE_MAX_N,
    _perm_weights,
    _search_key,
    all_complexes,
    are_isomorphic,
    canonical_complex,
    canonical_key,
    embeds,
    orbit_min_table,
    orbit_reps,
    paving_complexes,
)
from brsc.t_operator import paving2_reps
from complex_helpers import complexes, relabeled


@given(complexes(6), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_canonical_key_is_orbit_invariant(C, rng):
    perm = list(range(C.n))
    rng.shuffle(perm)
    D = relabeled(C, perm)
    # the search on its own: at n <= TABLE_MAX_N canonical_key does not reach it
    assert _search_key(C) == _search_key(D) == canonical_key(D)


def brute_canonical_key(C):
    """The prefix-rebuilding backtrack: each node relabels every facet inside
    the assigned vertices and prunes only against the best finished key."""
    n = C.n
    facets = sorted(C.facets)
    best = [tuple(facets)]

    def prefix_of(assignment):
        # assignment[i] = old vertex given new label i
        pos = {old: i for i, old in enumerate(assignment)}
        placed = mask_of(assignment)
        out = []
        for f in facets:
            if f & ~placed == 0:
                out.append(mask_of(pos[v] for v in bits(f)))
        out.sort()
        return tuple(out)

    def rec(assignment, placed):
        pref = prefix_of(assignment)
        if pref > best[0][: len(pref)]:
            return
        if len(assignment) == n:
            if pref < best[0]:
                best[0] = pref
            return
        for old in range(n):
            if not placed >> old & 1:
                rec(assignment + [old], placed | (1 << old))

    rec([], 0)
    return best[0]


def twin_rich_complexes(max_n=8):
    """Random small complexes grown by cones, disjoint copies, isolated
    vertices and complete skeleta, then relabeled: many vertex pairs whose
    swap is an automorphism, in no particular position."""

    @st.composite
    def strat(draw):
        n = draw(st.integers(1, 4))
        facets = Complex(n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=5))).facets
        for op in draw(st.lists(st.sampled_from(("cone", "copies", "isolated", "skeleton")), max_size=3)):
            if op == "cone" and n < max_n:
                facets = {f | 1 << n for f in facets}
                n += 1
            elif op == "copies" and 2 * n <= max_n:
                facets = facets | {f << n for f in facets}
                n *= 2
            elif op == "isolated" and n < max_n:
                n = draw(st.integers(n + 1, max_n))
            elif op == "skeleton":
                facets |= set(k_submasks((1 << n) - 1, draw(st.integers(1, min(n, 3)))))
            facets = Complex(n, facets).facets
        perm = draw(st.permutations(range(n)))
        return Complex(n, [mask_of(perm[v] for v in bits(f)) for f in facets])

    return strat()


@given(twin_rich_complexes())
@settings(max_examples=100, deadline=None)
def test_canonical_key_matches_brute_search(C):
    # the search's twin rule and tie cuts, also on the inputs that
    # canonical_key hands to the table
    assert _search_key(C) == canonical_key(C) == brute_canonical_key(C)


@lru_cache(maxsize=None)
def perm_images(n):
    """img[p, m] = the image of mask m under the p-th permutation of 0..n-1,
    as a uint8 array of shape (n!, 2^n)."""
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    bit = masks[:, None] >> np.arange(n) & 1
    return (bit @ (1 << perms).T).T.astype(np.uint8)


def sort_table_key(C):
    """The table key by sorting: sort each relabeling's facet images and take
    the lex-min row, packed big-endian into one int64 when it fits, else
    found by lexsort."""
    n = C.n
    rows = np.sort(perm_images(n)[:, list(C.facets)], axis=1)
    k = rows.shape[1]
    if n * k <= 63:
        # big-endian, n bits an entry: integer order is the rows' lex order
        shifts = np.arange(n * (k - 1), -1, -n, dtype=np.int64)
        best = int(np.argmin((rows.astype(np.int64) << shifts).sum(axis=1)))
    else:
        best = int(np.lexsort(rows.T[::-1])[0])
    return tuple(rows[best].tolist())


def test_table_key_matches_search_on_small_complexes():
    # every complex on at most 5 vertices and the 2135 paving classes on 6,
    # up to 20 facets, so the sort's lexsort branch is reached too
    small = [C for n in range(1, 6) for C in all_complexes(n)]
    paving = list(paving2_reps(6))
    assert (len(small), len(paving)) == (7020, 2135)
    assert max(len(C.facets) * C.n for C in paving) > 63
    for C in small + paving:
        assert canonical_key(C) == _search_key(C) == sort_table_key(C), C


def test_table_weights_fill_one_uint64():
    # each row weighs the 2^n masks with distinct powers of two, so a row's
    # full sum sets every bit below 2^(2^n) and no sum of facets carries
    for n in range(1, TABLE_MAX_N + 1):
        w = _perm_weights(n)
        assert w.dtype == np.uint64 and w.shape == (len(perm_images(n)), 1 << n)
        assert set(w.sum(axis=1).tolist()) == {(1 << (1 << n)) - 1}
        with pytest.raises(ValueError):
            w[0, 0] = 1


def test_canonical_key_at_the_cut_over():
    # twin-rich inputs on each side of TABLE_MAX_N: two disjoint paths
    # 0-1-2, relabeled, then a cone over them
    path2 = {0b011, 0b110, 0b011 << 3, 0b110 << 3}
    perm = (4, 0, 5, 2, 1, 3)
    six = Complex(6, [mask_of(perm[v] for v in bits(f)) for f in path2])
    seven = Complex(7, [f | 1 << 7 - 1 for f in six.facets])
    assert six.n == TABLE_MAX_N < seven.n
    for C in (six, seven):
        assert canonical_key(C) == brute_canonical_key(C)


# catalog names, and whether the brute search runs on them in a few seconds;
# every one is also checked against a seeded relabeling
NAMED_CANON = [
    ("sme", True),
    ("tracks", True),
    ("cepc", True),
    ("lhne", False),
    ("dowling:m=2,n=3", True),
    ("jijn:i=2,j=4,n=9", True),
    ("uniform:k=3,n=9", False),
]


@pytest.mark.parametrize("spec,brute", NAMED_CANON, ids=[spec for spec, _ in NAMED_CANON])
def test_named_canonical_keys(spec, brute):
    C = load_complex(spec)
    key = canonical_key(C)
    perm = list(range(C.n))
    random.Random(C.n * 1000 + len(C.facets)).shuffle(perm)
    assert canonical_key(relabeled(C, perm)) == key
    # the key, read as a complex, has C's facet sizes and is its own key
    K = Complex(C.n, key)
    assert sorted(f.bit_count() for f in K.facets) == sorted(f.bit_count() for f in C.facets)
    assert canonical_key(K) == key
    if brute:
        assert key == brute_canonical_key(C)


@given(complexes(6))
@settings(max_examples=60, deadline=None)
def test_canonical_key_is_orbit_minimum(C):
    keys = []
    for perm in permutations(range(C.n)):
        keys.append(tuple(sorted(
            mask_of(perm[v] for v in bits(f)) for f in C.facets
        )))
    assert _search_key(C) == canonical_key(C) == sort_table_key(C) == min(keys)


def test_canonical_key_leaves_no_reference_cycle():
    # a self-referencing nested search would leave a cycle on every call;
    # tracks takes the search, sme (5 vertices) the table
    for spec in ("tracks", "sme"):
        C = load_complex(spec)
        assert (C.n > TABLE_MAX_N) == (spec == "tracks")
        want = brute_canonical_key(C)
        gc.collect()
        gc.disable()
        try:
            assert canonical_key(C) == want
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_canonical_idempotent():
    C = Complex(5, [0b10110, 0b01101])
    K = canonical_complex(C)
    assert canonical_complex(K) == K
    assert are_isomorphic(C, K)


def test_isomorphism_basic():
    A = Complex(4, [0b0111])
    B = Complex(4, [0b1110])
    assert are_isomorphic(A, B)
    D = Complex(4, [0b0111, 0b1100])
    assert not are_isomorphic(A, D)
    assert not are_isomorphic(A, Complex(5, [0b00111]))


def test_embeds():
    # pad the triangle with an isolated vertex to compare on 4 vertices
    tri_in_k4 = embeds(Complex(4, [0b111]), Complex(4, [0b1111]))
    assert tri_in_k4 is not None
    # a triangle does not embed into a complex with no 3-face
    assert embeds(Complex(4, [0b111]), Complex(4, set(k_submasks(0b1111, 2)))) is None
    # but an edge path does
    assert embeds(Complex(4, [0b011, 0b110]), Complex(4, set(k_submasks(0b1111, 2)))) is not None
    with pytest.raises(DomainError):
        embeds(Complex(3, [0b111]), Complex(4, [0b1111]))


def unfiltered_embeds(C, D):
    """The embedding search with no candidate filter: images in index order,
    each node testing the facets whose highest vertex it places."""
    top = [[] for _ in range(C.n)]
    for f in sorted(C.facets, key=lambda f: -f.bit_count()):
        top[f.bit_length() - 1].append(f)

    def rec(partial, used):
        v = len(partial)
        if v == C.n:
            return tuple(partial)
        for w in range(D.n):
            if used >> w & 1:
                continue
            partial.append(w)
            if all(D.has(mask_of(partial[u] for u in bits(f))) for f in top[v]):
                got = rec(partial, used | (1 << w))
                if got is not None:
                    return got
            partial.pop()
        return None

    return rec([], 0)


@given(complexes(7), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_embeds_into_a_relabeling(C, rng):
    perm = list(range(C.n))
    rng.shuffle(perm)
    D = relabeled(C, perm)
    m = embeds(C, D)
    assert m is not None and sorted(m) == list(range(C.n))
    assert all(D.has(mask_of(m[v] for v in bits(f))) for f in C.facets)
    # the face-profile filter drops only images that lie in no embedding
    assert m == unfiltered_embeds(C, relabeled(C, perm))


@st.composite
def complex_pairs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    full = (1 << n) - 1
    return tuple(Complex(n, draw(st.lists(st.integers(0, full), max_size=8))) for _ in range(2))


@given(complex_pairs())
@settings(max_examples=150, deadline=None)
def test_embeds_matches_unfiltered_search(pair):
    C, D = pair
    assert embeds(C, D) == unfiltered_embeds(C, D)


def test_embeds_past_the_face_limit():
    # a simplex with more than SET_LIMIT faces lists no profile, and every
    # image stays allowed
    n = SET_LIMIT.bit_length()
    S = Complex(n, [(1 << n) - 1])
    assert embeds(S, S) == tuple(range(n))


def brute_orbit_min(n, k):
    """The n!-permutation scan: canon[m] = min of m's image under every relabeling."""
    combs = list(combinations(range(n), k))
    idx = {c: t for t, c in enumerate(combs)}
    masks = np.arange(1 << len(combs), dtype=np.int64)
    planes = [(masks >> t) & 1 for t in range(len(combs))]
    canon = masks.copy()
    for perm in permutations(range(n)):
        img = np.zeros_like(masks)
        for t, c in enumerate(combs):
            img |= planes[t] << idx[tuple(sorted(perm[v] for v in c))]
        np.minimum(canon, img, out=canon)
    return combs, canon


def test_orbit_table_matches_brute():
    for n, k in ((4, 2), (5, 2), (5, 3), (6, 2)):
        combs, canon = orbit_min_table(n, k)
        want_combs, want = brute_orbit_min(n, k)
        assert combs == want_combs
        assert canon.dtype == np.uint32
        assert np.array_equal(canon.astype(np.int64), want), (n, k)


def test_orbit_table_is_read_only():
    _, canon = orbit_min_table(4, 2)
    with pytest.raises(ValueError):
        canon[0] = 1
    # the cached table handed to the next caller is untouched
    assert orbit_min_table(4, 2)[1] is canon and int(canon[0]) == 0


@given(st.integers(0, (1 << 20) - 1), st.permutations(range(6)))
@settings(max_examples=200, deadline=None)
def test_orbit_table_is_relabeling_invariant(m, perm):
    combs, canon = orbit_min_table(6, 3)
    idx = {c: t for t, c in enumerate(combs)}
    img = 0
    for t, c in enumerate(combs):
        if m >> t & 1:
            img |= 1 << idx[tuple(sorted(perm[v] for v in c))]
    assert canon[m] == canon[img] <= m


def test_graph_counts_up_to_iso():
    # numbers of graphs on n unlabeled vertices (OEIS A000088)
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    for n, count in expected.items():
        _, reps = orbit_reps(n, 2)
        assert len(reps) == count, (n, len(reps))


def test_three_uniform_hypergraph_count():
    # 3-uniform hypergraphs on 6 unlabeled vertices, the empty one included
    # (OEIS A000665)
    _, reps = orbit_reps(6, 3)
    assert len(reps) == 2136


def test_all_complexes_against_downset_scan():
    # independent count: downward closed subsets of the size >= 2 masks
    for n in (2, 3, 4):
        masks = [m for m in range(1 << n) if m.bit_count() >= 2]
        pos = {m: i for i, m in enumerate(masks)}
        count = 0
        for pick in range(1 << len(masks)):
            chosen = {masks[i] for i in range(len(masks)) if pick >> i & 1}
            ok = True
            for m in chosen:
                for v in bits(m):
                    sub = m ^ (1 << v)
                    if sub.bit_count() >= 2 and sub not in chosen:
                        ok = False
                        break
                if not ok:
                    break
            count += ok
        got = list(all_complexes(n))
        assert len(got) == count
        assert len({c.facets for c in got}) == len(got)


def rescan_complexes(n, k, chosen_prev, below):
    """The recursion all_complexes ran before it grew the eligible k-sets
    from the chosen (k-1)-sets: every k-set is rescanned at every node.
    Yields facet sets in the same order."""
    if k > n:
        yield below | chosen_prev
        return
    elig = [
        m
        for m in map(mask_of, combinations(range(n), k))
        if all((m ^ (1 << v)) in chosen_prev for v in bits(m))
    ]
    under = [{m ^ (1 << v) for v in bits(m)} for m in elig]
    for pick in range(1 << len(elig)):
        sel = set()
        covered = set()
        for t in bits(pick):
            sel.add(elig[t])
            covered |= under[t]
        yield from rescan_complexes(n, k + 1, sel, below | (chosen_prev - covered))


def test_all_complexes_match_the_rescan_in_order():
    # the list order keys the classify jobs and their verdict digest
    for n in range(1, 6):
        want = list(rescan_complexes(n, 2, {1 << v for v in range(n)}, frozenset()))
        assert [C.facets for C in all_complexes(n)] == want


def test_all_complexes_small_content():
    got = {frozenset(c.facets) for c in all_complexes(2)}
    assert got == {
        frozenset({0b01, 0b10}),
        frozenset({0b11}),
    }


def assert_reduced(C):
    """C is the complex the constructor builds from its own facets and labels:
    its facets form an antichain that covers every vertex."""
    D = Complex(C.n, C.facets, C.labels)
    assert (C.n, C.facets, C.labels) == (D.n, D.facets, D.labels)


def test_enumerated_complexes_hold_reduced_facets():
    # every complex on at most 5 vertices, each built from facets carried
    # down the walk, against the constructor's reduction
    for n in range(1, 6):
        for C in all_complexes(n):
            assert_reduced(C)
    with pytest.raises(DomainError):
        next(all_complexes(0))


def test_canonical_complex_holds_reduced_facets():
    for C in all_complexes(4):
        K = canonical_complex(C)
        assert_reduced(K)
        assert K.labels == (1, 2, 3, 4) and are_isomorphic(K, C)


@pytest.mark.parametrize("n, d", [(5, 2), (6, 2), (4, 1), (3, 3)])
def test_paving_complexes_hold_reduced_facets(n, d):
    # the facets against the constructor's reduction of P_{<=d} plus the
    # pattern's (d+1)-sets
    full = (1 << n) - 1
    base = {X for k in range(2, d + 1) for X in k_submasks(full, k)}
    for C in paving_complexes(n, d):
        assert_reduced(C)
        top = {f for f in C.facets if f.bit_count() == d + 1}
        assert C == Complex(n, base | top)
    with pytest.raises(DomainError):
        next(paving_complexes(4, 0))
