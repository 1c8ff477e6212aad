"""Flats, closures, matrices, transversal complexes: oracle comparisons."""

import random
import time
from functools import partial
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsc.catalog import named
from brsc import core, lattice, reproduce
from brsc.core import (
    SET_LIMIT,
    CapacityError,
    Complex,
    DomainError,
    SetFamily,
    _antichain,
    bits,
    is_paving,
    k_submasks,
    mask_of,
    submasks,
)
from brsc.lattice import (
    MooreFamily,
    closure,
    _extension_constraints,
    flats,
    flats_paving,
    _closed_sets,
    _horn_closure,
    _independent_complex,
    _level_closure,
    _level_walk,
    _long_hyperplanes,
    _meet_closure,
    is_boolean_representable,
    j_complex,
    long_hyperplane_partition,
    moore_close,
    transversal_complex,
)
from brsc.iso import all_complexes
from brsc.operators import b_d
from brsc.reproduce import tri
from brsc.t_operator import cl_T, is_tbrsc, jt_complex, t_family, truncation_t_family
from complex_helpers import assert_routes_agree, complexes
from independence_oracle import independent_order


def every_face_closure(C):
    """The flat closure by the route without the jump: the Horn closure over
    the constraints of every face, the (dim+1)-faces' pairs (X, V - X)
    included."""
    return partial(_horn_closure, _extension_constraints(C, C.dim + 2), C.full_mask, None, 0)


def scan_closed_sets(n, cons):
    """Every subset of 0..n-1 closed under the constraints, by a 2^n scan."""
    out = set()
    for S in range(1 << n):
        if all(X & ~S or not bad & ~S for X, bad in cons):
            out.add(S)
    return out


def frontier_moore_close(n, sets):
    """Smallest Moore family containing the sets, by closing a frontier of
    new members under intersection with every member so far."""
    full = (1 << n) - 1
    members = {full}
    frontier = set(sets)
    while frontier:
        new = set()
        for a in frontier:
            if a in members:
                continue
            members.add(a)
            for b in list(members):
                c = a & b
                if c not in members:
                    new.add(c)
        frontier = new
    return frozenset(members)


def matrix_rows(fam):
    """The boolean matrix of a set family, one row per member (sorted), each
    row the mask of its 1-entries: zero exactly on the member's points."""
    full = (1 << fam.n) - 1
    return [full & ~m for m in sorted(fam.members)]


def column_closure(fam):
    """Closure of a column set X of the matrix of fam: the columns zero on
    every row that is zero on X."""
    full = (1 << fam.n) - 1
    rows = matrix_rows(fam)

    def cl(X):
        out = full
        for r in rows:
            if r & X == 0:
                out &= ~r
        return out

    return cl


def all_faces_complex(cl, n):
    """Complex of the sets independent for cl, every face handed to Complex."""
    full = (1 << n) - 1
    faces = {0}
    level = [0]
    while level:
        nxt = set()
        for Y in level:
            for x in bits(full & ~cl(Y)):
                nxt.add(Y | (1 << x))
        nxt -= faces
        faces |= nxt
        level = list(nxt)
    return Complex(n, faces)


def level_walk_complex(cl, n, labels=None):
    """Complex of the sets independent for cl, by a level walk over all of
    0..n-1 with no coloop split: one closure per independent set, facets only,
    refusing once the walk passes core.SET_LIMIT faces."""
    full = (1 << n) - 1
    facets = []
    level = [0]
    room = core.SET_LIMIT - 1
    while level:
        nxt = set()
        spanning = []
        for Y in level:
            m = full & ~cl(Y)
            if not m:
                spanning.append(Y)
            while m:
                b = m & -m
                nxt.add(Y | b)
                m ^= b
            if len(nxt) > room:
                raise CapacityError(f"J-complex with more than {core.SET_LIMIT} faces is out of range")
        facets += [Y for Y in spanning if not any(Y | 1 << x in nxt for x in bits(full & ~Y))]
        room -= len(nxt)
        level = nxt
    return Complex(n, facets, labels)


def assert_same_complex(A, B):
    assert (A.n, A.facets, A.labels) == (B.n, B.facets, B.labels)


@pytest.mark.parametrize(
    "name, params",
    [("desargues", {}), ("bfour", {}), ("btbtwo", {}), ("nfb", {"n": 6}), ("rhodes", {"m": 2, "n": 3}), ("sme", {})],
)
def test_j_complexes_hold_reduced_facets(name, params):
    # J is built from the level walk's maximal sets with no reduction: they
    # are the facets the constructor would keep, and the labels are checked
    C = named(name, **params)
    for J in (jt_complex(C), j_complex(flats(C), C.labels)):
        assert_same_complex(J, Complex(J.n, J.facets, J.labels))
    with pytest.raises(DomainError, match="labels"):
        j_complex(flats(C), (1,) * C.n)


def counted(cl):
    """cl and a one-item list counting its calls."""
    calls = [0]

    def wrapped(X):
        calls[0] += 1
        return cl(X)

    return wrapped, calls


def uniform_closure(m, r, n):
    """Closure on 0..n-1 that is U(r, m) on the points 0..m-1 and the identity
    on the others: a set of r or more low points closes to all of them."""
    low = (1 << m) - 1

    def cl(Y):
        return (low if (Y & low).bit_count() >= r else Y & low) | Y & ~low

    return cl


def cone(C, extra):
    """C joined with a simplex on `extra` new points n..n+extra-1."""
    apex = ((1 << extra) - 1) << C.n
    return Complex(C.n + extra, [f | apex for f in C.facets])


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


def per_point_extension_constraints(C, k):
    """Pairs (X, bad) over the faces X with |X| < k, probing X + p for every
    point p outside X."""
    faces = C.faces
    out = set()
    for X in faces:
        if X.bit_count() >= k:
            continue
        bad = 0
        for p in bits(C.full_mask & ~X):
            if X | (1 << p) not in faces:
                bad |= 1 << p
        if bad:
            out.add((X, bad))
    return out


def per_face_boolean_representable(C):
    """(ok, witness) by a memoised independence search over the flat closure,
    first on every facet, then on each face by size and mask until one fails."""
    cl = flats(C).closure
    if all(independent_order(cl, f) is not None for f in C.facets):
        return True, None
    for k in range(2, C.dim + 2):
        for X in sorted(C.faces_of_size(k)):
            if independent_order(cl, X) is None:
                return False, X
    raise AssertionError("a facet failed but no face did")


def moore_families(max_n=6):
    @st.composite
    def strat(draw):
        n = draw(st.integers(1, max_n))
        full = (1 << n) - 1
        sets = draw(st.lists(st.integers(0, full), max_size=7))
        return moore_close(n, sets + [0])

    return strat()


# the catalog inputs of the check-wide benchmark
CHECK_WIDE_CATALOG = [
    ("nfb", {"n": 9}),
    ("uniform", {"k": 3, "n": 18}),
    ("bfour", {}),
    ("rhodes", {"m": 2, "n": 4}),
    ("dowling", {"m": 3, "n": 3}),
    ("cepc", {}),
    ("lhne", {}),
    ("desargues", {}),
]


def sampled_complexes(rng):
    """Random complexes, pavings, matroids and line unions, 75 of each."""
    samplers = [
        lambda: reproduce.random_complex(rng, 8),
        lambda: reproduce.random_paving(rng, rng.randint(4, 8), 2, rng.uniform(0.2, 0.9)),
        lambda: reproduce.random_matroid(rng),
        lambda: reproduce.random_line_union(rng, rng.randint(8, 11), rng.randint(2, 3)),
    ]
    return [sample() for sample in samplers for _ in range(75)]


@given(complexes(6))
@settings(max_examples=120, deadline=None)
def test_flats_match_definition(C):
    assert set(flats(C).members) == flats_oracle(C)


@given(complexes(6))
@settings(max_examples=80, deadline=None)
def test_flats_form_moore_family(C):
    fl = flats(C)
    assert 0 in fl.members
    assert C.full_mask in fl.members
    ms = sorted(fl.members)
    for a, b in combinations(ms, 2):
        assert a & b in fl.members


@given(complexes(6), st.integers(0, 63), st.integers(0, 63))
@settings(max_examples=120, deadline=None)
def test_closure_axioms(C, x, y):
    X = x & C.full_mask
    Y = y & C.full_mask
    cx = closure(C, X)
    assert cx == every_face_closure(C)(X)
    assert X & ~cx == 0
    assert closure(C, cx) == cx
    if X & ~Y == 0:
        assert cx & ~closure(C, Y) == 0


def test_closure_refuses_sets_outside_the_vertices():
    # exs has 5 vertices: point 5 and a negative set name no set of them
    C = named("exs")
    for X in (1 << 5, 0b100001, -1, -(1 << 3)):
        with pytest.raises(DomainError, match="outside 0..n-1"):
            closure(C, X)
        with pytest.raises(DomainError, match="outside 0..n-1"):
            flats(C).closure(X)
    assert closure(C, C.full_mask) == C.full_mask


def assert_closure_is_the_meet(fam, xs=()):
    """MooreFamily.closure against the intersection of the members holding
    X, at X = 0, X = V, every member and each X of xs."""
    full = (1 << fam.n) - 1
    for X in (0, full, *fam.members, *xs):
        assert fam.closure(X) == _meet_closure(fam.members, full, X)


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, (1 << n) - 1), max_size=9),
            st.lists(st.integers(0, (1 << n) - 1), max_size=20),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_moore_family_closure_is_the_meet(draw):
    n, sets, xs = draw
    assert_closure_is_the_meet(moore_close(n, sets), xs)


def test_flat_closure_is_the_meet_on_the_catalog_and_sampled_complexes():
    rng = random.Random(25)
    wide = [named(name, **params) for name, params in CHECK_WIDE_CATALOG]
    for C in wide + sampled_complexes(rng):
        assert_closure_is_the_meet(flats(C), [rng.getrandbits(C.n) for _ in range(40)])


@given(complexes(max_n=8), st.booleans())
@settings(max_examples=200, deadline=None)
def test_level_walk_grown_by_faces_lists_the_facets(C, upward):
    # grown only above its highest point, a face that grows no further may
    # still lie in a face of the next level, built from another of its subsets
    faces = C.faces

    def grow(Y, level):
        start = Y.bit_length() if upward else 0
        return sum(1 << p for p in range(start, C.n) if not Y >> p & 1 and Y | 1 << p in faces)

    assert sorted(_level_walk([0], grow, "faces")) == sorted(C.facets)


def _closed_families_match_scan(C):
    assert set(flats(C).members) == scan_closed_sets(C.n, _extension_constraints(C, C.dim + 2))
    assert set(t_family(C).members) == scan_closed_sets(C.n, _extension_constraints(C, C.dim + 1))
    for k in range(1, C.dim + 3):
        want = scan_closed_sets(C.n, _extension_constraints(C, k))
        assert set(truncation_t_family(C, k).members) == want


def wide_complexes(max_n=14):
    # few, mostly small generators, so the 2^n oracle scan stays short
    @st.composite
    def strat(draw):
        n = draw(st.integers(1, max_n))
        gens = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=5), max_size=12))
        return Complex(n, [mask_of(g) for g in gens])

    return strat()


@given(wide_complexes())
@settings(max_examples=60, deadline=None)
def test_next_closure_matches_scan(C):
    _closed_families_match_scan(C)


@pytest.mark.parametrize("name, params", [("nfb", {"n": 9}), ("bfour", {})])
def test_named_next_closure_matches_scan(name, params):
    _closed_families_match_scan(named(name, **params))


@given(complexes(max_n=7))
@settings(max_examples=100, deadline=None)
def test_spanning_sets_generate_the_j_complex(C):
    assert jt_complex(C) == all_faces_complex(partial(cl_T, C), C.n)


@given(moore_families(max_n=7))
@settings(max_examples=100, deadline=None)
def test_spanning_sets_generate_the_matrix_complex(fam):
    assert j_complex(fam) == all_faces_complex(column_closure(fam), fam.n)


def test_j_walk_fits_the_full_18_simplex():
    # no closure constraint: J is the full simplex, 2^18 faces, and every
    # point is a coloop, so the build takes 18 coloop tests and cl(0) only
    assert SET_LIMIT > 1 << 18
    cl, calls = counted(lambda Y: Y)
    assert _independent_complex(cl, 18).facets == {(1 << 18) - 1}
    assert calls[0] == 19
    assert jt_complex(named("uniform", k=3, n=18)).dim == 17


def plain_independent_complex(cl, n, labels=None):
    """The J build with no seeds: the same coloop cone and level walk as
    _independent_complex, but one closure cl(Y) of every walked set Y."""
    full = (1 << n) - 1
    K = 0
    for p in range(n):
        if not cl(full ^ 1 << p) >> p & 1:
            K |= 1 << p
    rest = full & ~K
    spanning = lattice._level_walk([0], lambda Y, level: rest & ~cl(Y), "J-complex")
    return Complex(n, [Y | K for Y in spanning], labels)


def assert_j_builds_match_the_plain_walk(C):
    # jt_complex closes through cl_T, j_complex through the flats' members
    assert_same_complex(jt_complex(C), plain_independent_complex(partial(cl_T, C), C.n, C.labels))
    fl = flats(C)
    assert_same_complex(j_complex(fl, C.labels), plain_independent_complex(fl.closure, C.n, C.labels))


@pytest.mark.parametrize("name, params", [*CHECK_WIDE_CATALOG, ("swirl", {"d": 3})])
def test_seeded_j_builds_match_the_plain_walk_on_the_catalog(name, params):
    assert_j_builds_match_the_plain_walk(named(name, **params))


def test_seeded_j_builds_match_the_plain_walk_on_sampled_complexes():
    # and the Moore families of their flats through j_complex
    for C in sampled_complexes(random.Random(24)):
        assert_j_builds_match_the_plain_walk(C)


@pytest.mark.parametrize(
    "name, params, plain, seeded",
    [
        ("nfb", {"n": 9}, 8302, 2490),
        ("desargues", {}, 301, 172),
        ("bfour", {}, 1065, 232),
        ("rhodes", {"m": 2, "n": 4}, 607, 279),
    ],
)
def test_j_build_closes_each_distinct_seed_once(name, params, plain, seeded):
    # the plain walk makes n coloop tests and one closure per walked set; the
    # seeded build makes the same n tests and one closure per distinct seed
    C = named(name, **params)
    cl, calls = counted(partial(cl_T, C))
    want = plain_independent_complex(cl, C.n, C.labels)
    assert calls[0] == plain
    cl, calls = counted(partial(cl_T, C))
    assert_same_complex(_independent_complex(cl, C.n, C.labels), want)
    assert calls[0] == seeded
    # fewer closures, the coloop tests included, than sets walked
    assert seeded < plain - C.n


@given(complexes(max_n=8))
@settings(max_examples=200, deadline=None)
def test_cone_split_matches_level_walk_on_t_closures(C):
    assert_same_complex(jt_complex(C), level_walk_complex(partial(cl_T, C), C.n, C.labels))


@given(moore_families(max_n=8))
@settings(max_examples=150, deadline=None)
def test_cone_split_matches_level_walk_on_matrix_closures(fam):
    labels = tuple(range(10, 10 + fam.n))
    assert_same_complex(j_complex(fam, labels), level_walk_complex(column_closure(fam), fam.n, labels))


@given(complexes(max_n=6), st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_cone_split_matches_level_walk_on_cones(C, extra):
    # no face of size <= dim forbids a new point, so each is a coloop of cl_T
    D = cone(C, extra)
    cl = partial(cl_T, D)
    assert all(not cl(D.full_mask ^ 1 << p) >> p & 1 for p in range(C.n, D.n))
    assert_same_complex(jt_complex(D), level_walk_complex(cl, D.n, D.labels))


@pytest.mark.parametrize("k, n", [(3, 12), (2, 10)])
def test_cone_split_matches_level_walk_on_uniform(k, n):
    C = named("uniform", k=k, n=n)
    assert_same_complex(jt_complex(C), level_walk_complex(partial(cl_T, C), n, C.labels))


@pytest.mark.parametrize(
    "m, r, k",
    [(0, 0, 20), (0, 0, 21), (3, 1, 18), (3, 1, 19), (4, 1, 17), (4, 1, 18), (5, 2, 16), (5, 2, 17), (6, 2, 15), (6, 2, 16)],
)
def test_mixed_closure_refused_exactly_past_the_face_limit(m, r, k):
    # U(r, m) has f = sum of C(m, i), i <= r, independent sets and no coloop
    # (m = 0 leaves the identity closure, f = 1); the k identity points are
    # coloops, so J has f * 2^k faces, past SET_LIMIT at the larger k of each
    # pair, and the build walks only the f sets of J' either way
    cl = uniform_closure(m, r, m + k)
    t0 = time.perf_counter()
    coloops = ((1 << k) - 1) << m
    want = {B | coloops for B in k_submasks((1 << m) - 1, r)}
    assert _independent_complex(cl, m + k).facets == want
    assert time.perf_counter() - t0 < 1


@given(complexes(max_n=6), st.integers(0, 3), st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_cone_split_refuses_where_the_level_walk_does(C, extra, log_limit):
    # a small limit, so that the walk meets it: the J build of D, C joined
    # with `extra` coloops, refuses exactly when J', the independent sets
    # that avoid D's coloops, has more sets than the limit; J and D's faces
    # are read before the limit is set, as Complex.faces obeys it too
    D = cone(C, extra)
    cl = partial(cl_T, D)
    K = sum(1 << p for p in range(D.n) if not cl(D.full_mask ^ 1 << p) >> p & 1)
    J = level_walk_complex(cl, D.n)
    size = sum(1 for X in J.faces if not X & K)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "SET_LIMIT", 1 << log_limit)
        if size > 1 << log_limit:
            with pytest.raises(CapacityError, match="J-complex with more than"):
                _independent_complex(cl, D.n)
        else:
            assert_same_complex(_independent_complex(cl, D.n), J)


@pytest.mark.parametrize(
    "name, params, listed",
    [("desargues", {}, 291), ("nfb", {"n": 9}, 8284), ("bfour", {}, 1050)],
)
def test_j_walk_refuses_exactly_past_the_set_limit(monkeypatch, name, params, listed):
    # none of the three has a coloop, so the walk of J' lists every face of
    # J(T(H)), the empty set included: at exactly that many sets it builds J,
    # one fewer is refused
    C = named(name, **params)
    J = jt_complex(C)
    assert all(cl_T(C, C.full_mask ^ 1 << p) >> p & 1 for p in range(C.n))
    assert len(J.faces) == listed
    monkeypatch.setattr(core, "SET_LIMIT", listed)
    assert_same_complex(jt_complex(C), J)
    monkeypatch.setattr(core, "SET_LIMIT", listed - 1)
    with pytest.raises(CapacityError, match=f"J-complex with more than {listed - 1} sets"):
        jt_complex(C)


@given(
    st.integers(1, 9).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=9))
    )
)
@settings(max_examples=300, deadline=None)
def test_moore_close_matches_frontier_closure(draw):
    n, sets = draw
    assert moore_close(n, sets).members == frontier_moore_close(n, sets)


@given(complexes(6), st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_closed_sets_refuse_exactly_past_the_set_limit(C, log_limit):
    # the flats, T(H) and each T(H_k): NextClosure lists a family whole when
    # it has at most the limit's members, and refuses it otherwise
    limit = 1 << log_limit
    families = [(_level_closure(C, k), scan_closed_sets(C.n, _extension_constraints(C, k))) for k in range(1, C.dim + 3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "SET_LIMIT", limit)
        for cl, want in families:
            if len(want) > limit:
                with pytest.raises(CapacityError, match=f"closed family with more than {limit} sets"):
                    _closed_sets(C.n, cl, "closed family")
            else:
                assert set(_closed_sets(C.n, cl, "closed family").members) == want


@pytest.mark.parametrize("name, params", [("desargues", {}), ("nfb", {"n": 9}), ("bfour", {})])
def test_next_closure_refuses_exactly_past_the_set_limit(monkeypatch, name, params):
    # the flats and T(H), listed whole at exactly their size, refused one below
    C = named(name, **params)
    for k, what in ((C.dim + 2, "flat family"), (C.dim + 1, "T-family")):
        want = _closed_sets(C.n, _level_closure(C, k), what)
        with monkeypatch.context() as mp:
            mp.setattr(core, "SET_LIMIT", len(want))
            assert _closed_sets(C.n, _level_closure(C, k), what) == want
            mp.setattr(core, "SET_LIMIT", len(want) - 1)
            with pytest.raises(CapacityError, match=f"{what} with more than {len(want) - 1} sets"):
                _closed_sets(C.n, _level_closure(C, k), what)


def test_moore_close_and_validation(monkeypatch):
    fam = moore_close(4, [0b0011, 0b0101])
    assert fam.members == frozenset({0b0011, 0b0101, 0b0001, 0b1111})
    assert moore_close(3, []).members == frozenset({0b111})
    with pytest.raises(DomainError):
        moore_close(3, [0b1000])
    with pytest.raises(DomainError):
        MooreFamily(3, [0b011, 0b101])  # missing V and intersection
    MooreFamily(3, [0b011, 0b111])
    with pytest.raises(DomainError):
        MooreFamily(3, [0b011, 0b101, 0b111])  # 0b001 missing
    monkeypatch.setattr(core, "SET_LIMIT", 3)
    with pytest.raises(CapacityError, match="Moore family with more than 3 sets"):
        moore_close(4, [0b0011, 0b0101])


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


def test_flats_paving_matches_brute():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(4, 7)
        d = rng.choice([2, 3])
        if d >= n - 1:
            d = 2
        C = reproduce.random_paving(rng, n, d, 0.7)
        if C.dim != d:
            continue
        assert set(flats_paving(C).members) == set(flats(C).members)


def subset_walk_is_flat(C, F):
    """F is a flat: every face inside F, found by walking the 2^|F| subsets
    of F, extends into H by any outside point."""
    faces = C.faces
    outside = C.full_mask & ~F
    for X in submasks(F):
        if X in faces:
            for p in bits(outside):
                if X | (1 << p) not in faces:
                    return False
    return True


def scan_long_hyperplanes(C):
    """Maximal sets of size > dim containing no facet, by testing all 2^n
    subsets against every facet."""
    d = C.dim
    fct = sorted(C.facets)
    candidates = [
        X for X in range(1 << C.n) if X.bit_count() > d and not any(f & ~X == 0 for f in fct)
    ]
    return sorted(_antichain(candidates))


def test_flat_closure_fixes_exactly_the_flats_on_every_small_complex():
    seen = 0
    for n in range(1, 6):
        for C in all_complexes(n):
            fl = set(flats(C).members)
            cl = _level_closure(C, C.dim + 2)
            for F in range(1 << n):
                assert (cl(F) == F) == subset_walk_is_flat(C, F) == (F in fl)
            seen += 1
    assert seen == 7020


@given(complexes(max_n=8), st.integers(0, 255))
@settings(max_examples=200, deadline=None)
def test_flat_closure_fixes_exactly_the_flats(C, seed):
    cl = _level_closure(C, C.dim + 2)
    for F in (seed & C.full_mask, closure(C, seed & C.full_mask)):
        assert (cl(F) == F) == subset_walk_is_flat(C, F) == (F in flats(C).members)


@given(complexes(6))
@settings(max_examples=150, deadline=None)
def test_jump_closure_is_the_every_face_closure(C):
    # the T(H) constraints plus the jump to V close every set as the
    # constraints of every face do
    cl, want = _level_closure(C, C.dim + 2), every_face_closure(C)
    for X in range(C.full_mask + 1):
        assert cl(X) == want(X)


@given(complexes(6), st.lists(st.integers(0, 63), min_size=1, max_size=8), st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_jump_closure_keeps_the_stop_contract(C, stops, x):
    # a closure with a stop meets it exactly when the exact closure does,
    # and is the exact closure when it does not
    cl, want = _level_closure(C, C.dim + 2), every_face_closure(C)
    for X in (x & C.full_mask, *(s & C.full_mask for s in stops)):
        exact = want(X)
        for stop in stops:
            stop &= C.full_mask & ~X
            got = cl(X, stop)
            assert bool(got & stop) == bool(exact & stop)
            if not exact & stop:
                assert got == exact


def assert_flats_match_the_every_face_listing(C):
    want = _closed_sets(C.n, every_face_closure(C), "flat family")
    assert flats(C).ascending == want.ascending


def test_flats_match_the_every_face_listing_on_every_small_complex():
    seen = 0
    for n in range(1, 6):
        for C in all_complexes(n):
            assert_flats_match_the_every_face_listing(C)
            seen += 1
    assert seen == 7020


def test_flats_match_the_every_face_listing_on_sampled_complexes():
    rng = random.Random(29)
    for _ in range(2):
        for C in sampled_complexes(rng):
            assert_flats_match_the_every_face_listing(C)


def test_long_hyperplanes_match_scan_on_every_small_complex():
    seen = 0
    for n in range(1, 6):
        for C in all_complexes(n):
            d = is_paving(C)
            if d is None or d < 2:
                continue
            assert _long_hyperplanes(C, d) == scan_long_hyperplanes(C)
            assert flats_paving(C) == flats(C)
            seen += 1
    # the paving complexes of dimension >= 2 among the 7020
    assert seen == 1072


@st.composite
def paving_complexes(draw, max_n=9):
    n = draw(st.integers(4, max_n))
    d = draw(st.integers(2, n - 2))
    full = (1 << n) - 1
    tops = list(k_submasks(full, d + 1))
    keep = draw(st.lists(st.sampled_from(tops), min_size=1, max_size=12))
    return Complex(n, set(keep) | set(k_submasks(full, d)))


@given(paving_complexes())
@settings(max_examples=120, deadline=None)
def test_long_hyperplanes_match_scan(C):
    assert _long_hyperplanes(C, C.dim) == scan_long_hyperplanes(C)
    assert flats_paving(C) == flats(C)


@pytest.mark.parametrize(
    "C",
    [named("nfb", n=9), reproduce.random_paving(random.Random(20), 20, 2, 0.7)],
    ids=["nfb:n=9", "paving:n=20"],
)
def test_long_hyperplanes_match_scan_on_wide_complexes(C):
    assert _long_hyperplanes(C, C.dim) == scan_long_hyperplanes(C)
    assert flats_paving(C) == flats(C)


def test_long_hyperplanes_past_twenty_vertices():
    # b_d(24, L, 2) with |L| = 12: the facets are the triples meeting L in
    # two points and the pairs outside L, so a set of three or more points is
    # facet-free exactly when it lies in L
    L = (1 << 12) - 1
    C = b_d(24, L, 2)
    assert _long_hyperplanes(C, 2) == [L]
    assert long_hyperplane_partition(C)[0].members == {L}


def facet_free_count(C):
    """Number of sets of size > dim containing no facet, by a 2^n scan."""
    d = C.dim
    return sum(
        1 for X in range(1 << C.n) if X.bit_count() > d and not any(f & ~X == 0 for f in C.facets)
    )


@given(paving_complexes(max_n=7), st.integers(0, 7))
@settings(max_examples=150, deadline=None)
def test_long_hyperplanes_refuse_exactly_past_the_set_limit(C, log_limit):
    # refused when C(n, d + 1), which bounds the first level, or the
    # facet-free family passes the limit
    limit = 1 << log_limit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "SET_LIMIT", limit)
        if comb(C.n, C.dim + 1) > limit or facet_free_count(C) > limit:
            with pytest.raises(CapacityError):
                _long_hyperplanes(C, C.dim)
        else:
            assert _long_hyperplanes(C, C.dim) == scan_long_hyperplanes(C)


def test_long_hyperplane_walk_refuses_exactly_past_the_set_limit(monkeypatch):
    # b_2 with a line L of 9 of 10 points: the facet-free sets past 2 points
    # are the 466 subsets of L with at least 3 points, more than the
    # C(10, 3) = 120 that bound the first level, so the walk refuses first
    L = (1 << 9) - 1
    C = b_d(10, L, 2)
    assert facet_free_count(C) == 466
    monkeypatch.setattr(core, "SET_LIMIT", 466)
    assert _long_hyperplanes(C, 2) == [L]
    monkeypatch.setattr(core, "SET_LIMIT", 465)
    with pytest.raises(CapacityError, match="facet-free family with more than 465 sets"):
        _long_hyperplanes(C, 2)


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
    assert set(_long_hyperplanes(C, 2)) == set(l1.members) | set(l2.members) | set(l3.members)
    assert set(flats_paving(C).members) == set(flats(C).members)


def has_unitriangular_order(rows, X):
    """Whether the columns of X can be ordered so that each has a row that is
    1 on it and 0 on the columns before it (a lower unitriangular minor)."""
    return any(
        all(any(r >> x & 1 and not r & mask_of(order[:i]) for r in rows) for i, x in enumerate(order))
        for order in permutations(bits(X))
    )


def test_matrix_basics():
    fam = MooreFamily(3, [0b000, 0b011, 0b111])
    assert matrix_rows(fam) == [0b111, 0b100, 0b000]
    # columns 0 and 1 are 1 on the same row only, so no face holds both;
    # column 2 is 1 on the other nonzero row and pairs with either
    assert j_complex(fam).facets == {0b101, 0b110}


@given(moore_families(max_n=5))
@settings(max_examples=100, deadline=None)
def test_j_complex_is_the_unitriangular_column_complex(fam):
    # the families hold the empty set, so every column has a 1 somewhere
    rows = matrix_rows(fam)
    assert j_complex(fam).faces == {X for X in range(1 << fam.n) if has_unitriangular_order(rows, X)}


def test_independence_and_witness():
    # rows 0: zeros {0,1}; row 1: zeros {2}
    fam = moore_close(3, [0b011, 0b100, 0])
    rows = matrix_rows(fam)
    assert j_complex(fam).has(0b101)
    order = independent_order(column_closure(fam), 0b101)
    assert len(order) == 2
    # a lower unitriangular witness: each column of the order has a row
    # that is 1 on it and 0 on the columns before it
    for i, x in enumerate(order):
        assert any(r >> x & 1 and not any(r >> y & 1 for y in order[:i]) for r in rows)
    # a singleton on an all-zero column is dependent, so no complex of the
    # matrix holds every vertex: both rows 0b10 are zero on column 0
    fam2 = SetFamily(2, [0b01])
    assert matrix_rows(fam2) == [0b10]
    assert independent_order(column_closure(fam2), 0b01) is None
    with pytest.raises(DomainError):
        j_complex(fam2)


@given(moore_families())
@settings(max_examples=200, deadline=None)
def test_transversal_equals_matrix_route(fam):
    assert transversal_complex(fam) == j_complex(fam)


@given(moore_families(), st.integers(0, 63))
@settings(max_examples=150, deadline=None)
def test_membership_iff_independent(fam, seed):
    X = seed & ((1 << fam.n) - 1)
    C = j_complex(fam)
    assert (independent_order(column_closure(fam), X) is not None) == C.has(X)


@given(complexes(max_n=8))
@settings(max_examples=150, deadline=None)
def test_extension_constraints_match_per_point_scan(C):
    # k = dim + 2 gives the flats' constraints, k = dim + 1 T(H)'s, and the
    # smaller k those of T(H_k)
    for k in range(1, C.dim + 3):
        assert set(_extension_constraints(C, k)) == per_point_extension_constraints(C, k)


def test_br_walk_matches_per_face_search_on_every_small_complex():
    seen = 0
    for n in range(1, 6):
        for C in all_complexes(n):
            assert is_boolean_representable(C) == per_face_boolean_representable(C)
            seen += 1
    assert seen == 7020


@given(complexes(max_n=7))
@settings(max_examples=200, deadline=None)
def test_br_walk_matches_per_face_search(C):
    assert is_boolean_representable(C) == per_face_boolean_representable(C)


def probing_first_gap(C, cl):
    """The first set where J(cl), walked level by level up to size dim + 1,
    differs from C, probing each independent set against the faces."""
    faces = C.faces
    level = [0]
    for k in range(1, C.dim + 2):
        nxt = set()
        for Y in level:
            for x in bits(C.full_mask & ~cl(Y)):
                if Y | 1 << x not in faces:
                    return Y | 1 << x
                nxt.add(Y | 1 << x)
        missing = [X for X in faces if X.bit_count() == k and X not in nxt]
        if missing:
            return min(missing)
        level = nxt
    return None


@given(complexes(max_n=7))
@settings(max_examples=200, deadline=None)
def test_first_gap_matches_probing_walk(C):
    # the walk counts instead of probing because both closures put every
    # point that leaves a face inside its closure
    for cl in (flats(C).closure, partial(cl_T, C)):
        assert lattice._first_gap(C, cl) == probing_first_gap(C, cl)


def test_subset_tables_match_the_horn_route_on_every_small_complex():
    seen = 0
    for n in range(1, 6):
        for C in all_complexes(n):
            assert_routes_agree(C)
            seen += 1
    assert seen == 7020


@given(complexes(max_n=8))
@settings(max_examples=200, deadline=None)
def test_subset_tables_match_the_horn_route(C):
    assert_routes_agree(C)


def test_subset_tables_match_the_horn_route_on_sampled_wide_complexes():
    rng = random.Random(34)
    for _ in range(16):
        n = rng.randint(9, 12)
        assert_routes_agree(reproduce.random_line_union(rng, n, rng.randint(2, 3)))
        assert_routes_agree(reproduce.random_paving(rng, n, rng.choice((2, 3)), rng.uniform(0.3, 0.9)))


@pytest.mark.parametrize("n, tables", [(12, 1), (13, 0)])
def test_subset_tables_end_at_twelve_vertices(n, tables):
    # flats, BR and TBRSC read the tables on 12 vertices and take the Horn
    # route on 13; both give the other route's answers
    assert lattice.SUBSET_TABLE_MAX_N == 12
    C = reproduce.random_line_union(random.Random(n), n, 3)
    lattice._tables.cache_clear()
    flats.cache_clear()
    flats(C)
    is_boolean_representable(C)
    is_tbrsc(C)
    assert lattice._tables.cache_info().currsize == tables
    assert_routes_agree(C)


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
    # btbtwo: pairs everywhere, triples meeting {5,6} in one point, plus 123
    # and 124
    C = named("btbtwo")
    full = C.full_mask
    fl = flats(C)
    assert set(fl.members) == {0, tri(1), tri(2), tri(3), tri(4), tri(5), tri(6), tri(1, 2), full}
    ok, witness = is_boolean_representable(C)
    assert not ok


def test_transversal_small_shapes():
    # chain family gives exactly the transversals of its differences
    fam = MooreFamily(4, [0b0000, 0b0001, 0b0111, 0b1111])
    C = transversal_complex(fam)
    # chains pick at most one point per difference {0}, {1,2}, {3}
    assert C.has(0b1011)
    assert not C.has(0b0110)
    assert C.dim == 2
