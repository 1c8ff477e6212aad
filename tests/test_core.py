"""Core data model tests against independent set-based oracles."""

import ast
import json
from itertools import accumulate, chain, combinations
from operator import or_
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brsc
from brsc import core
from brsc.catalog import named
from brsc import (
    CapacityError,
    Complex,
    DomainError,
    complex_from_json,
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
    _antichain,
    alpha_vector,
    bits,
    complex_to_dict,
    compress,
    is_unimodal,
    k_submasks,
    mask_of,
    submasks,
)
from complex_helpers import complexes


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


def test_bit_helpers():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
    assert sorted(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert sorted(k_submasks(0b111, 2)) == [0b011, 0b101, 0b110]
    assert compress(0b10100, 0b10110) == 0b110


def test_build_small():
    C = Complex(4, [0b0011, 0b1100])
    assert C.dim == 1
    assert faces_as_sets(C) == closure_oracle(4, [{0, 1}, {2, 3}])
    assert C.facets == frozenset({0b0011, 0b1100})


def generator_k_submasks(mask, k):
    """k_submasks as a generator over the bit tuple, one mask_of per subset."""
    for combo in combinations(tuple(bits(mask)), k):
        yield mask_of(combo)


@given(st.integers(0, (1 << 14) - 1), st.integers(0, 16))
@example(0b1011, 0)
@example(0, 0)
@example(0b1011, 4)
@example(0, 1)
@settings(max_examples=200, deadline=None)
def test_k_submasks_match_the_generator_in_order(mask, k):
    # the order is combinations order over the bits, which _gu_witnesses
    # relies on; k = 0 gives the empty set once and k past the popcount none
    assert list(k_submasks(mask, k)) == list(generator_k_submasks(mask, k))


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
        Complex(2, [-1])
    with pytest.raises(DomainError):
        Complex(2, labels=("a", "a"))


@given(complexes(6))
@settings(max_examples=200, deadline=None)
def test_faces_match_oracle(C):
    gens = [set(bits(f)) for f in C.facets]
    assert faces_as_sets(C) == closure_oracle(C.n, gens)


@given(complexes(6))
@settings(max_examples=200, deadline=None)
def test_dim_is_read_once_from_the_facets(C):
    want = max(f.bit_count() for f in C.facets) - 1
    D = Complex._of_antichain(C.n, C.facets, C.labels)
    for E in (C, D):
        E._dim = None
        assert E.dim == want
        assert E._dim == want


@given(complexes(6))
@settings(max_examples=200, deadline=None)
def test_facets_are_maximal_faces(C):
    faces = C.faces
    maximal = {
        f for f in faces if not any(g != f and f & ~g == 0 for g in faces)
    }
    assert C.facets == maximal


def brute_antichain(masks):
    """The members not strictly inside another member, by definition."""
    ms = set(masks)
    return frozenset(m for m in ms if not any(m != k and m & ~k == 0 for k in ms))


mask_lists = st.one_of(
    st.lists(st.integers(0, 63), max_size=24),
    # all of one size, duplicates likely
    st.integers(0, 6).flatmap(
        lambda k: st.lists(st.sampled_from(list(k_submasks(63, k))), max_size=24)
    ),
    # nested chains, with repeats where a step adds nothing
    st.lists(st.integers(0, 63), max_size=12).map(lambda xs: list(accumulate(xs, or_))),
    # a chain mixed with free members
    st.tuples(
        st.lists(st.integers(0, 63), max_size=8), st.lists(st.integers(0, 63), max_size=8)
    ).map(lambda p: list(accumulate(p[0], or_)) + p[1]),
    # masks on up to 64 vertices, each byte lane in use: a chain, its members
    # cut by a few masks, and free members
    st.tuples(
        st.lists(st.integers(0, (1 << 64) - 1), max_size=8),
        st.lists(st.integers(0, (1 << 64) - 1), max_size=4),
        st.lists(st.integers(0, (1 << 64) - 1), max_size=6),
    ).map(lambda p: (chain := list(accumulate(p[0], or_))) + [a & c for a in chain for c in p[1]] + p[2]),
)


@given(mask_lists)
@settings(max_examples=400, deadline=None)
def test_antichain_matches_definition(masks):
    assert _antichain(masks) == brute_antichain(masks)


@pytest.mark.parametrize(
    "name, params", [("nfb", {"n": 9}), ("bfour", {}), ("jnmk", {"n": 12, "m": 8, "k": 4})]
)
def test_antichain_of_up_generators(name, params):
    # the generators of up on 12-18 vertices, in four or more size classes:
    # each facet, each facet plus a point, the singletons and the empty set
    C = named(name, **params)
    gens = {f | 1 << p for f in C.facets for p in range(C.n)} | set(C.facets)
    gens |= {0} | {1 << p for p in range(C.n)}
    assert _antichain(gens) == brute_antichain(gens)


def test_antichain_edge_cases():
    assert _antichain([]) == frozenset()
    assert _antichain([0]) == {0}
    assert _antichain([0, 0, 5]) == {5}
    assert _antichain([3, 5, 6, 3]) == {3, 5, 6}
    assert _antichain([1, 3, 7, 15]) == {15}


def generator_lists(max_n=6):
    """(n, generators) with the empty set, duplicates, singletons and nested
    sets all likely among the generators."""

    @st.composite
    def strat(draw):
        n = draw(st.integers(1, max_n))
        full = (1 << n) - 1
        member = st.one_of(
            st.just(0),
            st.integers(0, n - 1).map(lambda i: 1 << i),
            st.integers(0, full),
        )
        gens = draw(st.lists(member, max_size=10))
        # a nested chain, and repeats of members already drawn
        gens += list(accumulate(draw(st.lists(st.integers(0, full), max_size=4)), or_))
        if gens:
            gens += draw(st.lists(st.sampled_from(gens), max_size=4))
        return n, draw(st.permutations(gens))

    return strat()


@given(generator_lists())
@settings(max_examples=400, deadline=None)
def test_facets_match_antichain_of_generators_and_every_singleton(case):
    # every singleton added, covered or not, as a complex holds them all
    n, gens = case
    want = _antichain(set(gens) | {1 << i for i in range(n)})
    assert Complex(n, gens).facets == want
    # a set of generators is read as it is, and left as it was
    distinct = set(gens)
    assert Complex(n, distinct).facets == Complex(n, frozenset(gens)).facets == want
    assert distinct == set(gens)


@given(generator_lists(), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_out_of_range_generator_is_refused(case, shift):
    n, gens = case
    with pytest.raises(DomainError):
        Complex(n, gens + [1 << (n + shift)])
    with pytest.raises(DomainError):
        Complex(n, gens + [-1 - shift])


@given(complexes(6), st.integers(0, 127))
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
    got = {frozenset(l - 1 for l in R.face_labels(f)) for f in R.faces}
    assert got == expect
    assert R.labels == (2, 3, 4)


@given(complexes(6), st.integers(1, 127))
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


@given(complexes(6), st.integers(1, 4))
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


@given(complexes(6))
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


def test_paving_is_refused_past_the_set_limit(monkeypatch):
    # the 3-sets of 4 points: 15 faces, every 2-set among them
    monkeypatch.setattr(core, "SET_LIMIT", 15)
    assert is_paving(Complex(4, k_submasks(0b1111, 3))) == 2
    monkeypatch.setattr(core, "SET_LIMIT", 14)
    with pytest.raises(CapacityError, match="face family with more than 14 sets"):
        is_paving(Complex(4, k_submasks(0b1111, 3)))


def test_faces_refuse_a_facet_past_the_set_limit(monkeypatch):
    # a facet with more subsets than the limit is refused before any subset
    # is listed; membership is still answered from the facets
    listed = []

    def counted(mask):
        listed.append(mask)
        return submasks(mask)

    monkeypatch.setattr(core, "submasks", counted)
    monkeypatch.setattr(core, "SET_LIMIT", 8)
    assert len(Complex(3, [0b111]).faces) == 8
    listed.clear()
    C = Complex(5, [0b01111])
    with pytest.raises(CapacityError, match="face family with more than 8 sets"):
        C.faces
    assert listed == []
    assert C.has(0b0101) and not C.has(0b10001)
    # unpatched: one 32-point facet on 40 vertices has 2^32 faces
    monkeypatch.undo()
    with pytest.raises(CapacityError, match=f"face family with more than {1 << 20} sets"):
        Complex(40, [(1 << 32) - 1]).faces


def test_faces_refuse_a_union_past_the_set_limit(monkeypatch):
    # two disjoint triangles: 8 subsets each, 15 faces in all
    monkeypatch.setattr(core, "SET_LIMIT", 15)
    assert len(Complex(6, [0b000111, 0b111000]).faces) == 15
    monkeypatch.setattr(core, "SET_LIMIT", 14)
    C = Complex(6, [0b000111, 0b111000])
    with pytest.raises(CapacityError, match="face family with more than 14 sets"):
        C.faces
    assert C.dim == 2


def test_json_round_trip():
    C = Complex(4, [0b0111, 0b1010])
    text = json.dumps(complex_to_dict(C))
    data = json.loads(text)
    assert data["vertices"] == 4
    assert [1, 2, 3] in data["facets"]
    assert complex_from_json(text) == C

    L = Complex(3, [0b111], labels=("a", "b", "c"))
    text2 = json.dumps(complex_to_dict(L))
    back = complex_from_json(text2)
    assert back.labels == ("a", "b", "c")
    assert back == L


@given(complexes(6))
@settings(max_examples=100, deadline=None)
def test_json_round_trip_random(C):
    assert complex_from_json(json.dumps(complex_to_dict(C))) == C


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


def test_library_has_no_assert_statements():
    # cross-checks belong in the tests and in reproduce: asserts vanish under
    # python -O and slow down production paths
    found = []
    for path in sorted(Path(brsc.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_library_has_no_unused_imports():
    # t_operator keeps `flats` because perfbench/selftest.py checks that the
    # tracer wraps the name in that module's namespace
    allowed = {"t_operator.flats"}
    found = []
    for path in sorted(Path(brsc.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        found.append(f"{path.stem}.{name}")
    assert sorted(set(found) - allowed) == []
    assert allowed <= set(found)


def test_lattice_has_no_power_set_scan():
    # closed sets, flats, long hyperplanes, J-complexes and class complexes
    # are listed output-sensitively; a loop over range(1 << n) would cost 2^n
    # whatever the answer
    found = []
    for name in ("lattice.py", "operators.py"):
        path = Path(brsc.__file__).parent / name
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if (
                    isinstance(it, ast.Call)
                    and getattr(it.func, "id", None) == "range"
                    and any(isinstance(a, ast.BinOp) and isinstance(a.op, ast.LShift) for a in it.args)
                ):
                    found.append(f"{name}:{it.lineno}")
    assert found == []


def test_library_has_no_self_referencing_closures():
    # a nested function that calls itself holds itself through its closure
    # cell, so every call leaves a reference cycle for the cyclic collector
    found = []
    for path in sorted(Path(brsc.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for outer in ast.walk(tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if any(isinstance(node, ast.Name) and node.id == inner.name for node in ast.walk(inner)):
                    found.append(f"{path.stem}.{outer.name}.{inner.name}")
    assert found == []
