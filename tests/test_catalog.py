"""Catalog constructions: group-labeled complexes, forest complexes, and the
named fixtures, checked against their structural descriptions."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsc.core import (
    Complex,
    DomainError,
    alpha_vector,
    bits,
    is_paving,
    k_submasks,
    mask_of,
    pure_part,
    restriction,
    truncate,
)
from brsc.catalog import (
    GroupTable,
    LabeledDigraph,
    SPCAtom,
    catalog_names,
    desargues,
    dowling,
    named,
    non_desargues,
    rhodes_reduced,
)
from brsc.iso import are_isomorphic, canonical_complex, embeds
from brsc.lattice import MooreFamily, flats, is_boolean_representable, j_complex
from brsc.matroid import is_matroid
from brsc.t_operator import (
    cl_T,
    is_tbrsc,
    jt_complex,
    paving_tbrsc_criterion,
    t_family,
    truncation_t_family,
)


def tri(*t):
    return mask_of(tuple(x - 1 for x in t))


# ---------------------------------------------------------------- registry


def test_registry_listing_and_errors():
    names = catalog_names()
    assert len(names) == len(set(n for n, _ in names)) == 24
    with pytest.raises(DomainError) as err:
        named("no_such_thing")
    assert "desargues" in str(err.value)
    with pytest.raises(DomainError):
        named("six", wrong=1)
    with pytest.raises(DomainError):
        named("six", case=0)
    with pytest.raises(DomainError):
        named("uniform", k=4, n=3)
    assert named("uniform", k=2, n=4).dim == 1


# ---------------------------------------------------------------- groups


def test_group_table_validation():
    Z4 = GroupTable.cyclic(4)
    assert Z4.identity == 0 and Z4.inv(1) == 3
    assert Z4.mul(2, 3) == 1
    with pytest.raises(DomainError):
        GroupTable([[0, 1], [1]])
    with pytest.raises(DomainError):
        GroupTable([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(DomainError):
        GroupTable([[0, 1, 2], [1, 0, 0], [2, 0, 1]])  # not associative
    with pytest.raises(DomainError):
        GroupTable([[1, 0], [0, 0]])  # no identity
    with pytest.raises(DomainError):
        GroupTable([[0, 1], [1, 0]], names=["e", "e"])


def test_atom_canonicalization():
    Z3 = GroupTable.cyclic(3)
    a = SPCAtom.edge(Z3, 2, 1, 1)
    assert (a.i, a.j, a.g) == (1, 2, 2)
    assert a.kind == "edge"
    assert SPCAtom.loop(2).kind == "loop"
    with pytest.raises(DomainError):
        SPCAtom.edge(Z3, 1, 0, 1)
    assert a.display(Z3) == "(1,g2,2)"


# ------------------------------------------------------- group complexes


def _partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _rhodes_atoms(G, n):
    return [
        SPCAtom.edge(G, i, g, j)
        for i, j in combinations(range(1, n + 1), 2)
        for g in range(G.order)
    ]


def test_rhodes_small_shapes():
    Z2 = GroupTable.cyclic(2)
    R = rhodes_reduced(Z2, 2)
    assert R.n == 2 and R.dim == 1
    assert R.labels == ("(1,1,2)", "(1,g,2)")
    assert is_matroid(R)[0]

    R3 = rhodes_reduced(Z2, 3)
    assert R3.n == 6 and R3.dim == 2
    assert alpha_vector(R3) == (1, 6, 15, 16)
    assert is_matroid(R3)[0]

    with pytest.raises(DomainError):
        rhodes_reduced(GroupTable.cyclic(1), 3)
    with pytest.raises(DomainError):
        rhodes_reduced(Z2, 1)


def test_rhodes_flats_match_both_descriptions():
    # flats are the full-partition sets C(pi), plus the label-trivial
    # clique unions without parallel edges
    Z2 = GroupTable.cyclic(2)
    atoms = _rhodes_atoms(Z2, 3)
    index = {a: t for t, a in enumerate(atoms)}
    R = rhodes_reduced(Z2, 3)

    described = set()
    for I in (
        sub for r in range(4) for sub in combinations((1, 2, 3), r)
    ):
        for part in _partitions(I):
            F = 0
            for block in part:
                for i, j in combinations(sorted(block), 2):
                    for g in range(2):
                        F |= 1 << index[SPCAtom.edge(Z2, i, g, j)]
            described.add(F)
    for Z in range(1 << 6):
        sel = [atoms[t] for t in bits(Z)]
        pairs = [(a.i, a.j) for a in sel]
        if len(pairs) != len(set(pairs)):
            continue
        graph = LabeledDigraph(sel)
        comps = graph.components()
        if any(
            len(edges) != len(nodes) * (len(nodes) - 1) // 2 for nodes, edges, _ in comps
        ):
            continue
        if all(
            LabeledDigraph.edge_cycles_trivial(Z2, nodes, edges)
            for nodes, edges, _ in comps
        ):
            described.add(Z)
    assert set(flats(R).members) == described


def test_rhodes_flats_equal_strong_truncation_t_family():
    Z2 = GroupTable.cyclic(2)
    Z3 = GroupTable.cyclic(3)
    for G, n in ((Z2, 3), (Z3, 3), (Z2, 4)):
        R = rhodes_reduced(G, n)
        fl = set(flats(R).members)
        T4 = truncation_t_family(R, 4)
        assert set(T4.members) == fl
        assert j_complex(MooreFamily(R.n, T4.members, validate=False)) == R
    # past dim + 2 the family is stable
    R = rhodes_reduced(Z2, 3)
    assert set(truncation_t_family(R, 5).members) == set(
        truncation_t_family(R, 4).members
    )


def test_rhodes_level_three_family_is_larger_once_disjoint_pairs_exist():
    # on three nodes every pair of node pairs meets, so the level-3 family
    # collapses onto the flats; from four nodes on, a full parallel class
    # plus one disjoint edge joins the family and lifts dim J(T(H_3))
    Z2 = GroupTable.cyclic(2)
    for G in (Z2, GroupTable.cyclic(3)):
        R = rhodes_reduced(G, 3)
        assert set(truncation_t_family(R, 3).members) == set(flats(R).members)
        assert j_complex(truncation_t_family(R, 3)) == R

    R4 = rhodes_reduced(Z2, 4)
    T3 = truncation_t_family(R4, 3)
    fl = set(flats(R4).members)
    assert fl < set(T3.members)
    atoms = _rhodes_atoms(Z2, 4)
    index = {(a.i, a.g, a.j): t for t, a in enumerate(atoms)}
    chain = [
        0,
        1 << index[(1, 0, 2)],
        (1 << index[(1, 0, 2)]) | (1 << index[(1, 1, 2)]),
        (1 << index[(1, 0, 2)]) | (1 << index[(1, 1, 2)]) | (1 << index[(3, 0, 4)]),
        (1 << 12) - 1,
    ]
    members = set(T3.members)
    for S in chain:
        assert S in members
    assert j_complex(T3).dim >= 3 > 2


def test_dowling_small_shapes():
    Z2 = GroupTable.cyclic(2)
    D = dowling(Z2, 2)
    assert D.n == 4 and D.dim == 1
    assert alpha_vector(D) == (1, 4, 6)
    assert is_matroid(D)[0]

    D3 = dowling(Z2, 3)
    assert D3.n == 9 and D3.dim == 2
    assert alpha_vector(D3) == (1, 9, 36, 68)
    assert is_matroid(D3)[0]
    assert D3.labels[:3] == ("(1,g,1)", "(2,g,2)", "(3,g,3)")

    D33 = dowling(GroupTable.cyclic(3), 3)
    assert D33.n == 12 and D33.dim == 2
    assert is_matroid(D33)[0]

    with pytest.raises(DomainError):
        dowling(GroupTable.cyclic(1), 3)
    with pytest.raises(DomainError):
        dowling(Z2, 3, loop_label=0)


def test_dowling_loop_label_is_notation_only():
    Z3 = GroupTable.cyclic(3)
    A = dowling(Z3, 3, loop_label=1)
    B = dowling(Z3, 3, loop_label=2)
    assert A == B
    assert A.labels != B.labels


def test_dowling_flats_match_description():
    # one flat per (I, pi, f): all loops and edges outside I, plus the
    # f-calibrated cliques on the pi-blocks; f normalized per block
    Z2 = GroupTable.cyclic(2)
    n = 3
    D = dowling(Z2, n)
    loops = [SPCAtom.loop(i) for i in range(1, n + 1)]
    edges = [
        SPCAtom.edge(Z2, i, g, j)
        for i, j in combinations(range(1, n + 1), 2)
        for g in range(2)
    ]
    index = {a: t for t, a in enumerate(loops + edges)}

    described = set()
    for I in (sub for r in range(4) for sub in combinations((1, 2, 3), r)):
        out = [i for i in (1, 2, 3) if i not in I]
        base = 0
        for i in out:
            base |= 1 << index[SPCAtom.loop(i)]
        for i, j in combinations(out, 2):
            for g in range(2):
                base |= 1 << index[SPCAtom.edge(Z2, i, g, j)]
        for part in _partitions(I):
            blocks = [sorted(b) for b in part]
            choices = [
                list(product(range(2), repeat=len(b) - 1)) for b in blocks
            ]
            for pick in product(*choices):
                F = base
                for b, vals in zip(blocks, pick):
                    f = {b[0]: 0}
                    for x, v in zip(b[1:], vals):
                        f[x] = v
                    for i, j in combinations(b, 2):
                        g = Z2.mul(Z2.inv(f[i]), f[j])
                        F |= 1 << index[SPCAtom.edge(Z2, i, g, j)]
                described.add(F)
    assert set(flats(D).members) == described
    assert len(described) == 24


def test_dowling_flats_equal_t_family():
    Z2 = GroupTable.cyclic(2)
    Z3 = GroupTable.cyclic(3)
    for G in (Z2, Z3):
        D = dowling(G, 3)
        assert set(t_family(D).members) == set(flats(D).members)


# ---------------------------------------------------------------- forests


def _acyclic_edge_subsets():
    edges = list(combinations(range(1, 6), 2))
    out = {0}
    for r in range(1, 5):
        for combo in combinations(range(10), r):
            parent = list(range(6))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for t in combo:
                a, b = edges[t]
                ra, rb = find(a), find(b)
                if ra == rb:
                    ok = False
                    break
                parent[ra] = rb
            if ok:
                out.add(mask_of(combo))
    return out


def test_desargues_shape_and_flats():
    D = desargues()
    assert alpha_vector(D) == (1, 10, 45, 110)
    assert is_matroid(D)[0]
    edges = list(combinations(range(1, 6), 2))
    fl = set(flats(D).members)
    singles = {1 << t for t in range(10)}
    lines = {
        mask_of(edges.index(e) for e in ((a, b), (a, c), (b, c)))
        for a, b, c in combinations(range(1, 6), 3)
    }
    short = {
        mask_of((s, t))
        for s, t in combinations(range(10), 2)
        if not set(edges[s]) & set(edges[t])
    }
    assert len(short) == 15
    assert fl == {0, (1 << 10) - 1} | singles | lines | short
    assert len(fl) == 37


def test_desargues_t_family_is_the_partition_lattice():
    D = desargues()
    fam = set(t_family(D).members)
    assert len(fam) == 52
    edges = list(combinations(range(1, 6), 2))
    for T in fam:
        # every T is a disjoint union of cliques: present vertices split
        # into groups with all inner pairs present
        sel = [edges[t] for t in bits(T)]
        graph = LabeledDigraph(
            [SPCAtom.edge(GroupTable.cyclic(2), a, 0, b) for a, b in sel]
        )
        for nodes, comp_edges, _ in graph.components():
            assert len(comp_edges) == len(nodes) * (len(nodes) - 1) // 2


def test_desargues_candidate_is_the_forest_matroid():
    D = desargues()
    J = jt_complex(D)
    assert J.faces == frozenset(_acyclic_edge_subsets())
    assert len([f for f in J.facets]) == 125


def test_non_desargues_flats_and_t_family():
    N = non_desargues()
    D = desargues()
    assert is_matroid(N)[0]
    L0 = tri(8, 9, 10)
    flD = set(flats(D).members)
    assert set(flats(N).members) == (flD - {L0}) | set(k_submasks(L0, 2))

    predicted = set()
    edges = list(combinations(range(1, 6), 2))
    Z2 = GroupTable.cyclic(2)
    for T in range(1 << 10):
        sel = [edges[t] for t in bits(T)]
        graph = LabeledDigraph([SPCAtom.edge(Z2, a, 0, b) for a, b in sel])
        ok = True
        for nodes, comp_edges, _ in graph.components():
            full = len(comp_edges) == len(nodes) * (len(nodes) - 1) // 2
            two_of_l0 = (
                len(comp_edges) == 2
                and mask_of(edges.index((a.i, a.j)) for a in comp_edges) & ~L0 == 0
            )
            if not (full or two_of_l0):
                ok = False
                break
        if ok:
            predicted.add(T)
    assert set(t_family(N).members) == predicted


# ------------------------------------------------------------- six classes


def test_six_classes_distinct_and_between_the_two_families():
    cs = [named("six", case=c) for c in range(1, 6)]
    keys = {canonical_complex(C) for C in cs}
    assert len(keys) == 5
    for C in cs:
        assert is_paving(C) == 2
        assert is_tbrsc(C)
        assert not is_boolean_representable(C)[0]


def test_six_classes_covering_relations():
    # the order is embeddability up to isomorphism; each edge changes the
    # number of excluded triangles by one
    cs = {c: named("six", case=c) for c in range(1, 6)}
    for low, high in ((1, 2), (1, 4), (2, 3), (2, 5), (4, 5)):
        assert embeds(cs[low], cs[high]) is not None
        assert len(cs[high].faces) - len(cs[low].faces) == 1
    assert embeds(cs[4], cs[3]) is None
    assert embeds(cs[3], cs[5]) is None
    assert embeds(cs[5], cs[3]) is None
    assert embeds(cs[2], cs[4]) is None
    assert embeds(cs[4], cs[2]) is None


def test_boundary_complexes_around_the_six_classes():
    from brsc.operators import b_d

    base = b_d(6, tri(1, 2, 3, 4), 2)
    assert is_boolean_representable(base)[0]
    assert is_paving(base) == 2
    for extra in (tri(1, 2, 3), tri(1, 2, 4)):
        C = Complex(6, set(base.facets) | {extra})
        assert not is_tbrsc(C)


def test_btbtwo_is_the_bottom_class():
    B = named("btbtwo")
    assert B == named("six", case=1)
    assert B == named("ncu")
    fam = t_family(B)
    assert set(fam.members) == {
        0,
        tri(1),
        tri(2),
        tri(3),
        tri(4),
        tri(5),
        tri(6),
        tri(1, 2),
        tri(1, 2, 3, 4),
        (1 << 6) - 1,
    }


# ------------------------------------------------------------------ swirl


def test_swirl_minimal_non_representable():
    S = named("swirl", d=2)
    assert S.n == 12
    assert is_paving(S) == 2
    assert is_tbrsc(S)
    assert not is_boolean_representable(S)[0]
    for v in range(12):
        R = restriction(S, S.full_mask & ~(1 << v))
        assert is_boolean_representable(R)[0]
    with pytest.raises(DomainError):
        named("swirl", d=1)


# -------------------------------------------------------------------- nfb


def test_nfb_fails_only_globally():
    F = named("nfb", n=6)
    assert F.n == 15 and F.dim == 2 and is_paving(F) == 2
    ok, witness = paving_tbrsc_criterion(F)
    assert not ok and witness is not None
    # the three fused chain-end vertices admit no two-point trace
    X = mask_of((0, 1, 6))
    assert not any(
        cl_T(F, Y) & (X & ~Y) == 0 for Y in k_submasks(X, 2)
    )
    for v in range(15):
        R = restriction(F, F.full_mask & ~(1 << v))
        assert is_paving(R) == 2
        ok, _ = paving_tbrsc_criterion(R)
        assert ok
    with pytest.raises(DomainError):
        named("nfb", n=5)


# ------------------------------------------------------------------ cepct


def test_cepct_pure_part_resists_every_trace():
    C = named("cepct")
    assert C.dim == 3
    P = pure_part(C)
    f4 = {f for f in P.facets}
    assert len(f4) == 14
    block = tri(1, 7, 8)
    assert {f for f in f4 if f & block == block} == {
        block | (1 << v) for v in (1, 2, 3, 4, 5)
    }
    assert not is_tbrsc(P)
    fam = set(t_family(P).members)
    Q = tri(3, 4, 5, 6)
    for want in k_submasks(Q, 3):
        assert all(T & Q != want for T in fam)


# ------------------------------------------------------------------ bfour


def test_bfour_column_verdicts():
    B = named("bfour")
    assert B.n == 15 and B.dim == 3
    assert pure_part(B) == B
    cols = {lab: 1 << i for i, lab in enumerate(B.labels)}
    a, b, c, d, e, f, g = (
        cols[s] for s in ("1000", "1110", "1101", "0110", "1010", "0011", "1011")
    )
    for X in (a | b | c, a | b | e, b | f | g):
        assert B.has(X)
    for X in (a | b | d, b | d | e, b | c | f, b | c | g):
        assert not B.has(X)
    B3 = truncate(B, 3)
    assert pure_part(B3) == B3
    assert is_tbrsc(B3)
    assert not is_boolean_representable(B3)[0]


# ------------------------------------------------------- remaining entries


def test_remaining_fixture_shapes():
    assert alpha_vector(named("cfup")) == (1, 4, 2)
    assert alpha_vector(named("exs")) == (1, 5, 6, 2)
    assert alpha_vector(named("nonun")) == (1, 5, 10, 4)
    assert alpha_vector(named("lhne")) == (1, 10, 45, 108)
    assert named("lhne").labels == tuple(range(10))
    assert alpha_vector(named("far")) == (1, 4, 6, 1)
    assert alpha_vector(named("triang")) == (1, 6, 15, 17)
    assert alpha_vector(named("sme")) == (1, 6, 15, 19)
    assert len(named("boom").facets) == 9
    assert len(named("tracks").facets) == 22
    assert named("cepc").dim == 3
    assert alpha_vector(named("jnmk", n=16, m=6, k=3)) == (1, 16, 15, 20)
    assert named("jijn", i=2, j=3, n=5).dim == 2
    assert named("rhodes", m=2, n=3) == rhodes_reduced(GroupTable.cyclic(2), 3)
    assert named("dowling", m=3, n=3) == dowling(GroupTable.cyclic(3), 3)


# --------------------------------------------------- truncation T-family


def complexes(max_n=5):
    @st.composite
    def strat(draw):
        n = draw(st.integers(1, max_n))
        full = (1 << n) - 1
        gens = draw(st.lists(st.integers(0, full), max_size=8))
        return Complex(n, gens)

    return strat()


@given(complexes(), st.integers(1, 7))
@settings(max_examples=120, deadline=None)
def test_truncation_t_family_matches_plain_route(C, k):
    stable = truncation_t_family(C, C.dim + 2)
    assert stable == flats(C)
    if k <= C.dim + 1:
        assert set(truncation_t_family(C, k).members) == set(
            t_family(truncate(C, k)).members
        )
    else:
        assert set(truncation_t_family(C, k).members) == set(stable.members)


def test_truncation_t_family_validates():
    with pytest.raises(DomainError):
        truncation_t_family(named("cfup"), 0)
