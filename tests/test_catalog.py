"""Catalog constructions: group-labeled complexes, forest complexes, and the
named fixtures, checked against their structural descriptions."""

from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brsc import core
from brsc.core import (
    SET_LIMIT,
    CapacityError,
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
    _grow,
    catalog_names,
    desargues,
    dowling,
    named,
    non_desargues,
    rhodes_reduced,
)
from brsc.iso import canonical_complex, embeds
from brsc.lattice import MooreFamily, _level_walk, flats, is_boolean_representable, j_complex
from brsc.matroid import is_matroid
from brsc.reproduce import tri
from brsc.t_operator import (
    cl_T,
    is_tbrsc,
    jt_complex,
    paving_tbrsc_criterion,
    t_family,
    truncation_t_family,
)
from complex_helpers import complexes


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


# ------------------------------------------------------- group complexes


def _components(pairs):
    """Union-find components of the graph with the given (i, j) pairs (a
    pair (i, i) is a loop): (node set, indices of its pairs) per component."""
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups = {}
    for t, (i, _) in enumerate(pairs):
        groups.setdefault(find(i), []).append(t)
    return [({v for t in ts for v in pairs[t]}, ts) for ts in groups.values()]


def _potentials_agree(edges, m):
    """Whether potentials mod m, set along a BFS spanning tree of the connected
    edges (i, j, g), give h[j] = h[i] + g on every edge: a zero label sum
    around every cycle."""
    adj = {}
    for i, j, g in edges:
        adj.setdefault(i, []).append((j, g))
        adj.setdefault(j, []).append((i, -g))
    root = min(adj)
    h = {root: 0}
    queue = [root]
    for v in queue:
        for w, g in adj[v]:
            if w not in h:
                h[w] = (h[v] + g) % m
                queue.append(w)
    return all((h[i] + g - h[j]) % m == 0 for i, j, g in edges)


def _scan_member(chosen, m, rhodes):
    """Each component a tree, or a tree plus one loop, or a tree plus one
    edge closing a cycle of nonzero label sum; rhodes allows one such."""
    cyclic = 0
    for nodes, ts in _components([(i, j) for i, j, _ in chosen]):
        if len(ts) == len(nodes) - 1:
            continue
        if len(ts) != len(nodes):
            return False
        cyclic += 1
        if rhodes and cyclic > 1:
            return False
        comp = [chosen[t] for t in ts]
        if all(g is not None for _, _, g in comp) and _potentials_agree(comp, m):
            return False
    return True


def _member(atoms, m, most_cyclic, X):
    """Whether the atoms of X form a face of a group-labeled graph matroid
    over Z_m. One DFS per component assigns potentials mod m: the edge
    (i, j, g) asks for h[j] = h[i] + g. A component is a tree, or a tree plus
    one edge or loop; that extra edge must break the potentials (a nonzero
    label sum around its cycle), which a loop always does. At most
    most_cyclic components carry an extra edge."""
    adj = {}
    for t in bits(X):
        i, j, g = atoms[t]
        adj.setdefault(i, []).append((j, g))
        adj.setdefault(j, []).append((i, None if g is None else -g))
    h = {}
    cyclic = 0
    for root in adj:
        if root in h:
            continue
        h[root] = 0
        stack = [root]
        nodes = ends = 0
        broken = False
        while stack:
            v = stack.pop()
            nodes += 1
            for w, g in adj[v]:
                ends += 1
                if g is None:
                    broken = True
                elif w not in h:
                    h[w] = (h[v] + g) % m
                    stack.append(w)
                elif h[w] != (h[v] + g) % m:
                    broken = True
        # each edge and each loop leaves two ends
        surplus = ends // 2 - nodes + 1
        if surplus > 1 or surplus and not broken:
            return False
        cyclic += surplus
    return cyclic <= most_cyclic


def _group_atoms(name, m, n):
    """The atoms of the group complex in the catalog's order: the loops
    (i, i, None) of dowling, then the edges (i, j, g) for i < j, g in Z_m."""
    loops = [(i, i, None) for i in range(1, n + 1)] if name == "dowling" else []
    return loops + [(i, j, g) for i, j in combinations(range(1, n + 1), 2) for g in range(m)]


def _scan_group_complex(name, m, n):
    """The group complex by a scan of every atom set of at most n atoms."""
    def show(g):
        return "1" if g == 0 else "g" if m == 2 else f"g{g}"

    atoms = _group_atoms(name, m, n)
    labels = [f"({i},{show(1)},{i})" if g is None else f"({i},{show(g)},{j})" for i, j, g in atoms]
    gens = {
        mask_of(combo)
        for size in range(1, n + 1)
        for combo in combinations(range(len(atoms)), size)
        if _scan_member([atoms[t] for t in combo], m, name == "rhodes")
    }
    return Complex(len(atoms), gens, labels)


@pytest.mark.parametrize(
    "name, m, n",
    [
        ("rhodes", 2, 2),
        ("rhodes", 2, 3),
        ("rhodes", 3, 3),
        ("rhodes", 2, 4),
        ("rhodes", 4, 3),
        ("rhodes", 3, 4),
        ("dowling", 2, 2),
        ("dowling", 2, 3),
        ("dowling", 3, 3),
        ("dowling", 2, 4),
        ("dowling", 4, 3),
        ("dowling", 5, 3),
    ],
)
def test_group_complex_matches_subset_scan(name, m, n):
    C = named(name, m=m, n=n)
    S = _scan_group_complex(name, m, n)
    assert (C.n, C.facets, C.labels) == (S.n, S.facets, S.labels)


@pytest.mark.parametrize(
    "name, m, n, count",
    [
        ("rhodes", 2, 4, 312),
        ("rhodes", 3, 4, 2106),
        ("rhodes", 2, 5, 7552),
        ("rhodes", 3, 5, 76464),
        ("dowling", 2, 4, 1138),
        ("dowling", 5, 3, 686),
        # 25 atoms: past the subset scan's old 24-atom cap
        ("dowling", 2, 5, 25218),
    ],
)
def test_group_complex_facet_counts(name, m, n, count):
    # both matroids have rank n, so every facet holds n atoms
    C = named(name, m=m, n=n)
    assert len(C.facets) == count
    assert {f.bit_count() for f in C.facets} == {n}


@pytest.mark.parametrize("name, m, n, most_cyclic", [("rhodes", 2, 4, 1), ("dowling", 2, 3, 3)])
def test_group_complex_walk_refuses_exactly_past_the_set_limit(monkeypatch, name, m, n, most_cyclic):
    # the walk lists every face of the group complex; _gain_graph's count of
    # the sets of at most n atoms refuses before it at these limits, so the
    # walk is called with the catalog's atoms and growth directly
    C = named(name, m=m, n=n)
    grow = partial(_grow, _group_atoms(name, m, n), m, most_cyclic)
    listed = len(C.faces)
    monkeypatch.setattr(core, "SET_LIMIT", listed)
    assert set(_level_walk([0], grow, "group complex")) == C.facets
    monkeypatch.setattr(core, "SET_LIMIT", listed - 1)
    with pytest.raises(CapacityError, match=f"group complex with more than {listed - 1} sets"):
        _level_walk([0], grow, "group complex")


@st.composite
def group_faces(draw):
    """Atoms of a group complex, m, a budget of cyclic components and one
    face, grown from drawn atoms by keeping each that leaves a face. The
    catalog's budgets are 1 (rhodes) and n (dowling); drawing any budget in
    1..n also spends it on loops."""
    name = draw(st.sampled_from(["rhodes", "dowling"]))
    m = draw(st.integers(2, 5))
    n = draw(st.integers(2, 4))
    most_cyclic = draw(st.integers(1, n))
    atoms = _group_atoms(name, m, n)
    Y = 0
    for t in draw(st.lists(st.integers(0, len(atoms) - 1), max_size=n + 1)):
        if _member(atoms, m, most_cyclic, Y | 1 << t):
            Y |= 1 << t
    return name, m, n, most_cyclic, Y


# a parallel edge whose labels differ closes a cycle
@example(("rhodes", 2, 3, 1, 0b1))
# (2,3,g) closes a cycle of zero label sum exactly when g = 1
@example(("rhodes", 3, 3, 1, 0b10001))
# the one cyclic component of rhodes is spent on (1,2): a parallel (3,4) is refused
@example(("rhodes", 2, 4, 1, 0b11 | 1 << 10))
@example(("dowling", 2, 4, 4, 1 << 4 | 1 << 5 | 1 << 14))
# loops on nodes 1 and 2: no edge may join them, a loop on 3 may follow
@example(("dowling", 2, 3, 3, 0b11))
# with a budget of 2 spent, no loop may follow
@example(("dowling", 2, 3, 2, 0b11))
# a loop on 1 and the edge (1,2): no second cycle through either node
@example(("dowling", 3, 3, 3, 1 << 0 | 1 << 3))
@given(group_faces())
@settings(max_examples=300, deadline=None)
def test_grow_decides_each_atom_above_the_highest_as_the_member_test(face):
    name, m, n, most_cyclic, Y = face
    atoms = _group_atoms(name, m, n)
    assert _member(atoms, m, most_cyclic, Y)
    above = range(Y.bit_length(), len(atoms))
    assert _grow(atoms, m, most_cyclic, Y, None) == mask_of(p for p in above if _member(atoms, m, most_cyclic, Y | 1 << p))


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


def test_rhodes_small_shapes():
    R = rhodes_reduced(2, 2)
    assert R.n == 2 and R.dim == 1
    assert R.labels == ("(1,1,2)", "(1,g,2)")
    assert is_matroid(R)[0]
    assert rhodes_reduced(3, 2).labels == ("(1,1,2)", "(1,g1,2)", "(1,g2,2)")

    R3 = rhodes_reduced(2, 3)
    assert R3.n == 6 and R3.dim == 2
    assert alpha_vector(R3) == (1, 6, 15, 16)
    assert is_matroid(R3)[0]

    with pytest.raises(DomainError):
        rhodes_reduced(1, 3)
    with pytest.raises(DomainError):
        rhodes_reduced(2, 1)


def test_rhodes_flats_match_both_descriptions():
    # flats are the full-partition sets C(pi), plus the label-trivial
    # clique unions without parallel edges
    atoms = _group_atoms("rhodes", 2, 3)
    index = {a: t for t, a in enumerate(atoms)}
    R = rhodes_reduced(2, 3)

    described = set()
    for I in (
        sub for r in range(4) for sub in combinations((1, 2, 3), r)
    ):
        for part in _partitions(I):
            F = 0
            for block in part:
                for i, j in combinations(sorted(block), 2):
                    for g in range(2):
                        F |= 1 << index[(i, j, g)]
            described.add(F)
    for Z in range(1 << 6):
        sel = [atoms[t] for t in bits(Z)]
        pairs = [(i, j) for i, j, _ in sel]
        if len(pairs) != len(set(pairs)):
            continue
        comps = _components(pairs)
        if any(len(ts) != len(nodes) * (len(nodes) - 1) // 2 for nodes, ts in comps):
            continue
        if all(_potentials_agree([sel[t] for t in ts], 2) for _, ts in comps):
            described.add(Z)
    assert set(flats(R).members) == described


def test_rhodes_flats_equal_strong_truncation_t_family():
    for m, n in ((2, 3), (3, 3), (2, 4)):
        R = rhodes_reduced(m, n)
        fl = set(flats(R).members)
        T4 = truncation_t_family(R, 4)
        assert set(T4.members) == fl
        assert j_complex(MooreFamily(R.n, T4.members, validate=False)) == R
    # past dim + 2 the family is stable
    R = rhodes_reduced(2, 3)
    assert set(truncation_t_family(R, 5).members) == set(
        truncation_t_family(R, 4).members
    )


def test_rhodes_level_three_family_is_larger_once_disjoint_pairs_exist():
    # on three nodes every pair of node pairs meets, so the level-3 family
    # collapses onto the flats; from four nodes on, a full parallel class
    # plus one disjoint edge joins the family and lifts dim J(T(H_3))
    for m in (2, 3):
        R = rhodes_reduced(m, 3)
        assert set(truncation_t_family(R, 3).members) == set(flats(R).members)
        assert j_complex(truncation_t_family(R, 3)) == R

    R4 = rhodes_reduced(2, 4)
    T3 = truncation_t_family(R4, 3)
    fl = set(flats(R4).members)
    assert fl < set(T3.members)
    index = {a: t for t, a in enumerate(_group_atoms("rhodes", 2, 4))}
    chain = [
        0,
        1 << index[(1, 2, 0)],
        (1 << index[(1, 2, 0)]) | (1 << index[(1, 2, 1)]),
        (1 << index[(1, 2, 0)]) | (1 << index[(1, 2, 1)]) | (1 << index[(3, 4, 0)]),
        (1 << 12) - 1,
    ]
    members = set(T3.members)
    for S in chain:
        assert S in members
    assert j_complex(T3).dim >= 3 > 2


def test_dowling_small_shapes():
    D = dowling(2, 2)
    assert D.n == 4 and D.dim == 1
    assert alpha_vector(D) == (1, 4, 6)
    assert is_matroid(D)[0]

    D3 = dowling(2, 3)
    assert D3.n == 9 and D3.dim == 2
    assert alpha_vector(D3) == (1, 9, 36, 68)
    assert is_matroid(D3)[0]
    assert D3.labels[:3] == ("(1,g,1)", "(2,g,2)", "(3,g,3)")

    D33 = dowling(3, 3)
    assert D33.n == 12 and D33.dim == 2
    assert is_matroid(D33)[0]
    assert D33.labels[:4] == ("(1,g1,1)", "(2,g1,2)", "(3,g1,3)", "(1,1,2)")

    with pytest.raises(DomainError):
        dowling(1, 3)


def test_dowling_flats_match_description():
    # one flat per (I, pi, f): all loops and edges outside I, plus the
    # f-calibrated cliques on the pi-blocks; f normalized per block
    n = 3
    D = dowling(2, n)
    index = {a: t for t, a in enumerate(_group_atoms("dowling", 2, n))}

    described = set()
    for I in (sub for r in range(4) for sub in combinations((1, 2, 3), r)):
        out = [i for i in (1, 2, 3) if i not in I]
        base = 0
        for i in out:
            base |= 1 << index[(i, i, None)]
        for i, j in combinations(out, 2):
            for g in range(2):
                base |= 1 << index[(i, j, g)]
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
                        F |= 1 << index[(i, j, (f[j] - f[i]) % 2)]
                described.add(F)
    assert set(flats(D).members) == described
    assert len(described) == 24


def test_dowling_flats_equal_t_family():
    for m in (2, 3):
        D = dowling(m, 3)
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
        for nodes, ts in _components([edges[t] for t in bits(T)]):
            assert len(ts) == len(nodes) * (len(nodes) - 1) // 2


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
    for T in range(1 << 10):
        sel = [edges[t] for t in bits(T)]
        ok = True
        for nodes, ts in _components(sel):
            full = len(ts) == len(nodes) * (len(nodes) - 1) // 2
            two_of_l0 = len(ts) == 2 and mask_of(edges.index(sel[t]) for t in ts) & ~L0 == 0
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


def test_swirl_counts_its_generating_sets_against_the_limit(monkeypatch):
    # d = 4: C(30, 4) + C(30, 5) = 169,911 generating sets on 30 vertices
    S = named("swirl", d=4)
    assert S.n == 30 and S.dim == 4
    # every 4-set of the 30 points is a face: read off the 174,152 listed faces
    assert is_paving(S) == 4
    # d = 5: 6,096,454 sets on 42 vertices, refused before any is listed
    monkeypatch.setattr("brsc.catalog.k_submasks", None)
    with pytest.raises(CapacityError, match=f"swirl with more than {SET_LIMIT} generating sets"):
        named("swirl", d=5)


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


def test_nfb_past_twenty_two_vertices():
    # no vertex cap: nfb on 23 points is built and its verdict listed
    F = named("nfb", n=14)
    assert F.n == 23 and is_paving(F) == 2
    assert not is_boolean_representable(F)[0]


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
    assert named("rhodes", m=2, n=3) == rhodes_reduced(2, 3)
    assert named("dowling", m=3, n=3) == dowling(3, 3)


# --------------------------------------------------- truncation T-family


@given(complexes(5), st.integers(1, 7))
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
