"""Named complexes: parametric families, the group-labeled graph matroids,
and the one-off fixtures exercised throughout the test suite.

Every generator is pure and deterministic; vertex labels follow the source
naming so reports stay readable.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import (
    CapacityError,
    Complex,
    DomainError,
    bits,
    k_submasks,
    mask_of,
)
from .lattice import BooleanMatrix, MooreFamily, complex_of_matrix, j_complex
from .t_operator import jijn


class GroupTable:
    """Finite group given by its multiplication table over indices 0..m-1."""

    __slots__ = ("order", "table", "identity", "inverse", "names")

    def __init__(self, table, names=None):
        m = len(table)
        if m == 0 or any(len(row) != m for row in table):
            raise DomainError("multiplication table must be square and nonempty")
        tab = tuple(tuple(row) for row in table)
        if any(not 0 <= x < m for row in tab for x in row):
            raise DomainError("table entries must be element indices")
        ids = [
            e
            for e in range(m)
            if all(tab[e][x] == x == tab[x][e] for x in range(m))
        ]
        if len(ids) != 1:
            raise DomainError("table has no two-sided identity")
        identity = ids[0]
        inv = [None] * m
        for a in range(m):
            for b in range(m):
                if tab[a][b] == identity and tab[b][a] == identity:
                    inv[a] = b
        if any(x is None for x in inv):
            raise DomainError("some element has no inverse")
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                        raise DomainError("multiplication table is not associative")
        if names is None:
            names = tuple(
                "1" if i == identity else f"g{i}" if m > 2 else "g" for i in range(m)
            )
        else:
            names = tuple(str(x) for x in names)
            if len(names) != m or len(set(names)) != m:
                raise DomainError("element names must be distinct, one per element")
        self.order = m
        self.table = tab
        self.identity = identity
        self.inverse = tuple(inv)
        self.names = names

    @classmethod
    def cyclic(cls, m):
        if m < 1:
            raise DomainError("cyclic group order must be positive")
        return cls([[(a + b) % m for b in range(m)] for a in range(m)])

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def name(self, a):
        return self.names[a]

    def __repr__(self):
        return f"GroupTable(order={self.order})"


@dataclass(frozen=True, order=True)
class SPCAtom:
    """Labeled-graph atom: an edge (i, g, j) with i < j, or a loop at i.

    The reversed edge (j, g^-1, i) denotes the same atom, so edges are
    canonicalized during construction.  Loops carry no group element; the
    display label they get is pure notation.
    """

    i: int
    j: int
    g: Optional[int]

    @property
    def kind(self):
        return "loop" if self.i == self.j else "edge"

    @classmethod
    def edge(cls, G, i, g, j):
        if i == j:
            raise DomainError("edge atoms need distinct endpoints")
        if i > j:
            i, j, g = j, i, G.inv(g)
        return cls(i, j, g)

    @classmethod
    def loop(cls, i):
        return cls(i, i, None)

    def display(self, G, loop_name="y"):
        if self.kind == "loop":
            return f"({self.i},{loop_name},{self.i})"
        return f"({self.i},{G.name(self.g)},{self.j})"


class LabeledDigraph:
    """Multigraph form of an atom set: one undirected labeled edge per edge
    atom and one loop per loop atom, on the nodes the atoms mention."""

    __slots__ = ("atoms", "nodes")

    def __init__(self, atoms):
        self.atoms = tuple(atoms)
        self.nodes = sorted({v for a in self.atoms for v in (a.i, a.j)})

    def components(self):
        """Triples (node set, edge atoms, loop count), one per component."""
        parent = {v: v for v in self.nodes}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a in self.atoms:
            if a.kind == "edge":
                parent[find(a.i)] = find(a.j)
        groups = {}
        for v in self.nodes:
            groups.setdefault(find(v), []).append(v)
        out = []
        for root, nodes in sorted(groups.items()):
            edges = [a for a in self.atoms if a.kind == "edge" and find(a.i) == root]
            loops = sum(1 for a in self.atoms if a.kind == "loop" and find(a.i) == root)
            out.append((frozenset(nodes), edges, loops))
        return out

    @staticmethod
    def edge_cycles_trivial(G, nodes, edges):
        """Potential test: assign group values along a spanning tree and check
        that every non-tree edge closes a cycle with identity label product."""
        adj = {v: [] for v in nodes}
        for t, a in enumerate(edges):
            adj[a.i].append((a.j, t, a.g))
            adj[a.j].append((a.i, t, G.inv(a.g)))
        root = min(nodes)
        h = {root: G.identity}
        used = set()
        stack = [root]
        while stack:
            v = stack.pop()
            for w, t, g in adj[v]:
                if w not in h:
                    h[w] = G.mul(h[v], g)
                    used.add(t)
                    stack.append(w)
        for t, a in enumerate(edges):
            if t not in used and h[a.j] != G.mul(h[a.i], a.g):
                return False
        return True


def _forest_like(G, atoms, allow_loops, max_unicyclic):
    """Shared membership test for the group-labeled matroids.

    Every component must be a tree or carry exactly one surplus edge (loops
    count when allowed); surplus components are capped and must close a
    label-nontrivial cycle.  A loop is nontrivial by itself.
    """
    unicyclic = 0
    graph = LabeledDigraph(atoms)
    for nodes, edges, loops in graph.components():
        if loops and not allow_loops:
            return False
        e = len(edges) + loops
        v = len(nodes)
        if e == v - 1:
            continue
        if e != v:
            return False
        unicyclic += 1
        if max_unicyclic is not None and unicyclic > max_unicyclic:
            return False
        if loops == 0 and LabeledDigraph.edge_cycles_trivial(G, nodes, edges):
            return False
    return True


def _group_complex(G, n, atoms, member, labels):
    if len(atoms) > 24:
        raise CapacityError(f"{len(atoms)} atoms exceed the scan capacity")
    gens = set()
    # faces never exceed n atoms: each component spends at most one edge
    # per covered node
    for size in range(1, n + 1):
        for combo in combinations(range(len(atoms)), size):
            if member([atoms[t] for t in combo]):
                gens.add(mask_of(combo))
    return Complex(len(atoms), gens, labels)


def rhodes_reduced(G, n):
    """Faces: atom sets whose components are trees, except at most one that
    closes a single label-nontrivial cycle."""
    if G.order < 2:
        raise DomainError("the group must be nontrivial")
    if n < 2:
        raise DomainError("need n >= 2")
    atoms = [
        SPCAtom.edge(G, i, g, j)
        for i, j in combinations(range(1, n + 1), 2)
        for g in range(G.order)
    ]
    labels = [a.display(G) for a in atoms]
    return _group_complex(
        G, n, atoms, lambda sel: _forest_like(G, sel, False, 1), labels
    )


def dowling(G, n, loop_label=None):
    """Faces: atom sets whose components are trees or unicyclic (loops count
    as cycle edges), every cycle label-nontrivial.

    loop_label picks the non-identity element shown in loop names; it never
    affects the face family.
    """
    if G.order < 2:
        raise DomainError("the group must be nontrivial")
    if n < 2:
        raise DomainError("need n >= 2")
    if loop_label is None:
        loop_label = next(x for x in range(G.order) if x != G.identity)
    elif loop_label == G.identity or not 0 <= loop_label < G.order:
        raise DomainError("loop_label must be a non-identity element index")
    loops = [SPCAtom.loop(i) for i in range(1, n + 1)]
    edges = [
        SPCAtom.edge(G, i, g, j)
        for i, j in combinations(range(1, n + 1), 2)
        for g in range(G.order)
    ]
    atoms = loops + edges
    y = G.name(loop_label)
    labels = [a.display(G, y) for a in atoms]
    return _group_complex(
        G, n, atoms, lambda sel: _forest_like(G, sel, True, None), labels
    )


# K_5 edge order used by the forest complexes below
_K5_EDGES = tuple(combinations(range(1, 6), 2))
_K5_LABELS = tuple(f"{a}{b}" for a, b in _K5_EDGES)


def _k5_triangle(a, b, c):
    return mask_of(_K5_EDGES.index(e) for e in ((a, b), (a, c), (b, c)))


def desargues():
    """Subforests of K_5 with at most 3 edges, on the 10 edges as vertices."""
    full = (1 << 10) - 1
    lines = {
        _k5_triangle(a, b, c) for a, b, c in combinations(range(1, 6), 3)
    }
    gens = set(k_submasks(full, 3)) - lines
    return Complex(10, gens, _K5_LABELS)


def non_desargues():
    """The forest complex with the triangle on {3,4,5} adjoined as a face."""
    D = desargues()
    return Complex(10, set(D.facets) | {_k5_triangle(3, 4, 5)}, _K5_LABELS)


def _uniform(k, n):
    if not 1 <= k <= n:
        raise DomainError("uniform needs 1 <= k <= n")
    return Complex(n, set(k_submasks((1 << n) - 1, k)))


def _jnmk(n, m, k):
    if not n >= m >= k >= 1:
        raise DomainError("jnmk needs n >= m >= k >= 1")
    gens = {mask_of(c) for c in combinations(range(m), k)}
    return Complex(n, gens)


_SIX_LINES = {
    1: ("1234", "12"),
    2: ("1234", "12", "15"),
    3: ("1234", "12", "15", "25"),
    4: ("1234", "12", "35"),
    5: ("1234", "12", "25", "35"),
}


def _six(case):
    if case not in _SIX_LINES:
        raise DomainError("six needs case in 1..5")
    full = (1 << 6) - 1
    gens = set(k_submasks(full, 2))
    for text in _SIX_LINES[case]:
        L = mask_of(int(ch) - 1 for ch in text)
        gens |= {X for X in k_submasks(full, 3) if (X & L).bit_count() == 2}
    return Complex(6, gens)


def _swirl(d):
    """One central block A and d+1 satellite blocks B_i of size d+1 each; the
    non-faces are B_i itself and the (d+1)-sets inside A_i u (B_i minus its
    first point)."""
    if d < 2:
        raise DomainError("swirl needs d >= 2")
    n = (d + 1) * (d + 2)
    if n > 30:
        raise CapacityError("swirl scan needs (d+1)(d+2) <= 30")
    a = list(range(d + 1))
    b = [[d + 1 + i * (d + 1) + j for j in range(d + 1)] for i in range(d + 1)]
    removed = set()
    for i in range(d + 1):
        removed.add(mask_of(b[i]))
        pool = mask_of([x for x in a if x != a[i]] + b[i][1:])
        removed |= set(k_submasks(pool, d + 1))
    full = (1 << n) - 1
    gens = set(k_submasks(full, d)) | (set(k_submasks(full, d + 1)) - removed)
    labels = [f"a{i}" for i in range(d + 1)] + [
        f"b{i}{j}" for i in range(d + 1) for j in range(d + 1)
    ]
    return Complex(n, gens, labels)


def _nfb(n):
    """Three chains of consecutive-triple non-faces, fused at the ends:
    x_0 = y_0 = z_6, x_1 = z_0 = y_6, y_1 = z_1 = x_n."""
    if n < 6:
        raise DomainError("nfb needs n >= 6")
    total = n + 9
    if total > 22:
        raise CapacityError("nfb scan needs n + 9 <= 22")
    x = list(range(n + 1))
    y = [x[0], x[n], n + 1, n + 2, n + 3, n + 4, x[1]]
    z = [x[1], x[n], n + 5, n + 6, n + 7, n + 8, x[0]]
    removed = set()
    for chain, top in ((x, n), (y, 6), (z, 6)):
        for i in range(top - 1):
            removed.add(mask_of(chain[i : i + 3]))
    full = (1 << total) - 1
    gens = set(k_submasks(full, 2)) | (set(k_submasks(full, 3)) - removed)
    labels = (
        [f"x{i}" for i in range(n + 1)]
        + [f"y{i}" for i in range(2, 6)]
        + [f"z{i}" for i in range(2, 6)]
    )
    return Complex(total, gens, labels)


def _cfup():
    return Complex(4, {mask_of((0, 1)), mask_of((2, 3))})


def _exs():
    return Complex(5, {mask_of((0, 1, 2)), mask_of((2, 3, 4))})


def _btbtwo():
    full = (1 << 6) - 1
    fifty_six = mask_of((4, 5))
    gens = set(k_submasks(full, 2))
    gens |= {X for X in k_submasks(full, 3) if (X & fifty_six).bit_count() == 1}
    gens |= {mask_of((0, 1, 2)), mask_of((0, 1, 3))}
    return Complex(6, gens)


def _nonun():
    full = (1 << 5) - 1
    tris = {mask_of(t) for t in ((0, 2, 4), (0, 3, 4), (1, 2, 4), (1, 3, 4))}
    return Complex(5, set(k_submasks(full, 2)) | tris)


def _ncu():
    from .core import union
    from .operators import b_d

    return union(b_d(6, mask_of((0, 1)), 2), b_d(6, mask_of((0, 1, 2, 3)), 2))


def _lhne():
    full = (1 << 10) - 1
    excluded = {mask_of(t) for t in ((1, 2, 3), (3, 4, 5), (7, 8, 9), (8, 9, 0))}
    excluded |= {mask_of((5, 6, p)) for p in range(10) if p not in (5, 6)}
    gens = (set(k_submasks(full, 3)) - excluded) | set(k_submasks(full, 2))
    return Complex(10, gens, labels=tuple(range(10)))


def _far():
    return Complex(4, {mask_of((0, 1, 2))} | set(k_submasks((1 << 4) - 1, 2)))


def _triang():
    full = (1 << 6) - 1
    removed = {mask_of(t) for t in ((0, 1, 3), (0, 2, 4), (1, 2, 5))}
    return Complex(6, set(k_submasks(full, 2)) | (set(k_submasks(full, 3)) - removed))


def _sme():
    full = (1 << 6) - 1
    removed = {mask_of((3, 4, 5))}
    return Complex(6, set(k_submasks(full, 2)) | (set(k_submasks(full, 3)) - removed))


def _boom():
    full = (1 << 6) - 1
    runs = [mask_of((i, i + 1, i + 2)) for i in range(4)]
    tops = {X for X in k_submasks(full, 4) if any(X & r == r for r in runs)}
    return Complex(6, set(k_submasks(full, 3)) | tops)


def _tracks():
    full = (1 << 7) - 1
    edges = [mask_of((0, 1)), mask_of((1, 2)), mask_of((3, 4)), mask_of((4, 5)), mask_of((5, 6))]
    tops = {X for X in k_submasks(full, 3) if any(X & e == e for e in edges)}
    return Complex(7, set(k_submasks(full, 2)) | tops)


# index layout for the nine points i, i', i'': i -> i-1, i' -> i+2, i'' -> i+5
def _cepc():
    def idx(i, primes):
        return i - 1 + 3 * primes

    nxt = {1: 2, 2: 3, 3: 1}
    removed = set()
    tops = set()
    for i in (1, 2, 3):
        s = nxt[i]
        removed.add(mask_of((idx(i, 0), idx(s, 0), idx(s, 1))))
        removed.add(mask_of((idx(i, 2), idx(s, 0), idx(s, 1))))
        for base in (
            (idx(i, 0), idx(i, 2), idx(s, 0)),
            (idx(i, 0), idx(i, 2), idx(s, 1)),
        ):
            off = mask_of((idx(i, 0), idx(i, 2), idx(s, 0), idx(s, 1)))
            for p in range(9):
                if not off >> p & 1:
                    tops.add(mask_of(base) | 1 << p)
    full = (1 << 9) - 1
    gens = (set(k_submasks(full, 3)) - removed) | tops
    labels = ["1", "2", "3", "1'", "2'", "3'", "1''", "2''", "3''"]
    return Complex(9, gens, labels)


def _cepct():
    members = {
        0,
        mask_of((0,)),
        mask_of((2,)),
        mask_of((0, 6)),
        mask_of((0, 6, 7)),
        mask_of((2, 3)),
        mask_of((0, 1, 2, 3, 4)),
        (1 << 8) - 1,
    }
    return j_complex(MooreFamily(8, members))


def _bfour():
    """All 15 distinct nonzero 0/1 columns of height 4; labels read the column
    top row first."""
    strings = [f"{v:04b}" for v in range(1, 16)]
    rows = [mask_of(c for c, s in enumerate(strings) if s[r] == "1") for r in range(4)]
    return complex_of_matrix(BooleanMatrix(15, rows), labels=strings)


_REGISTRY = {
    "uniform": (_uniform, "k, n with 1 <= k <= n"),
    "jnmk": (_jnmk, "n, m, k with n >= m >= k >= 1"),
    "jijn": (jijn, "i, j, n with 2 <= i < j < n"),
    "six": (_six, "case in 1..5"),
    "swirl": (_swirl, "d >= 2"),
    "nfb": (_nfb, "n >= 6"),
    "desargues": (desargues, ""),
    "non_desargues": (non_desargues, ""),
    "rhodes": (lambda m, n: rhodes_reduced(GroupTable.cyclic(m), n), "m >= 2, n >= 2"),
    "dowling": (lambda m, n: dowling(GroupTable.cyclic(m), n), "m >= 2, n >= 2"),
    "cfup": (_cfup, ""),
    "exs": (_exs, ""),
    "btbtwo": (_btbtwo, ""),
    "nonun": (_nonun, ""),
    "ncu": (_ncu, ""),
    "lhne": (_lhne, ""),
    "far": (_far, ""),
    "triang": (_triang, ""),
    "sme": (_sme, ""),
    "boom": (_boom, ""),
    "tracks": (_tracks, ""),
    "cepc": (_cepc, ""),
    "cepct": (_cepct, ""),
    "bfour": (_bfour, ""),
}


def catalog_names():
    """Sorted (name, parameter description) pairs for every registered entry."""
    return [(name, _REGISTRY[name][1]) for name in sorted(_REGISTRY)]


def named(name, **params):
    """Build a registered complex by name; unknown names list the registry."""
    if name not in _REGISTRY:
        listing = ", ".join(sorted(_REGISTRY))
        raise DomainError(f"unknown catalog name {name!r}; available: {listing}")
    builder, doc = _REGISTRY[name]
    try:
        return builder(**params)
    except TypeError:
        want = doc if doc else "no parameters"
        raise DomainError(f"bad parameters for {name!r}; expected: {want}") from None
