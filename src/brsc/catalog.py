"""Named complexes: parametric families, the group-labeled graph matroids,
and the one-off fixtures exercised throughout the test suite.

Every generator is pure and deterministic; vertex labels follow the source
naming so reports stay readable. The Rhodes-reduced and Dowling complexes are
built over the cyclic group Z_m by the lattice level walk (`_grow`). Every
parametric family counts its vertices, and its facets or faces where they
can pass core.SET_LIMIT, and refuses before it lists any set.
"""

from functools import partial
from itertools import combinations
from math import comb

from . import core
from .core import (
    CapacityError,
    Complex,
    DomainError,
    SetFamily,
    bits,
    k_submasks,
    mask_of,
    union,
)
from .lattice import MooreFamily, _level_walk, j_complex
from .operators import b_d
from .t_operator import jijn


def _grow(atoms, m, most_cyclic, Y, level):
    """The atoms p above the highest of Y, as a mask, with Y + p a face of a
    group-labeled graph matroid over Z_m, for the level walk.

    A face is a set of atoms (i, j, g) each of whose components is a tree, or
    a tree plus one edge or loop that breaks the potentials, with at most
    most_cyclic components of the second kind. One DFS over the face Y gives
    each node its component, its potential h mod m (the edge (i, j, g) asks
    for h[j] = h[i] + g) and whether its component has a cycle. A loop then
    needs a tree and a cycle to spare; an edge between two components needs
    one of them to be a tree; an edge inside a component needs a tree, a
    cycle to spare and h[j] != h[i] + g, a nonzero label sum around the
    cycle it closes."""
    adj = {}
    for t in bits(Y):
        i, j, g = atoms[t]
        adj.setdefault(i, []).append((j, g))
        adj.setdefault(j, []).append((i, None if g is None else -g))
    comp = {}
    h = {}
    cyclic = set()
    for root in adj:
        if root in comp:
            continue
        comp[root] = root
        h[root] = 0
        stack = [root]
        nodes = ends = 0
        while stack:
            v = stack.pop()
            nodes += 1
            for w, g in adj[v]:
                ends += 1
                if w not in comp:
                    comp[w] = root
                    h[w] = (h[v] + g) % m
                    stack.append(w)
        # each edge and each loop leaves two ends
        if ends // 2 == nodes:
            cyclic.add(root)
    spare = len(cyclic) < most_cyclic
    out = 0
    for p in range(Y.bit_length(), len(atoms)):
        i, j, g = atoms[p]
        a = comp.get(i, i)
        b = comp.get(j, j)
        if g is None:
            ok = spare and a not in cyclic
        elif a != b:
            ok = a not in cyclic or b not in cyclic
        else:
            ok = spare and a not in cyclic and h[j] != (h[i] + g) % m
        if ok:
            out |= 1 << p
    return out


def _gain_graph(m, n, loops, most_cyclic):
    """The group-labeled graph complex over Z_m on nodes 1..n.

    The atoms are the loops (i, i, None), when asked for, then the edges
    (i, j, g) for i < j and g in Z_m; the identity shows as "1", any other g
    as "g" for m = 2 and "g<g>" otherwise, and a loop shows the element 1.
    The rank is n, so no face holds more than n atoms: the atoms and the sets
    of at most n of them are counted, and refused past 64 atoms or
    core.SET_LIMIT sets, before any atom is built."""
    if m < 2:
        raise DomainError("the group must be nontrivial")
    if n < 2:
        raise DomainError("need n >= 2")
    count = m * comb(n, 2) + (n if loops else 0)
    core.check_capacity(count)
    bound = sum(comb(count, k) for k in range(n + 1))
    if bound > core.SET_LIMIT:
        raise CapacityError(f"{count} atoms allow {bound} faces of at most {n} atoms, more than {core.SET_LIMIT}")
    nodes = range(1, n + 1)
    atoms = [(i, i, None) for i in nodes] if loops else []
    atoms += [(i, j, g) for i, j in combinations(nodes, 2) for g in range(m)]
    names = ["1"] + ["g" if m == 2 else f"g{g}" for g in range(1, m)]
    labels = [f"({i},{names[1 if g is None else g]},{j})" for i, j, g in atoms]
    # every atom alone is a face, so the walk's maximal sets are the facets
    walk = _level_walk([0], partial(_grow, atoms, m, most_cyclic), "group complex")
    return Complex._of_antichain(count, walk, core._labels(count, labels))


def rhodes_reduced(m, n):
    """Faces over Z_m: atom sets whose components are trees, except at most
    one that closes a single label-nontrivial cycle."""
    return _gain_graph(m, n, False, 1)


def dowling(m, n):
    """Faces over Z_m: atom sets whose components are trees or unicyclic
    (loops count as cycle edges), every cycle label-nontrivial."""
    return _gain_graph(m, n, True, n)


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
    core.check_capacity(n)
    if comb(n, k) > core.SET_LIMIT:
        raise CapacityError(f"uniform complex with more than {core.SET_LIMIT} facets is out of range")
    return Complex(n, set(k_submasks((1 << n) - 1, k)))


def _jnmk(n, m, k):
    if not n >= m >= k >= 1:
        raise DomainError("jnmk needs n >= m >= k >= 1")
    core.check_capacity(n)
    if comb(m, k) > core.SET_LIMIT:
        raise CapacityError(f"jnmk complex with more than {core.SET_LIMIT} facets is out of range")
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
    first point). Its C(n, d) + C(n, d+1) generating sets are counted
    against SET_LIMIT before any is listed."""
    if d < 2:
        raise DomainError("swirl needs d >= 2")
    n = (d + 1) * (d + 2)
    core.check_capacity(n)
    if comb(n, d) + comb(n, d + 1) > core.SET_LIMIT:
        raise CapacityError(f"swirl with more than {core.SET_LIMIT} generating sets is out of range")
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
    core.check_capacity(total)
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
    zeros = [mask_of(c for c, s in enumerate(strings) if s[r] == "0") for r in range(4)]
    return j_complex(SetFamily(15, zeros), labels=strings)


_REGISTRY = {
    "uniform": (_uniform, "k, n with 1 <= k <= n"),
    "jnmk": (_jnmk, "n, m, k with n >= m >= k >= 1"),
    "jijn": (jijn, "i, j, n with 2 <= i < j < n"),
    "six": (_six, "case in 1..5"),
    "swirl": (_swirl, "d >= 2"),
    "nfb": (_nfb, "n >= 6"),
    "desargues": (desargues, ""),
    "non_desargues": (non_desargues, ""),
    "rhodes": (rhodes_reduced, "m >= 2, n >= 2"),
    "dowling": (dowling, "m >= 2, n >= 2"),
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
