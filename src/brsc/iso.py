"""Canonical forms, isomorphism, embeddings, and orbit enumeration.

The canonical form of a complex is the lexicographically smallest sorted
tuple of facet masks over all relabelings of its vertices; `canonical_key`
reads it off a table on few vertices and searches for it on more.
Isomorphism classes of whole families (graphs, paving complexes) come from
orbit tables over face patterns instead.
"""

from functools import lru_cache
from itertools import combinations, permutations
from operator import le

from .core import CapacityError, Complex, DomainError, _labels, bits, mask_of


def _twin_classes(n, through):
    """rep[v] = smallest w such that the transposition (v w) maps facets to facets.

    Being swappable is an equivalence relation: (u w) = (u v)(v w)(u v) is a
    composite of automorphisms whenever (u v) and (v w) are automorphisms.
    The swap fixes facets holding both or neither of v, w, so it maps facets
    to facets exactly when the facets through v alone, with v traded for w,
    are the facets through w alone.
    """
    rep = list(range(n))
    for v in range(n):
        if rep[v] != v:
            continue
        bv = 1 << v
        for w in range(v + 1, n):
            if rep[w] != w:
                continue
            bw = 1 << w
            pair = bv | bw
            alone_v = {f ^ pair for f in through[v] if not f & bw}
            if alone_v == {f for f in through[w] if not f & bv}:
                rep[w] = v
    return rep


# canonical_key scores every relabeling at or below this many vertices and
# searches above it; 2^6 masks is as many as one uint64 sum has bits
TABLE_MAX_N = 6


def canonical_key(C):
    """Lex-min sorted facet tuple over all vertex relabelings.

    On at most TABLE_MAX_N = 6 vertices the key is read off all n!
    relabelings at once (`_table_key`); on 7 to 10 vertices a search finds it
    (`_search_key`).  Both give the same tuple.  The table stops at 6
    vertices because its sums need one bit per mask, and a uint64 holds the
    2^6 masks of 6 vertices but not the 2^7 of 7.  Up to there the table
    wins: on 300 random complexes per n it took 5 and 7 us a key at n = 5
    and 6, against the search's 33 and 69 us (and 200 us at n = 7).
    """
    if C.n > 10:
        raise CapacityError(f"canonical form search not supported for n={C.n}")
    if C.n <= TABLE_MAX_N:
        return _table_key(C)
    return _search_key(C)


@lru_cache(maxsize=TABLE_MAX_N)
def _perm_weights(n):
    """w[p, m] = 2^(2^n - 1 - i), i the image of mask m under the p-th
    permutation of 0..n-1, as a read-only uint64 array of shape (n!, 2^n)."""
    import numpy as np

    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    bit = masks[:, None] >> np.arange(n) & 1
    img = (bit @ (1 << perms).T).T
    w = np.left_shift(np.uint64(1), ((1 << n) - 1 - img).astype(np.uint64))
    w.flags.writeable = False
    return w


def _table_key(C):
    """The canonical key on at most TABLE_MAX_N vertices, from the largest
    sum of facet weights over the relabelings.

    A relabeling's facet images are distinct masks, so the sum of their
    weights (`_perm_weights`) sets one bit per image, with no carry.  Two
    sorted facet tuples of equal length first differ at the smallest mask i
    in their symmetric difference, and the tuple holding i is the smaller.
    Bit 2^n - 1 - i is the highest bit where their sums differ, so the
    lex-min tuple has the largest sum, and the set bits of that sum, read
    from the top, are its masks in increasing order.
    """
    top = (1 << C.n) - 1
    best = int(_perm_weights(C.n)[:, list(C.facets)].sum(axis=1).max())
    key = []
    while best:
        b = best.bit_length() - 1
        key.append(top - b)
        best ^= 1 << b
    return tuple(key)


def _search_key(C):
    """The canonical key by search, on any number of vertices.

    The search hands out new labels 0, 1, 2, ... one at a time.  A facet whose
    highest new label is d has a mask in [2^d, 2^(d+1)), so every key is the
    concatenation of one sorted segment per label: segment d holds the facets
    through the vertex labelled d that lie inside the vertices labelled 0..d.
    Segment d depends only on the vertices labelled 0..d, and a node that
    gives label d to vertex v computes just that segment from v's facets.

    Two keys that agree through segment d-1 are ordered by segment d with +inf
    appended.  Where the two segments differ at a position both have, that
    position decides.  Where one is a proper prefix of the other, both keys
    hold the same number of facets, so the key with the shorter segment has a
    facet still to come there, with a mask >= 2^(d+1) above every mask of
    segment d: the longer segment gives the smaller key, as the appended +inf
    says.  Hence at every node only the candidates with the smallest padded
    segment can lead to the minimum, and all of those tied candidates are
    explored.  A node whose path so far equals the best key's and whose
    padded segment exceeds the best key's at the same depth is cut: every
    completion is larger.

    Vertices v, w are twins when the transposition (v w) maps facets to
    facets.  At a node both unplaced, the swap fixes every placed vertex and
    carries each labelling that gives w the next label to one giving v that
    label with the same sorted facet tuple, so only the first unplaced member
    of each twin class is tried.
    """
    n = C.n
    verts = {f: tuple(bits(f)) for f in C.facets}
    through = [[f for f in verts if f >> v & 1] for v in range(n)]
    rep = _twin_classes(n, through)
    best = _canonical_from((n, verts, through, rep, [0] * n, [None] * n), 0, 0, False, None)
    return tuple(m for seg in best for m in seg[:-1])


def _canonical_from(ctx, d, placed, tight, best):
    """The canonical search below a node that has handed out labels 0..d-1
    to the vertices of placed; returns the best key found so far, as a list
    of padded segments.  ctx holds the tables of `_search_key` and the
    label and path arrays shared along the search.  tight: path[:d] equals
    best[:d]; otherwise path[:d] is smaller."""
    n, verts, through, rep, label, path = ctx
    if d == n:
        return best if tight else path[:]
    inf = 1 << n
    tried = set()
    low = None
    ties = []
    for v in range(n):
        if placed >> v & 1 or rep[v] in tried:
            continue
        tried.add(rep[v])
        inside = placed | 1 << v
        label[v] = d
        seg = []
        for f in through[v]:
            if not f & ~inside:
                m = 0
                for u in verts[f]:
                    m |= 1 << label[u]
                seg.append(m)
        seg.sort()
        seg.append(inf)
        seg = tuple(seg)
        if low is None or seg < low:
            low = seg
            ties = [v]
        elif seg == low:
            ties.append(v)
    if tight:
        if low > best[d]:
            return best
        tight = low == best[d]
    path[d] = low
    before = best
    for v in ties:
        # a best key found below this node shares path[:d + 1]
        if best is not before:
            tight = True
        label[v] = d
        best = _canonical_from(ctx, d + 1, placed | 1 << v, tight, best)
    return best


@lru_cache(maxsize=8192)
def _canonical_key_cached(C):
    return canonical_key(C)


def canonical_complex(C):
    """A relabeled copy realizing the canonical key, with default labels."""
    return Complex._of_antichain(C.n, _canonical_key_cached(C), _labels(C.n))


def are_isomorphic(C, D):
    if C.n != D.n:
        return False
    if sorted(f.bit_count() for f in C.facets) != sorted(f.bit_count() for f in D.facets):
        return False
    if len(C.faces) != len(D.faces):
        return False
    return _canonical_key_cached(C) == _canonical_key_cached(D)


def embeds(C, D):
    """Is there a bijection of vertices sending every face of C to a face of D?

    The comparison needs equally many vertices on both sides; a smaller
    complex is compared after padding with isolated vertices.  Facets
    suffice.  Returns a tuple (image of vertex 0, 1, ...) or None.
    """
    if C.n != D.n:
        raise DomainError("embedding compares complexes on equally many vertices")
    # facets grouped by their highest vertex: the node that places vertex v
    # tests only the facets it completes, larger ones first
    top = [[] for _ in range(C.n)]
    for f in sorted(C.facets, key=lambda f: -f.bit_count()):
        top[f.bit_length() - 1].append(f)
    # an embedding maps the k-faces through v one to one onto k-faces through
    # the image of v, so w is tried for v only when, for every size k, C has
    # at most as many k-faces through v as D has through w
    try:
        have, room = _face_profile(C), _face_profile(D)
    except CapacityError:
        # past SET_LIMIT faces no profile is listed and every image stays allowed
        have = room = [()] * C.n
    allowed = [[w for w in range(D.n) if all(map(le, have[v], room[w]))] for v in range(C.n)]
    return _embedding_from(top, allowed, D, [], 0)


def _face_profile(C):
    """count[v][k] = the number of faces of C with k vertices through v."""
    count = [[0] * (C.n + 1) for _ in range(C.n)]
    for f in C.faces:
        k = f.bit_count()
        for v in bits(f):
            count[v][k] += 1
    return count


def _embedding_from(top, allowed, D, partial, used):
    """Extend the vertex images in partial, D's vertices in used, to an
    embedding; top[v] lists the facets whose highest vertex is v, and
    allowed[v] the images v may take, in index order."""
    v = len(partial)
    if v == len(top):
        return tuple(partial)
    for w in allowed[v]:
        if used >> w & 1:
            continue
        partial.append(w)
        if all(D.has(mask_of(partial[u] for u in bits(f))) for f in top[v]):
            got = _embedding_from(top, allowed, D, partial, used | (1 << w))
            if got is not None:
                return got
        partial.pop()
    return None


@lru_cache(maxsize=32)
def orbit_min_table(n, k):
    """For every subset of the k-subsets of an n-set, the lex-min relabeling.

    Returns (combs, canon) where combs lists the k-subsets in index order and
    canon is a read-only numpy array: canon[m] = smallest mask in the
    S_n-orbit of m.

    S_n is generated by the transposition (0 1) and the n-cycle, so instead
    of applying all n! relabelings the table propagates minima along those
    two generators: starting from canon[m] = m, each round sets
    canon = min(canon, canon[g]) for both generator images g and then jumps
    pointers, canon = canon[canon], until a round changes nothing.  Every
    step keeps canon[m] inside the orbit of m and never increases it.  At the
    fixed point canon[m] <= canon[g(m)] for both generators, and following
    the cycle of g through m returns to m, so canon is constant on the cycles
    of each generator and hence on the orbits of S_n.  Being <= m and an
    orbit element, that constant is the orbit minimum.
    """
    import numpy as np

    combs = list(combinations(range(n), k))
    B = len(combs)
    if B > 21:
        raise CapacityError(f"orbit table over 2^{B} patterns is out of range")
    idx = {c: t for t, c in enumerate(combs)}
    size = 1 << B
    lo = B // 2
    hi = B - lo
    lut_lo = np.zeros(1 << lo, dtype=np.uint32)
    lut_hi = np.zeros(1 << hi, dtype=np.uint32)
    # the transposition (0 1) and the n-cycle; for n = 2 they coincide
    generators = {(1, 0, *range(2, n)), (*range(1, n), 0)} if n >= 2 else set()
    images = []
    for perm in generators:
        new_index = [idx[tuple(sorted(perm[v] for v in c))] for c in combs]
        for t in range(lo):
            half = 1 << t
            lut_lo[half : 2 * half] = lut_lo[:half] | np.uint32(1 << new_index[t])
        for t in range(hi):
            half = 1 << t
            lut_hi[half : 2 * half] = lut_hi[:half] | np.uint32(1 << new_index[lo + t])
        # mask m = (h << lo) | l sits at row h, column l of the outer table
        images.append(np.bitwise_or.outer(lut_hi, lut_lo).ravel())
    canon = np.arange(size, dtype=np.uint32)
    scratch = np.empty_like(canon)
    total = int(canon.sum(dtype=np.uint64))
    while images:
        for img in images:
            np.take(canon, img, out=scratch, mode="clip")
            np.minimum(canon, scratch, out=canon)
        np.take(canon, canon, out=scratch, mode="clip")
        canon, scratch = scratch, canon
        now = int(canon.sum(dtype=np.uint64))
        if now == total:
            break
        total = now
    canon.flags.writeable = False
    return combs, canon


def orbit_reps(n, k):
    """Masks (over k-subset indices) that are minimal in their S_n-orbit."""
    import numpy as np

    combs, canon = orbit_min_table(n, k)
    size = canon.shape[0]
    reps = np.nonzero(canon == np.arange(size, dtype=np.uint32))[0]
    return combs, [int(r) for r in reps]


def graphs_up_to_iso(n):
    """Edge sets of all graphs on n vertices, one per isomorphism class."""
    combs, reps = orbit_reps(n, 2)
    out = []
    for r in reps:
        edges = [mask_of(combs[t]) for t in range(len(combs)) if r >> t & 1]
        out.append(edges)
    return out


def paving_complexes(n, d):
    """One complex P_{<=d} + top-face subset per isomorphism class on n vertices.

    Relabelings act on the C(n,d+1)-bit top-face patterns directly, so orbit
    minima enumerate the classes without per-complex canonicalization.  The
    empty pattern (dimension d-1) is included; callers filter by dimension.
    The facets of a pattern are its (d+1)-sets and the d-sets under none of
    them, so no complex is reduced.
    """
    from math import comb

    if not 1 <= d <= n:
        raise DomainError("paving complexes need 1 <= d <= n")
    if comb(n, d + 1) > 21:
        raise CapacityError("paving scan needs C(n, d+1) <= 21")
    combs, reps = orbit_reps(n, d + 1)
    masks = [mask_of(c) for c in combs]
    ridges = list(map(mask_of, combinations(range(n), d)))
    # under[t]: the ridges (by index) inside the t-th (d+1)-set
    index = {r: i for i, r in enumerate(ridges)}
    under = [sum(1 << index[m ^ 1 << v] for v in bits(m)) for m in masks]
    every = (1 << len(ridges)) - 1
    labels = _labels(n)
    for pattern in reps:
        facets = []
        covered = 0
        for t in bits(pattern):
            facets.append(masks[t])
            covered |= under[t]
        facets += [ridges[i] for i in bits(every & ~covered)]
        yield Complex._of_antichain(n, facets, labels)


def all_complexes(n):
    """Every simplicial complex on vertex set 0..n-1, exactly once.

    Walks sizes upward; at each size any subset of the masks whose boundary
    lies in the previous level can join. The facets are carried down the
    walk, so no complex is reduced.
    """
    if n < 1:
        raise DomainError("vertex set must be nonempty")
    if n > 5:
        raise CapacityError("full complex enumeration supported for n <= 5")
    prev = [1 << v for v in range(n)]
    yield from _complexes_from(n, 2, prev, frozenset(), _labels(n))


def _complexes_from(n, k, chosen_prev, below, labels):
    """Every complex whose faces of size k - 1 are chosen_prev, listed in
    the order of combinations(range(n), k - 1), and whose facets of size
    < k - 1 are below.

    A k-set is eligible when all its (k-1)-subsets are chosen (the Apriori
    rule), so it is grown once from a chosen (k-1)-set Y plus a point above
    Y's highest, and kept when its other (k-1)-subsets are chosen too. The
    sets Y in combinations order, each with its points in increasing order,
    list the eligible k-sets in combinations order as well."""
    if k > n:
        yield Complex._of_antichain(n, below.union(chosen_prev), labels)
        return
    chosen = set(chosen_prev)
    elig = []
    for Y in chosen_prev:
        for p in range(Y.bit_length(), n):
            m = Y | 1 << p
            if all(m ^ 1 << v in chosen for v in bits(Y)):
                elig.append(m)
    # the (k-1)-sets under each eligible k-set
    under = [{m ^ (1 << v) for v in bits(m)} for m in elig]
    for pick in range(1 << len(elig)):
        sel = []
        covered = set()
        for t in bits(pick):
            sel.append(elig[t])
            covered |= under[t]
        yield from _complexes_from(n, k + 1, sel, below | (chosen - covered), labels)
