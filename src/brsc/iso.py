"""Canonical forms, isomorphism, embeddings, and orbit enumeration.

Canonical form of a complex: the lexicographically smallest sorted tuple of
facet masks over all relabelings of the vertices. The search assigns new
labels 0,1,2,... one at a time; since facets inside the assigned prefix get
smaller masks than anything touching later labels, the partial facet list is
a true prefix of the final key and prunes against the best key found so far.
"""

from functools import lru_cache
from itertools import combinations

from .core import CapacityError, Complex, DomainError, bits, mask_of


def _facet_key(n, facets, perm):
    """Sorted facet masks after relabeling vertex v to perm[v]."""
    out = []
    for f in facets:
        m = 0
        for v in bits(f):
            m |= 1 << perm[v]
        out.append(m)
    out.sort()
    return tuple(out)


def canonical_key(C):
    """Lex-min sorted facet tuple over all vertex relabelings."""
    if C.n > 10:
        raise CapacityError(f"canonical form search not supported for n={C.n}")
    n = C.n
    facets = sorted(C.facets)
    ident = _facet_key(n, facets, list(range(n)))
    best = [ident]

    def prefix_of(assignment_list):
        # assignment_list[i] = old vertex given new label i
        pos = {old: i for i, old in enumerate(assignment_list)}
        placed = 0
        for old in assignment_list:
            placed |= 1 << old
        out = []
        for f in facets:
            if f & ~placed == 0:
                m = 0
                for v in bits(f):
                    m |= 1 << pos[v]
                out.append(m)
        out.sort()
        return tuple(out)

    def rec(assignment, placed):
        depth = len(assignment)
        pref = prefix_of(assignment)
        cut = best[0][: len(pref)]
        if pref > cut:
            return
        if depth == n:
            if pref < best[0]:
                best[0] = pref
            return
        for old in range(n):
            if placed >> old & 1:
                continue
            rec(assignment + [old], placed | (1 << old))

    rec([], 0)
    return best[0]


@lru_cache(maxsize=8192)
def _canonical_key_cached(C):
    return canonical_key(C)


def canonical_complex(C):
    """A relabeled copy realizing the canonical key, with default labels."""
    return Complex(C.n, _canonical_key_cached(C))


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
    facets = sorted(C.facets, key=lambda f: -f.bit_count())

    def rec(partial, used):
        v = len(partial)
        if v == C.n:
            return tuple(partial)
        for w in range(D.n):
            if used >> w & 1:
                continue
            partial.append(w)
            ok = True
            placed = mask_of(range(v + 1))
            for f in facets:
                if f & ~placed == 0:
                    img = mask_of(partial[u] for u in bits(f))
                    if not D.has(img):
                        ok = False
                        break
            if ok:
                got = rec(partial, used | (1 << w))
                if got is not None:
                    return got
            partial.pop()
        return None

    return rec([], 0)


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
    """
    from math import comb

    if comb(n, d + 1) > 21:
        raise CapacityError("paving scan needs C(n, d+1) <= 21")
    combs, reps = orbit_reps(n, d + 1)
    masks = [mask_of(c) for c in combs]
    base = set()
    for k in range(2, d + 1):
        base.update(mask_of(c) for c in combinations(range(n), k))
    for pattern in reps:
        keep = {masks[t] for t in range(len(masks)) if pattern >> t & 1}
        yield Complex(n, base | keep)


def all_complexes(n):
    """Every simplicial complex on vertex set 0..n-1, exactly once.

    Walks sizes upward; at each size any subset of the masks whose boundary
    lies in the previous level can join.
    """
    if n > 5:
        raise CapacityError("full complex enumeration supported for n <= 5")
    full = (1 << n) - 1

    def level_masks(k):
        return [mask_of(c) for c in combinations(range(n), k)]

    def rec(k, chosen_prev, acc):
        if k > n:
            yield Complex(n, acc)
            return
        elig = [
            m
            for m in level_masks(k)
            if all((m ^ (1 << v)) in chosen_prev for v in bits(m))
        ]
        for pick in range(1 << len(elig)):
            sel = {elig[t] for t in range(len(elig)) if pick >> t & 1}
            yield from rec(k + 1, sel, acc | sel)

    prev = {1 << v for v in range(n)}
    yield from rec(2, prev, set(prev))
