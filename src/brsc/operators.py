"""Up operator, one-point constructions, and graph-derived complexes."""

from math import comb

from . import core
from .core import (
    Complex,
    DomainError,
    SetFamily,
    bits,
    k_submasks,
    paving_dimension,
)
from .lattice import MooreFamily, _extension_constraints, _require_representable, flats, j_complex


def up(C):
    """Faces I union {p} over all faces I and points p (plus H itself).

    Generated by the facets f and the sets f + p for p outside f: those are
    counted, and refused past core.SET_LIMIT, before any is listed."""
    core.check_count(sum(C.n + 1 - f.bit_count() for f in C.facets), "up", "generating sets")
    gens = set(C.facets)
    for f in C.facets:
        for p in range(C.n):
            gens.add(f | (1 << p))
    return Complex(C.n, gens, C.labels)


def up_iter(C, m):
    """up applied m times."""
    if m < 0:
        raise DomainError("m must be >= 0")
    for _ in range(m):
        C = up(C)
    return C


def up_iter_paving(C, m):
    """Iterated up of a paving complex in one step.

    Keeps everything of size <= d+m, plus the (d+m+1)-sets containing at
    least one (d+1)-face of H. The C(n, d+m) sets of the first kind and the
    C(n, d+m+1) candidates for the second are counted together, and refused
    past core.SET_LIMIT, before either is listed.
    """
    d = paving_dimension(C, "closed form for iterated up")
    if m < 0:
        raise DomainError("m must be >= 0")
    full = C.full_mask
    k = d + m + 1
    core.check_count(comb(C.n, min(k - 1, C.n)) + comb(C.n, k), "iterated up", "generating sets")
    top = [f for f in C.faces if f.bit_count() == d + 1]
    gens = set(k_submasks(full, min(k - 1, C.n)))
    if k <= C.n:
        for X in k_submasks(full, k):
            if any(t & ~X == 0 for t in top):
                gens.add(X)
    return Complex(C.n, gens, C.labels)


def _fresh_label(C):
    """The new point's label: one past the largest when every label is an
    int, else the first of "p<n>", "p<n+1>", ... that C does not use."""
    ints = [l for l in C.labels if isinstance(l, int)]
    if len(ints) == C.n:
        return max(ints) + 1
    k = C.n
    while f"p{k}" in C.labels:
        k += 1
    return f"p{k}"


def plus_point(C):
    """Add an isolated point: faces unchanged. Taking up and contracting the
    point gives C back; `brsc reproduce up` and the tests check that."""
    return Complex(C.n + 1, C.facets, C.labels + (_fresh_label(C),))


def oplus_point(C):
    """Cone: every face may pick up the new point. Its flats are C's, with
    and without the point; `brsc reproduce up` and the tests check that."""
    p = 1 << C.n
    gens = {f | p for f in C.facets}
    return Complex(C.n + 1, gens, C.labels + (_fresh_label(C),))


def family_boxplus(fam):
    """Replace V by V plus the new point, and adjoin the singleton new point."""
    full = (1 << fam.n) - 1
    p = 1 << fam.n
    members = {m for m in fam.members if m != full}
    members.add(full | p)
    members.add(p)
    return MooreFamily(fam.n + 1, members, validate=False)


def boxplus_point(C):
    """Transversal complex of the flats with V inflated by a new point.

    Its faces are the old faces, the new point alone or with one old vertex,
    and I plus the new point whenever the closure of I is proper; `brsc
    reproduce up` and the tests compare the two descriptions.
    """
    _require_representable(C, "boxplus_point")
    return j_complex(family_boxplus(flats(C)), C.labels + (_fresh_label(C),))


def b_d(n, L, d):
    """Everything of size <= d, plus the (d+1)-sets meeting L in d points.

    Those (d+1)-sets are a d-subset of L plus one point outside it, so the
    C(n, d) + C(|L|, d) * (n - |L|) generating sets are counted, and refused
    past core.SET_LIMIT, before any is listed."""
    core.check_capacity(n)
    full = (1 << n) - 1
    if L & ~full:
        raise DomainError("L uses vertices outside 0..n-1")
    if not 2 <= d <= L.bit_count() or L == full:
        raise DomainError("b_d requires 2 <= d <= |L| < |V|")
    outside = full & ~L
    core.check_count(comb(n, d) + comb(L.bit_count(), d) * outside.bit_count(), "b_d family", "sets")
    gens = set(k_submasks(full, d))
    for I in k_submasks(L, d):
        gens.update(I | 1 << p for p in bits(outside))
    return Complex(n, gens)


def graph_complex(n, edges, labels=None):
    """A graph as a dim <= 1 complex: singletons plus the given edges."""
    for e in edges:
        if e.bit_count() != 2:
            raise DomainError("edges must be 2-element masks")
    return Complex(n, set(edges), labels)


def is_graphic_boolean(C):
    """Whether H is the up of a graph; returns (ok, edge family).

    The only candidate edge set is the pairs all of whose one-point
    extensions are faces. The up of a graph is recognised, with an edge set
    whose up is the same complex; `brsc reproduce up` and the tests check
    that.
    """
    constrained = {X for X, _ in _extension_constraints(C, 3)}
    edges = {e for e in C.faces_of_size(2) if e not in constrained}
    G = graph_complex(C.n, edges, C.labels)
    ok = up(G) == C
    return ok, (SetFamily(C.n, edges) if ok else None)
