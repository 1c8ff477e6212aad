"""Up operator, one-point constructions, and graph-derived complexes."""

from math import comb

from . import core
from .core import (
    CapacityError,
    Complex,
    DomainError,
    SetFamily,
    bits,
    is_paving,
    k_submasks,
)
from .lattice import MooreFamily, _extension_map, flats, is_boolean_representable, j_complex


def up(C):
    """Faces I union {p} over all faces I and points p (plus H itself)."""
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
    least one (d+1)-face of H.
    """
    d = is_paving(C)
    if d is None:
        raise DomainError("closed form for iterated up requires a paving complex")
    if m < 0:
        raise DomainError("m must be >= 0")
    full = C.full_mask
    top = [f for f in C.faces if f.bit_count() == d + 1]
    k = d + m + 1
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
    label = _fresh_label(C)
    ok, _ = is_boolean_representable(C)
    if not ok:
        raise DomainError("boxplus_point requires a boolean representable complex")
    return j_complex(family_boxplus(flats(C)), C.labels + (label,))


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
    if comb(n, d) + comb(L.bit_count(), d) * outside.bit_count() > core.SET_LIMIT:
        raise CapacityError(f"b_d family with more than {core.SET_LIMIT} sets is out of range")
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
    full = C.full_mask
    edges = {e for e, g in _extension_map(C, 3).items() if e.bit_count() == 2 and g == full & ~e}
    G = graph_complex(C.n, edges, C.labels)
    ok = up(G) == C
    return ok, (SetFamily(C.n, edges) if ok else None)
