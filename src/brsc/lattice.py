"""One Horn-closure core behind flats, T(H), T(H_k) and their J-complexes.

A face X of H forces the points that cannot extend it inside H: a set S
containing X must contain bad(X) = {p : X + p is not a face}. The sets
closed under the constraints (X, bad(X)) over the faces with |X| < k are

- the flats of H for k = dim + 2 (every face; T(H)'s pairs and a jump to V),
- T(H) for k = dim + 1 (the faces of size <= dim),
- T(H_k) for k <= dim (the faces of the truncation H_k).

_extension_constraints builds these pairs and _horn_closure closes under
them. An arbitrary family given by its members closes by intersection
(_meet_closure), and a listed Moore family (MooreFamily, such as the flats)
reads a closure off its members. _closed_sets lists the closed sets of a
closure, and _level_walk the maximal members of a subset-closed family,
which builds J of a closure (_independent_complex), the long hyperplanes of
a paving complex and the catalog's group-labeled graph complexes. Both
refuse past core.SET_LIMIT sets, and no function here scans all 2^n
subsets. _first_gap compares J with H up to size dim + 1, which decides BR
and TBRSC. The public functions below are short calls into these helpers.

transversal_complex walks chains of a set family directly: a second route
to the complex of partial transversals that j_complex builds, which the
tests compare with it.
"""

from bisect import bisect_left
from collections import Counter
from functools import lru_cache, partial
from math import comb

from . import core
from .core import (
    CapacityError,
    Complex,
    DomainError,
    SetFamily,
    bits,
    k_submasks,
    paving_dimension,
)


class MooreFamily(SetFamily):
    """Intersection-closed family of subsets containing the full vertex set;
    ascending holds its members in increasing int order."""

    def __init__(self, n, members, validate=True):
        super().__init__(n, members)
        full = (1 << n) - 1
        if full not in self.members:
            raise DomainError("a Moore family must contain the full vertex set")
        self.ascending = ms = tuple(sorted(self.members))
        if validate:
            for i, a in enumerate(ms):
                for b in ms[i + 1 :]:
                    if a & b not in self.members:
                        raise DomainError("family is not closed under intersection")

    def closure(self, X):
        """Smallest member holding X: the first one at or after X in
        ascending order that holds X. The closure lies inside every member
        holding X, so as an int it is the smallest of them, and no member
        below X holds X. V, the last member, holds every X in range."""
        if X & ~((1 << self.n) - 1):
            raise DomainError("set uses vertices outside 0..n-1")
        ms = self.ascending
        i = bisect_left(ms, X)
        while X & ~ms[i]:
            i += 1
        return ms[i]


def moore_close(n, sets):
    """Smallest Moore family containing the given sets: the sets closed under
    the intersection closure of the given sets, listed by NextClosure."""
    full = (1 << n) - 1
    base = tuple(set(sets))
    for s in base:
        if s & ~full:
            raise DomainError("set uses vertices outside 0..n-1")
    return _closed_sets(n, partial(_meet_closure, base, full), "Moore family")


def _extension_constraints(C, k):
    """Pairs (X, bad) over the faces X with |X| < k, bad the points p outside
    X for which X + p is not a face of at most k points (pairs with bad empty
    are dropped), so H and its truncation H_k agree on them. Each face Z with
    |Z| <= k marks every p in Z as extending Z - p. The pairs come in
    increasing size of X: a small premise holds in more sets, so a closure
    that scans them in this order adds its points in fewer passes."""
    faces = C.faces
    full = C.full_mask
    good = {X: 0 for X in faces if X.bit_count() < k}
    for Z in faces:
        if Z.bit_count() <= k:
            m = Z
            while m:
                b = m & -m
                good[Z ^ b] |= b
                m ^= b
    cons = [(X, bad) for X, g in good.items() if (bad := full & ~(X | g))]
    cons.sort(key=lambda c: c[0].bit_count())
    return tuple(cons)


def _level_closure(C, k):
    """The Horn closure of the constraints of the faces with |X| < k: that of
    T(H_k) for k <= dim + 1, and the flat closure for k >= dim + 2, where the
    constraints are those of k = dim + 1 plus the jump to V."""
    if k <= C.dim + 1:
        return partial(_horn_closure, _extension_constraints(C, k), C.full_mask, None, 0)
    return partial(_horn_closure, _extension_constraints(C, C.dim + 1), C.full_mask, C.faces, C.dim + 1)


def _closed_sets(n, cl, what):
    """Every subset of 0..n-1 closed under the closure cl, by Ganter's
    NextClosure: one closure per candidate, so the cost follows the number
    of closed sets rather than 2^n. Refuses past SET_LIMIT of them.

    Bit i weighs 2^i, so lectic order is increasing int order. The closed set
    after A is found at the lowest point b outside A whose closure of
    head = (A above b) + b adds nothing above b; the highest point outside A
    always qualifies, so the inner loop ends. cl(X, stop) may return any set
    meeting stop in place of the closure of X when that closure meets stop;
    each candidate passes the points above b outside head as stop, since the
    candidate fails as soon as its closure holds one of them.
    """
    full = (1 << n) - 1
    A = cl(0, 0)
    out = [A]
    while A != full:
        m = full & ~A
        while True:
            b = m & -m
            head = A & ~(b - 1) | b
            above = full & ~(b - 1) & ~head
            B = cl(head, above)
            if not B & above:
                break
            m ^= b
        A = B
        out.append(A)
        if len(out) > core.SET_LIMIT:
            raise CapacityError(f"{what} with more than {core.SET_LIMIT} sets is out of range")
    return MooreFamily(n, out, validate=False)


def _horn_closure(cons, full, faces, d1, X, stop=0):
    """Smallest superset of X closed under the constraints (propagation
    fixpoint), returned as soon as it reaches full, the set 0..n-1. A set
    meeting stop is returned as soon as one is reached, in place of the
    closure, which then meets stop too. Unless faces is None, a fixpoint
    holding a member of faces with d1 points jumps to full (the flat closure,
    over the T(H) constraints with d1 = dim + 1): the flats' extra pairs
    (X, V - X), one per (dim+1)-face X, fire only in a set holding X, so one
    test of the fixpoint stands for them all."""
    S = X
    out = ~S
    while out & full:
        before = S
        for Y, bad in cons:
            if not Y & out and bad & out:
                S |= bad
                out = ~S
                if S & stop or S == full:
                    return S
        if S == before:
            break
    if faces is not None:
        m = S.bit_count()
        if m == d1 and S in faces or m > d1 and not faces.isdisjoint(k_submasks(S, d1)):
            return full
    return S


def _meet_closure(sets, full, X, stop=0):
    """Intersection of full and the given sets that contain X. stop is
    ignored: an intersection only shrinks, so no partial result can show
    that the closure meets it."""
    out = full
    for z in sets:
        if X & ~z == 0:
            out &= z
    return out


def _level_walk(level, grow, what):
    """The maximal members of a subset-closed family, listed level by level.

    level is the family's first level; grow(Y, level) is a mask of points p
    with Y + p in the family, and every member of the next level is such a
    Y + p. Each level is then complete, so a member Y is maximal exactly when
    grow(Y, level) is 0 and no Y + p is on the next level. That is one
    isdisjoint call against Y | s over the single-point masks s of the points
    the next level reaches, listed once per level: Y | s is Y for s in Y, and
    Y is not on the next level. Refuses as soon as more than core.SET_LIMIT
    sets are listed, the first level (which each caller bounds) counted.
    Each level is a new set object, so grow can tell when the walk moves on.
    """
    level = set(level)
    room = core.SET_LIMIT - len(level)
    out = []
    while level:
        nxt = set()
        stuck = []
        reach = 0
        for Y in level:
            m = grow(Y, level)
            if not m:
                stuck.append(Y)
                continue
            reach |= Y | m
            while m:
                b = m & -m
                nxt.add(Y | b)
                m ^= b
            if len(nxt) > room:
                raise CapacityError(f"{what} with more than {core.SET_LIMIT} sets is out of range")
        singles = [1 << x for x in bits(reach)]
        out += [Y for Y in stuck if nxt.isdisjoint([Y | s for s in singles])]
        room -= len(nxt)
        level = nxt
    return out


def _independent_complex(cl, n, labels=None):
    """Complex of all sets independent for the closure cl.

    A coloop is a point p outside cl(V - p); K, the set of them, costs n
    closures. By monotonicity p lies outside cl(S) for every S not holding p,
    so p can be appended to any independent order, and deleting p from one
    leaves it independent, since the closures of the later prefixes only
    shrink. J is therefore the cone J' * simplex(K), J' the sets of
    rest = V - K independent for cl. Only J' is walked, under SET_LIMIT as
    every listed family is, and each of its facets gets K added; a caller
    that lists J's |J'| * 2^|K| faces is refused by Complex.faces.

    The level walk grows Y by each p in rest outside cl(Y), which builds each
    set from an independent order's prefix.

    cl(Y) is not computed from Y: for h the highest point of Y, any closure
    has cl(Y) = cl(cl(Y - h) + h), and Y - h, a face of the complex J', was
    walked on the level before. So each level closes each distinct seed
    cl(Y - h) + h once, and many sets of a level share a seed. The closures
    of two levels are held, the one before (for the seeds) and this one, and
    only of the sets that some point of rest lies above.

    The walk's maximal sets plus K are the facets as they stand: cl(0) is
    empty (no loops, which j_complex checks and the flat and T(H) closures
    have since every singleton is a face), so every point lies in one.
    """
    full = (1 << n) - 1
    K = 0
    for p in range(n):
        if not cl(full ^ 1 << p) >> p & 1:
            K |= 1 << p
    rest = full & ~K
    top = rest.bit_length()
    # the level being grown, and the closures of the sets and seeds of the
    # level before and of this one; h is 0 for Y = 0, whose seed is 0, read
    # from the 0 that stands for the level before the first
    grown, before, now = None, {}, {0: 0}

    def grow(Y, level):
        nonlocal grown, before, now
        if level is not grown:
            grown, before, now = level, now, {}
        high = Y.bit_length()
        h = 1 << high >> 1
        seed = before[Y ^ h] | h
        c = now.get(seed)
        if c is None:
            c = now[seed] = cl(seed)
        if high < top:
            # only a set with a point of rest above its highest is some
            # Z - h on the next level
            now[Y] = c
        return rest & ~c

    spanning = _level_walk([0], grow, "J-complex")
    return Complex._of_antichain(n, [Y | K for Y in spanning], core._labels(n, labels))


def _first_gap(C, cl):
    """The smallest face of the first level where J(cl), walked level by level
    up to size dim + 1, misses a face of C; None when they agree. One closure
    per independent set of size <= dim. The flat and T(H) closures put bad(Y)
    inside cl(Y) for each face Y of size <= dim, so every point outside cl(Y)
    extends Y: each level lies inside C, and misses a face exactly when it has
    fewer sets than C has faces of its size."""
    full = C.full_mask
    faces = C.faces
    sizes = Counter(map(int.bit_count, faces))
    level = [0]
    for k in range(1, C.dim + 2):
        nxt = set()
        for Y in level:
            m = full & ~cl(Y)
            while m:
                b = m & -m
                nxt.add(Y | b)
                m ^= b
        if len(nxt) < sizes[k]:
            return min(X for X in faces if X.bit_count() == k and X not in nxt)
        level = nxt
    return None


@lru_cache(maxsize=2048)
def flats(C):
    """All flats: the sets closed under every face's extension constraint."""
    return _closed_sets(C.n, _level_closure(C, C.dim + 2), "flat family")


def closure(C, X):
    """Smallest flat containing X."""
    return flats(C).closure(X)


def _paving_dimension(C, what):
    """The dimension d of a paving complex with d >= 2; DomainError otherwise."""
    d = paving_dimension(C, what)
    if d < 2:
        raise DomainError(f"{what} requires a paving complex of dimension >= 2")
    return d


def _long_hyperplanes(C, d):
    """The long hyperplanes of C, paving of dimension d >= 2.

    Facets of a paving complex of dimension d have d or d + 1 points, so past
    d + 1 points a set is facet-free exactly when all its one-point-smaller
    subsets are (the Apriori rule). The level walk starts from the facet-free
    (d+1)-sets and builds each set once from itself minus its highest point.
    C(n, d + 1) bounds the first level, so it is checked against SET_LIMIT
    before the level is listed."""
    n = C.n
    if comb(n, d + 1) > core.SET_LIMIT:
        raise CapacityError(f"facet-free family with more than {core.SET_LIMIT} sets is out of range")
    fct = C.facets
    # a (d+1)-set holds a facet exactly when it or one of its d-subsets is one
    first = [X for X in k_submasks(C.full_mask, d + 1) if fct.isdisjoint([X, *(X ^ 1 << x for x in bits(X))])]

    def grow(Y, level):
        m = 0
        for p in range(Y.bit_length(), n):
            Z = Y | 1 << p
            if all(Z ^ 1 << x in level for x in bits(Y)):
                m |= 1 << p
        return m

    return sorted(_level_walk(first, grow, "facet-free family"))


def long_hyperplane_partition(C):
    """Split the maximal long hyperplanes: flats / non-flats by intersection size.

    Non-flat members land in the second part when all intersections with other
    maximal long hyperplanes have size < dim, in the third part otherwise.
    Flat members always intersect the others in < dim points.
    """
    d = _paving_dimension(C, "long_hyperplane_partition")
    lh = _long_hyperplanes(C, d)
    cl = _level_closure(C, d + 2)
    l1, l2, l3 = [], [], []
    for L in lh:
        if cl(L) == L:
            l1.append(L)
        elif any(Lp != L and (L & Lp).bit_count() >= d for Lp in lh):
            l3.append(L)
        else:
            l2.append(L)
    return SetFamily(C.n, l1), SetFamily(C.n, l2), SetFamily(C.n, l3)


def flats_paving(C):
    """Flats of a paving complex of dimension >= 2, assembled from its layers.

    Small sets are all flats; a dim-size set, and a long flat, which is a flat
    maximal long hyperplane, are each tested by one flat closure.
    """
    d = _paving_dimension(C, "flats_paving")
    full = C.full_mask
    cl = _level_closure(C, d + 2)
    out = {0, full}
    for k in range(1, d):
        out.update(k_submasks(full, k))
    out.update(X for X in k_submasks(full, d) if cl(X) == X)
    out.update(L for L in _long_hyperplanes(C, d) if cl(L) == L)
    return MooreFamily(C.n, out, validate=False)


def j_complex(family, labels=None):
    """Complex of partial transversals of the family R: the sets independent
    for the intersection closure of R's members (the columns of the boolean
    matrix with one row per member, zero on its points). A point in every
    member is in the closure of the empty set, so no complex holds it."""
    cl = partial(_meet_closure, tuple(family.members), (1 << family.n) - 1)
    if cl(0):
        raise DomainError("some point lies in every member; no complex on all vertices")
    return _independent_complex(cl, family.n, labels)


def transversal_complex(family):
    """Complex of partial transversals, walking chains of the family directly.

    A set belongs iff some chain of members picks up its elements one per
    successive difference. Independent of the closure route; meant for small n.
    """
    n = family.n
    if n > 16:
        raise CapacityError(f"chain search over 2^{n} subsets is out of range")
    members = sorted(family.members)
    if not members:
        raise DomainError("family must be nonempty")

    memo = {}

    def member(X):
        return any(F & X == 0 and _chain_from(members, memo, F, X) for F in members)

    for x in range(n):
        if not member(1 << x):
            raise DomainError("some vertex is in no chain difference; no complex on all vertices")

    faces = {0}
    level = [0]
    while level:
        nxt = set()
        for Y in level:
            for x in range(n):
                X = Y | (1 << x)
                if X != Y and X not in faces and member(X):
                    nxt.add(X)
        faces |= nxt
        level = list(nxt)
    return Complex(n, faces)


def _chain_from(members, memo, F, rem):
    """Whether a chain of members above F picks up the points of rem one per
    successive difference; memo maps (F, rem) pairs already decided."""
    if rem == 0:
        return True
    key = (F, rem)
    if key in memo:
        return memo[key]
    ok = False
    for G in members:
        if G & ~F == 0 or F & ~G:
            continue
        picked = rem & G & ~F
        if picked.bit_count() == 1 and _chain_from(members, memo, G, rem ^ picked):
            ok = True
            break
    memo[key] = ok
    return ok


def is_boolean_representable(C):
    """Whether every face is a partial transversal of the flat chains.

    Returns (ok, witness) where witness is a smallest non-representable face
    (None when ok). J(Fl H) lies inside H, since a point outside the flat
    cl(Y) extends the face Y, so the first gap of the walk is that witness.
    """
    gap = _first_gap(C, flats(C).closure)
    return gap is None, gap


def _require_representable(C, what):
    """A DomainError naming what asked, unless C is boolean representable."""
    if not is_boolean_representable(C)[0]:
        raise DomainError(f"{what} requires a boolean representable complex")
