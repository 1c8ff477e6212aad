"""One Horn-closure core behind flats, T(H), T(H_k) and their J-complexes.

A face X of H forces the points that cannot extend it inside H: a set S
containing X must contain bad(X) = {p : X + p is not a face}. The sets
closed under the constraints (X, bad(X)) over the faces with |X| < k are

- the flats of H for k = dim + 2 (every face),
- T(H) for k = dim + 1 (the faces of size <= dim),
- T(H_k) for k <= dim (the faces of the truncation H_k).

_extension_constraints builds the pairs and _horn_closure propagates them to
a fixpoint, stopping as soon as it reaches the full set V. A family given by
its members closes by intersection instead (_meet_closure). _closed_sets
lists the closed sets of either closure by Ganter's NextClosure, one closure
per candidate, so its cost follows the size of the family rather than 2^n:
flats, T(H) and T(H_k) bind it to a Horn closure, moore_close to an
intersection closure. Either closure cl defines the complex J of the sets
whose elements can be ordered so that each leaves the closure of the earlier
ones: _independent_complex builds J level by level, one closure per
independent set, handing only J's facets to Complex. A coloop p, outside
cl(V - p), is by monotonicity outside the closure of every set without p, so
J is a cone over the set K of coloops: J' * simplex(K), with |J'| * 2^|K|
faces, J' the independent sets avoiding K. Only J' is walked, and
uniform:k=3,n=18, whose J(T(H)) is the full simplex, takes 19 closures
rather than 2^18. _first_gap walks J up to sets of size dim + 1 of a
complex H, comparing it with H: this decides BR (cl the flat closure) and
TBRSC (cl the T(H) closure). The public functions below are short calls
into these helpers.

Two independent routes exist from a set family R to its complex of
partial transversals: transversal_complex walks chains of R directly,
j_complex goes through the boolean matrix M(R) and successive closures.
Tests compare them; library code uses j_complex (faster).
"""

from collections import Counter
from functools import lru_cache, partial

from .core import (
    CapacityError,
    Complex,
    DomainError,
    SetFamily,
    _antichain,
    bits,
    is_paving,
    k_submasks,
    submasks,
)


class MooreFamily(SetFamily):
    """Intersection-closed family of subsets containing the full vertex set."""

    def __init__(self, n, members, validate=True):
        super().__init__(n, members)
        full = (1 << n) - 1
        if full not in self.members:
            raise DomainError("a Moore family must contain the full vertex set")
        if validate:
            ms = sorted(self.members)
            for i, a in enumerate(ms):
                for b in ms[i + 1 :]:
                    if a & b not in self.members:
                        raise DomainError("family is not closed under intersection")

    def closure(self, X):
        return _meet_closure(self.members, (1 << self.n) - 1, X)


def moore_close(n, sets):
    """Smallest Moore family containing the given sets: the sets closed under
    the intersection closure of the given sets, listed by NextClosure."""
    full = (1 << n) - 1
    base = tuple(set(sets))
    for s in base:
        if s & ~full:
            raise DomainError("set uses vertices outside 0..n-1")
    return _closed_sets(n, partial(_meet_closure, base, full))


def is_flat(C, F):
    """F is a flat: every face inside F extends into H by any outside point."""
    faces = C.faces
    outside = C.full_mask & ~F
    for X in submasks(F):
        if X in faces:
            for p in bits(outside):
                if X | (1 << p) not in faces:
                    return False
    return True


def _extension_constraints(C, k):
    """Pairs (X, bad) over the faces X with |X| < k, where bad holds the
    points whose addition to X leaves H (pairs with bad empty are dropped).

    X + p has at most k points, so H and its truncation H_k agree on it. The
    points that do extend X are read off the faces one point larger: each
    face Z with |Z| <= k marks every p in Z as extending Z - p.
    """
    faces = C.faces
    good = dict.fromkeys(faces, 0)
    for Z in faces:
        if Z.bit_count() <= k:
            m = Z
            while m:
                b = m & -m
                good[Z ^ b] |= b
                m ^= b
    full = C.full_mask
    out = []
    for X, g in good.items():
        if X.bit_count() < k:
            bad = full & ~(X | g)
            if bad:
                out.append((X, bad))
    return tuple(out)


def _closed_sets(n, cl):
    """Every subset of 0..n-1 closed under the closure cl, by Ganter's
    NextClosure: one closure per candidate, so the cost follows the number
    of closed sets rather than 2^n.

    Bit i weighs 2^i, so lectic order is increasing int order. The closed set
    after A is found at the lowest point b outside A whose closure of
    (A above b) + b adds nothing above b; the highest point outside A always
    qualifies, so the inner loop ends.
    """
    full = (1 << n) - 1
    A = cl(0)
    out = [A]
    while A != full:
        m = full & ~A
        while True:
            b = m & -m
            head = A & ~(b - 1) | b
            B = cl(head)
            if B & ~(b - 1) == head:
                break
            m ^= b
        A = B
        out.append(A)
    return MooreFamily(n, out, validate=False)


def _horn_closure(cons, full, X):
    """Smallest superset of X closed under the constraints (propagation
    fixpoint), returned as soon as it reaches full, the set 0..n-1."""
    S = X
    out = ~S
    while out & full:
        before = S
        for Y, bad in cons:
            if not Y & out and bad & out:
                S |= bad
                out = ~S
                if S == full:
                    return S
        if S == before:
            break
    return S


def _meet_closure(sets, full, X):
    """Intersection of full and the given sets that contain X."""
    out = full
    for z in sets:
        if X & ~z == 0:
            out &= z
    return out


def _independent(cl, X):
    """An order of X's elements in which each leaves the closure cl of the
    earlier ones, or None when there is none (memoised search over prefixes)."""
    return _independent_from(cl, X, {}, 0)


def _independent_from(cl, X, memo, placed):
    """An order of X - placed extending the prefix placed, or None; memo maps
    the prefixes already searched to their answers."""
    if placed == X:
        return []
    if placed in memo:
        return memo[placed]
    res = None
    for x in bits(X & ~placed & ~cl(placed)):
        rest = _independent_from(cl, X, memo, placed | (1 << x))
        if rest is not None:
            res = [x] + rest
            break
    memo[placed] = res
    return res


# Most faces a J-complex may have (the empty set counted); larger ones are
# refused. Coloops are split off as a cone and never walked, so J(T(H)) of
# uniform:k=3,n=18, the full simplex on 18 points, costs 19 closures.
J_FACE_LIMIT = 1 << 20


def _independent_complex(cl, n, labels=None):
    """Complex of all sets independent for the closure cl, built level by level.

    A coloop is a point p outside cl(V - p); K, the set of them, costs n
    closures. By monotonicity p lies outside cl(S) for every S not holding p,
    so p can be appended to any independent order, and deleting p from one
    leaves it independent, since the closures of the later prefixes only
    shrink. J is therefore the cone J' * simplex(K), J' the sets of
    rest = V - K independent for cl, with |J'| * 2^|K| faces; only J' is
    walked, and each of its facets gets K added.

    A set Y extends by each point of rest outside cl(Y). A facet Y of J'
    covers rest by cl(Y), or a point outside it would extend Y; such a Y is a
    facet unless one point more gives a set of the next level (J' is closed
    under subsets). Only the facets are handed to Complex. Refuses when J has
    more than J_FACE_LIMIT faces: at once when 2^|K| alone is more, else once
    the walk passes J_FACE_LIMIT >> |K| faces of J'.
    """
    full = (1 << n) - 1
    K = 0
    for p in range(n):
        if not cl(full ^ 1 << p) >> p & 1:
            K |= 1 << p
    room = (J_FACE_LIMIT >> K.bit_count()) - 1
    if room < 0:
        raise CapacityError(f"J-complex with more than {J_FACE_LIMIT} faces is out of range")
    rest = full & ~K
    facets = []
    level = [0]
    while level:
        nxt = set()
        spanning = []
        for Y in level:
            m = rest & ~cl(Y)
            if not m:
                spanning.append(Y)
            while m:
                b = m & -m
                nxt.add(Y | b)
                m ^= b
            if len(nxt) > room:
                raise CapacityError(f"J-complex with more than {J_FACE_LIMIT} faces is out of range")
        facets += [Y | K for Y in spanning if not any(Y | 1 << x in nxt for x in bits(rest & ~Y))]
        room -= len(nxt)
        level = nxt
    return Complex(n, facets, labels)


def _first_gap(C, cl):
    """The first set where J(cl), walked level by level up to size dim + 1,
    differs from C: an independent set outside C, else the smallest face of
    the first level that has fewer sets than C has faces of its size (a level
    inside C misses a face exactly then); None when they agree. One closure
    per independent set of size <= dim.
    """
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
                if Y | b not in faces:
                    return Y | b
                nxt.add(Y | b)
                m ^= b
        if len(nxt) < sizes[k]:
            return min(X for X in faces if X.bit_count() == k and X not in nxt)
        level = nxt
    return None


@lru_cache(maxsize=2048)
def flats(C):
    """All flats: the sets closed under every face's extension constraint."""
    if C.n > 22:
        raise CapacityError(f"flat scan over 2^{C.n} subsets is out of range")
    cons = _extension_constraints(C, C.dim + 2)
    return _closed_sets(C.n, partial(_horn_closure, cons, C.full_mask))


def closure(C, X):
    """Smallest flat containing X."""
    return flats(C).closure(X)


def long_hyperplanes(C):
    """Maximal sets of size > dim containing no facet (paving, dim >= 2 only)."""
    d = is_paving(C)
    if d is None or d < 2:
        raise DomainError("long hyperplanes require a paving complex of dimension >= 2")
    if C.n > 20:
        raise CapacityError(f"long hyperplane scan over 2^{C.n} subsets is out of range")
    fct = sorted(C.facets)
    candidates = []
    for X in range(1 << C.n):
        if X.bit_count() <= d:
            continue
        if any(f & ~X == 0 for f in fct):
            continue
        candidates.append(X)
    return sorted(_antichain(candidates))


def long_hyperplane_partition(C):
    """Split the maximal long hyperplanes: flats / non-flats by intersection size.

    Non-flat members land in the second part when all intersections with other
    maximal long hyperplanes have size < dim, in the third part otherwise.
    Flat members always intersect the others in < dim points.
    """
    d = is_paving(C)
    lh = long_hyperplanes(C)
    l1, l2, l3 = [], [], []
    for L in lh:
        if is_flat(C, L):
            l1.append(L)
        elif any(Lp != L and (L & Lp).bit_count() >= d for Lp in lh):
            l3.append(L)
        else:
            l2.append(L)
    n = C.n
    return SetFamily(n, l1), SetFamily(n, l2), SetFamily(n, l3)


def flats_paving(C):
    """Flats of a paving complex of dimension >= 2, assembled without a full scan.

    Small sets are all flats; a dim-size set is a flat iff every one-point
    extension stays in H; the long flats are the flat maximal long hyperplanes.
    """
    d = is_paving(C)
    if d is None or d < 2:
        raise DomainError("flats_paving requires a paving complex of dimension >= 2")
    faces = C.faces
    full = C.full_mask
    out = [0]
    for k in range(1, d):
        out.extend(k_submasks(full, k))
    for A in k_submasks(full, d):
        if all(A | (1 << p) in faces for p in bits(full & ~A)):
            out.append(A)
    out.extend(L for L in long_hyperplanes(C) if is_flat(C, L))
    out.append(full)
    return MooreFamily(C.n, set(out), validate=False)


class BooleanMatrix:
    """0/1 matrix; each row is the mask of its 1-entries over columns 0..n-1."""

    __slots__ = ("n", "rows")

    def __init__(self, n, rows):
        if n < 1 or n > 64:
            raise DomainError("column count must be between 1 and 64")
        full = (1 << n) - 1
        self.n = n
        self.rows = tuple(rows)
        for r in self.rows:
            if r & ~full:
                raise DomainError("row uses columns outside 0..n-1")

    @property
    def zero_sets(self):
        full = (1 << self.n) - 1
        return tuple(full & ~r for r in self.rows)

    def entry(self, i, j):
        return self.rows[i] >> j & 1

    def __eq__(self, other):
        return (
            isinstance(other, BooleanMatrix)
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        body = "; ".join(
            "".join(str(r >> j & 1) for j in range(self.n)) for r in self.rows[:6]
        )
        more = "" if len(self.rows) <= 6 else f" ... ({len(self.rows)} rows)"
        return f"BooleanMatrix({len(self.rows)}x{self.n}: {body}{more})"


def matrix_of(family):
    """Matrix with one row per member, entry 0 exactly on the member's elements.

    Rows are sorted by member mask, so the output is deterministic.
    """
    full = (1 << family.n) - 1
    return BooleanMatrix(family.n, tuple(full & ~m for m in sorted(family.members)))


def _column_closure(M):
    """Closure of a column set: the columns zero on every row zero on the set."""
    return partial(_meet_closure, M.zero_sets, (1 << M.n) - 1)


def is_independent(M, X):
    """X is independent: its columns can be ordered so each leaves the closure
    of the previous ones (equivalently, some row witnesses each step)."""
    return _independent(_column_closure(M), X) is not None


def independence_witness(M, X):
    """Column order plus row indices forming a lower unitriangular submatrix,
    or None when X is dependent."""
    order = _independent(_column_closure(M), X)
    if order is None:
        return None
    zs = M.zero_sets
    rows = []
    placed = 0
    for x in order:
        rows.append(next(i for i, z in enumerate(zs) if placed & ~z == 0 and not z >> x & 1))
        placed |= 1 << x
    return order, rows


def complex_of_matrix(M, labels=None):
    """Complex of all independent column sets of M."""
    cl = _column_closure(M)
    if cl(0):
        raise DomainError("matrix has an all-zero column; no complex on all vertices")
    return _independent_complex(cl, M.n, labels)


def j_complex(family, labels=None):
    """Complex of partial transversals of the family, via its boolean matrix."""
    return complex_of_matrix(matrix_of(family), labels)


def transversal_complex(family, labels=None):
    """Complex of partial transversals, walking chains of the family directly.

    A set belongs iff some chain of members picks up its elements one per
    successive difference. Independent of the matrix route; meant for small n.
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
    return Complex(n, faces, labels)


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


def tess_core(C):
    """Low flats of a paving complex and their transversal complex.

    The family keeps the flats of size <= dim plus V; the returned complex is
    its complex of partial transversals, a subcomplex of C.
    """
    d = is_paving(C)
    if d is None:
        raise DomainError("tess_core requires a paving complex")
    fl = flats(C)
    keep = {F for F in fl.members if F.bit_count() <= d}
    keep.add(C.full_mask)
    fam = MooreFamily(C.n, keep, validate=False)
    return fam, j_complex(fam, C.labels)
