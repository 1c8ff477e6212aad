"""Flats, closure operators, boolean matrices, and transversal complexes.

Two independent routes exist from a set family R to its complex of
partial transversals: transversal_complex walks chains of R directly,
j_complex goes through the boolean matrix M(R) and successive closures.
Tests compare them; library code uses j_complex (faster).
"""

from functools import lru_cache

from .core import (
    CapacityError,
    Complex,
    DomainError,
    SetFamily,
    bits,
    k_submasks,
    mask_of,
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
        out = (1 << self.n) - 1
        for m in self.members:
            if X & ~m == 0:
                out &= m
        return out


def moore_close(n, sets):
    """Smallest Moore family containing the given sets."""
    full = (1 << n) - 1
    members = {full}
    work = [full]
    base = set(sets)
    for s in base:
        if s & ~full:
            raise DomainError("set uses vertices outside 0..n-1")
    frontier = set(base)
    while frontier:
        new = set()
        for a in frontier:
            if a in members:
                continue
            members.add(a)
            for b in list(members):
                c = a & b
                if c not in members:
                    new.add(c)
        frontier = new
    return MooreFamily(n, members, validate=False)


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


def _flat_constraints(C):
    """Pairs (X, bad) over faces X where bad = points whose addition leaves H."""
    faces = C.faces
    out = []
    for X in faces:
        bad = 0
        for p in bits(C.full_mask & ~X):
            if X | (1 << p) not in faces:
                bad |= 1 << p
        if bad:
            out.append((X, bad))
    return out


@lru_cache(maxsize=2048)
def flats(C):
    """All flats, by scanning every subset of V against the extension property."""
    if C.n > 22:
        raise CapacityError(f"flat scan over 2^{C.n} subsets is out of range")
    cons = _flat_constraints(C)
    out = []
    for F in range(1 << C.n):
        for X, bad in cons:
            if X & ~F == 0 and bad & ~F:
                break
        else:
            out.append(F)
    return MooreFamily(C.n, out, validate=False)


def closure(C, X):
    """Smallest flat containing X."""
    return flats(C).closure(X)


def long_hyperplanes(C):
    """Maximal sets of size > dim containing no facet (paving, dim >= 2 only)."""
    from .core import is_paving

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
    maximal = [
        X for X in candidates if not any(Y != X and X & ~Y == 0 for Y in candidates)
    ]
    return maximal


def long_hyperplane_partition(C):
    """Split the maximal long hyperplanes: flats / non-flats by intersection size.

    Non-flat members land in the second part when all intersections with other
    maximal long hyperplanes have size < dim, in the third part otherwise.
    Flat members always intersect the others in < dim points.
    """
    from .core import is_paving

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
    from .core import is_paving

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


def _closure_from_zero_sets(zero_sets, full, X):
    out = full
    for z in zero_sets:
        if X & ~z == 0:
            out &= z
    return out


def is_independent(M, X):
    """X is independent: its columns can be ordered so each leaves the closure
    of the previous ones (equivalently, some row witnesses each step)."""
    zs = M.zero_sets
    full = (1 << M.n) - 1
    memo = {}

    def go(placed):
        if placed == X:
            return True
        if placed in memo:
            return memo[placed]
        cl = _closure_from_zero_sets(zs, full, placed)
        ok = any(go(placed | (1 << x)) for x in bits(X & ~placed & ~cl))
        memo[placed] = ok
        return ok

    return go(0)


def independence_witness(M, X):
    """Column order plus row indices forming a lower unitriangular submatrix,
    or None when X is dependent."""
    zs = M.zero_sets
    full = (1 << M.n) - 1
    memo = {}

    def go(placed):
        if placed == X:
            return []
        if placed in memo:
            return memo[placed]
        cl = _closure_from_zero_sets(zs, full, placed)
        res = None
        for x in bits(X & ~placed & ~cl):
            rest = go(placed | (1 << x))
            if rest is not None:
                row = next(
                    i for i, z in enumerate(zs) if placed & ~z == 0 and not z >> x & 1
                )
                res = [(x, row)] + rest
                break
        memo[placed] = res
        return res

    seq = go(0)
    if seq is None:
        return None
    return [x for x, _ in seq], [r for _, r in seq]


def complex_of_matrix(M, labels=None):
    """Complex of all independent column sets of M."""
    zs = M.zero_sets
    full = (1 << M.n) - 1
    cl0 = _closure_from_zero_sets(zs, full, 0)
    if cl0:
        raise DomainError("matrix has an all-zero column; no complex on all vertices")
    faces = {0}
    level = [0]
    while level:
        nxt = set()
        for Y in level:
            cl = _closure_from_zero_sets(zs, full, Y)
            for x in bits(full & ~cl):
                nxt.add(Y | (1 << x))
        nxt -= faces
        faces |= nxt
        level = list(nxt)
    return Complex(M.n, faces, labels)


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

    def chain_from(F, rem):
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
            if picked.bit_count() == 1 and chain_from(G, rem ^ picked):
                ok = True
                break
        memo[key] = ok
        return ok

    def member(X):
        return any(F & X == 0 and chain_from(F, X) for F in members)

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


def is_boolean_representable(C):
    """Whether every face is a partial transversal of the flat chains.

    Returns (ok, witness) where witness is a smallest non-representable face
    (None when ok). Checking facets suffices for the positive direction.
    """
    fl = flats(C)
    M = matrix_of(fl)
    if all(is_independent(M, f) for f in C.facets):
        return True, None
    for k in range(2, C.dim + 2):
        for X in sorted(C.faces_of_size(k)):
            if not is_independent(M, X):
                return False, X
    raise AssertionError("facet failed but no witness found")


def tess_core(C):
    """Low flats of a paving complex and their transversal complex.

    The family keeps the flats of size <= dim plus V; the returned complex is
    its complex of partial transversals, a subcomplex of C.
    """
    from .core import is_paving

    d = is_paving(C)
    if d is None:
        raise DomainError("tess_core requires a paving complex")
    fl = flats(C)
    keep = {F for F in fl.members if F.bit_count() <= d}
    keep.add(C.full_mask)
    fam = MooreFamily(C.n, keep, validate=False)
    return fam, j_complex(fam, C.labels)
