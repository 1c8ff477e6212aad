"""T-family, TBRSC recognition, codimension, and going-up classification.

T(H) collects the sets closed under the extension constraints of the faces
of size <= dim, and T(H_k), read off H directly, those of the faces of size
< k (the lattice core's constraints with k = dim + 1 and k); both families
are listed by the core's NextClosure. Most operators here avoid listing
T(H): its closure cl_T is the core's Horn closure, which is enough to build
J(T(H)) and to walk it up to size dim + 1 for the TBRSC test. Every reader
of cl_T closes through one memo per complex (_t_closure), and one walk of
the going-up witnesses (_gu_witnesses) answers every going-up question.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Tuple

from . import core
from .core import (
    CapacityError,
    Complex,
    DomainError,
    adjacency,
    bits,
    components,
    defect,
    k_submasks,
    paving_dimension,
)
# flats is not used here; it stays a name of this module because
# perfbench/selftest.py checks that the tracer wraps it in this namespace
from .lattice import (
    _closed_sets,
    _extension_constraints,
    _first_gap,
    _horn_closure,
    _independent_complex,
    _level_closure,
    flats,
)
from .operators import b_d


@lru_cache(maxsize=4096)
def _t_constraints(C):
    """Pairs (X, bad): X a face of size <= dim whose extension fails on bad."""
    return _extension_constraints(C, C.dim + 1)


@lru_cache(maxsize=8)
def _t_closure(C):
    """cl_T for one complex, its constraints looked up once, with a memo of
    the exact closures of sets of at most dim + 1 points. Every T(H) reader
    closes through it, so the operators asked of one complex close each such
    set once. A call with a stop, or on a larger set, is closed afresh, so
    the memo never holds more than the sets of at most dim + 1 points: J's
    walk closes far more larger seeds, and keeps its own closures of those."""
    cons = _t_constraints(C)
    full = C.full_mask
    small = C.dim + 1
    memo = {}

    def cl(X, stop=0):
        if stop or X.bit_count() > small:
            return _horn_closure(cons, full, None, 0, X, stop)
        S = memo.get(X)
        if S is None:
            S = memo[X] = _horn_closure(cons, full, None, 0, X)
        return S

    return cl


def t_family(C):
    """All members of T(H), enumerated by NextClosure over cl_T."""
    return _closed_sets(C.n, _t_closure(C), "T-family")


def truncation_t_family(C, k):
    """T(H_k) computed from H directly: sets T whose faces of size < k all
    extend inside H_k by any outside point.

    Agrees with t_family(truncate(C, k)) for k <= dim and with t_family(C)
    at k = dim + 1.  For larger k the family equals flats(C), as any T
    holding a (dim+1)-face must be the full set, and stops depending on k.
    """
    if k < 1:
        raise DomainError("truncation level must be at least 1")
    return _closed_sets(C.n, _level_closure(C, k), "T-family")


def cl_T(C, X):
    """Intersection of the T(H) members containing X, via constraint propagation."""
    return _t_closure(C)(X)


def jt_complex(C):
    """The complex J(T(H)): the sets whose elements can be ordered so that
    each leaves the cl_T closure of the previous ones."""
    # closes through cl_T rather than _t_closure: perfbench/selftest.py
    # requires cl_T calls under codimension(desargues)
    return _independent_complex(partial(cl_T, C), C.n, C.labels)


def is_tbrsc(C):
    """Whether C is the (dim+1)-truncation of the BRSC J(T(H)): the lattice
    core's walk of J(T(H)) up to size dim + 1 finds no set where they differ,
    one cl_T per independent set of size <= dim."""
    return _first_gap(C, _t_closure(C)) is None


def paving_tbrsc_criterion(C):
    """TBRSC test for paving complexes: every top face X needs a T(H) member
    meeting it in exactly dim points. Returns (flag, failing face or None)."""
    d = paving_dimension(C, "paving_tbrsc_criterion")
    cl = _t_closure(C)
    for X in sorted(C.faces_of_size(d + 1)):
        if not any(cl(Y) & (X & ~Y) == 0 for Y in k_submasks(X, d)):
            return False, X
    return True, None


def codimension(C):
    """dim J(T(H)) minus dim C."""
    return jt_complex(C).dim - C.dim


@dataclass(frozen=True)
class GoesUpReport:
    t_family_size: int
    max_chain_length: int
    dim_JT: int
    verdict: str
    witness: Optional[Tuple[int, int]]


def _gu_witnesses(cl, full, d):
    """C's going-up witnesses, one at a time: each (Y, x, cl(Y), cl(Y + x))
    with Y a d-set, x a point outside cl(Y) and cl(Y + x) short of full, the
    d-sets in k_submasks order and the points x in increasing order. There is
    none exactly when C does not go up. As cl(Y + x) = cl(cl(Y) + x), each
    such set is closed once."""
    above = {}
    for Y in k_submasks(full, d):
        F = cl(Y)
        m = full & ~F
        while m:
            x = m & -m
            m ^= x
            G = above.get(F | x)
            if G is None:
                G = above[F | x] = cl(F | x)
            if G != full:
                yield Y, x, F, G


def goes_up(C):
    """Does dim J(T(H)) exceed dim C: the report of dim J(T(H)), the verdict
    read off it, the witness pair, and |T(H)|. T(H) is listed, so past
    SET_LIMIT members it is refused even where J(T(H)) is built, as J is
    walked without its coloops.

    Only paving complexes qualify: the witness characterization needs
    P_{<=d-1} among the flats. The pair is C's first witness as (Y + x, Y),
    a (d+1)-set X and a d-subset Y with cl(Y) != cl(X) != V. The longest
    chain of T(H) has dim J(T(H)) + 2 members, and the witness exists exactly
    when the verdict is GU; `brsc reproduce going-up` and the tests check both.
    """
    paving_dimension(C, "going up")
    dim_jt = jt_complex(C).dim
    first = next(_gu_witnesses(_t_closure(C), C.full_mask, C.dim), None)
    witness = None if first is None else (first[0] | first[1], first[0])
    verdict = "GU" if dim_jt > C.dim else "NGU"
    return GoesUpReport(len(t_family(C)), dim_jt + 2, dim_jt, verdict, witness)


def _is_gu(C):
    return next(_gu_witnesses(_t_closure(C), C.full_mask, C.dim), None) is not None


def classify_minimality(C):
    """mGU / MNGU / neither, among paving complexes of the same dimension.

    C goes up when it has a witness, a d-set Y and a point x outside cl(Y)
    with cl(Y + x) short of V. Removing a top face X adds X - Z to bad(Z)
    for each d-subset Z of X, so every closure grows and every witness of
    C - X is already one of C. A closed set F of C keeps its closure unless
    it holds exactly d points of X; then the new constraint forces X, and as
    a set containing X is closed under the new constraints exactly when it
    is closed under the old ones, its new closure is cl(F | X). So C - X
    goes up iff for some witness of C, x stays outside the grown cl(Y) and
    the grown cl(Y + x) stays short of V; the grown sets are closed once each
    for all X. An addition neighbour C + X drops X's points from C's
    constraints, as bad(Y) loses X - Y for each d-subset Y of X, and is
    searched for a witness.
    """
    d = paving_dimension(C, "classification")
    full = C.full_mask
    cl = _t_closure(C)
    witnesses = {}
    for _, x, F, G in _gu_witnesses(cl, full, d):
        witnesses[F, G] = witnesses.get((F, G), 0) | x
    if witnesses:
        top = C.faces_of_size(d + 1)
        # a lone top face may not be removed: that would leave P_{<=d},
        # which sits outside the strict comparison range
        if len(top) > 1:
            # at d = 0 the removal changes nothing, as every complex keeps
            # its singletons, so the neighbour is C itself and goes up
            if d == 0:
                return "neither"
            grown = {}

            def after_removal(F, X):
                # the closure in C - X of F, a closed set of C
                if (F & X).bit_count() != d:
                    return F
                F |= X
                if F not in grown:
                    grown[F] = cl(F)
                return grown[F]

            for X in sorted(top):
                if any(
                    xs & ~after_removal(F, X) and after_removal(G, X) != full
                    for (F, G), xs in witnesses.items()
                ):
                    return "neither"
        return "mGU"
    bad = dict(_t_constraints(C))

    def addition_is_gu(X):
        nb = dict(bad)
        for Y in k_submasks(X, d):
            # bad(Y) misses Y, so losing X - Y is losing X
            b = nb.get(Y, 0) & ~X
            if b:
                nb[Y] = b
            else:
                nb.pop(Y, None)
        return next(_gu_witnesses(partial(_horn_closure, tuple(nb.items()), full, None, 0), full, d), None) is not None

    faces = C.faces
    for X in k_submasks(full, d + 1):
        if X not in faces and not addition_is_gu(X):
            return "neither"
    return "MNGU"


def dim1_gu_facts(C):
    """Defect-graph reading of GU / MNGU / mGU for paving dim-1 complexes.

    H goes up when its defect graph has at least three components, is MNGU
    when the graph is a forest of two trees, and is mGU when it has exactly
    three components, each a clique. `brsc reproduce going-up` and the tests
    compare these answers with _is_gu and classify_minimality.
    """
    if C.dim != 1:
        raise DomainError("dim1_gu_facts requires a paving complex of dimension 1")
    edges = defect(C).members
    adj = adjacency(C.n, edges)
    comps = components(C.full_mask, adj)
    acyclic = len(edges) == C.n - len(comps)
    return {
        "components": comps,
        "gu": len(comps) >= 3,
        "mngu": acyclic and len(comps) == 2,
        "mgu": len(comps) == 3 and all((adj[v] | 1 << v) & c == c for c in comps for v in bits(c)),
    }


def jijn(i, j, n):
    """The two-line complex J(i,j,n) for 2 <= i < j < n."""
    if not 2 <= i < j < n:
        raise DomainError("jijn needs 2 <= i < j < n")
    return two_line_complex(i, j, n)


def paving2_reps(n):
    """One paving dim-2 complex per isomorphism class on n vertices."""
    from .iso import paving_complexes

    for C in paving_complexes(n, 2):
        if C.dim == 2:
            yield C


def enumerate_mngu(n):
    """Canonical MNGU(2) representatives on n vertices, by exhaustive scan
    over triple-pattern orbits."""
    from .iso import canonical_complex

    out = []
    for C in paving2_reps(n):
        if classify_minimality(C) == "MNGU":
            out.append(canonical_complex(C))
    return out


def enumerate_mgu(n):
    """mGU(2) representatives on n vertices: the two-line complexes J(i,j,n),
    one per valid line-size pair from `mgu_pairs`.

    The list is not re-verified here: `brsc reproduce` (criterion
    `computemgu`) and the tests check that each member is mGU, that their
    T(H) member-size sets differ (so no two are isomorphic), that there are
    (n^2-9n+22)/2 of them, and, for small n, that an exhaustive scan of the
    paving classes finds no others.
    """
    if n < 4:
        raise DomainError("mGU(2) needs n >= 4")
    if n > 9:
        raise CapacityError("mGU enumeration supported for n <= 9")
    return [jijn(i, j, n) for i, j in mgu_pairs(n)]


def mgu_pairs(n):
    """The valid line-size pairs (i, j) for two-line complexes on n vertices."""
    return [(2, 3)] + [(i, j) for i in range(2, n) for j in range(i + 2, n - 1)]


def j_restriction_params(i, j, n, p):
    """Line sizes after deleting vertex p (1-based) from the two-line complex."""
    if p <= i:
        return i - 1, j - 1
    if p <= j:
        return i, j - 1
    return i, j


def two_line_complex(a, b, m):
    """The complex on m points generated by the facets of the b_d line
    complexes (d = 2) on the first a and the first b points; a size outside
    2..m-1 gives no line, and with no line every pair is a facet. m is
    checked before any set is listed."""
    core.check_capacity(m)
    gens = set()
    for size in {a, b}:
        if 2 <= size <= m - 1:
            gens |= b_d(m, (1 << size) - 1, 2).facets
    return Complex(m, gens or set(k_submasks((1 << m) - 1, 2)))


def everyres_classes(n):
    """Pairs (i, j) whose two-line complex restricts to an mGU complex at
    every vertex deletion.

    Deleting vertex p leaves the two-line complex of the sizes
    `j_restriction_params` gives (checked by `brsc reproduce going-up` and
    the tests), which is classified directly by the generic machinery.
    """
    if not 5 <= n <= 10:
        raise CapacityError("restriction scan supported for 5 <= n <= 10")
    verdict_cache = {}

    def restricted_is_mgu(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in verdict_cache:
            std = two_line_complex(key[0], key[1], n - 1)
            verdict_cache[key] = classify_minimality(std) == "mGU"
        return verdict_cache[key]

    return sorted(
        (i, j)
        for i, j in mgu_pairs(n)
        if all(restricted_is_mgu(*j_restriction_params(i, j, n, p)) for p in range(1, n + 1))
    )
