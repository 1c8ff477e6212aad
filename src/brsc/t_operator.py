"""T-family, TBRSC recognition, codimension, and going-up classification.

T(H) collects the sets closed under the extension constraints of the faces
of size <= dim, and T(H_k), read off H directly, those of the faces of size
< k (the lattice core's constraints with k = dim + 1 and k). Most operators
here avoid enumerating T(H): its closure cl_T is the core's propagation
fixpoint over the finitely many (face, forced points) pairs, which is
enough to build J(T(H)) and decide membership questions.
"""

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Tuple

from .core import (
    CapacityError,
    Complex,
    DomainError,
    bits,
    is_paving,
    k_submasks,
)
# flats is not used here; it stays a name of this module because
# perfbench/selftest.py checks that the tracer wraps it in this namespace
from .lattice import (
    _closed_sets,
    _extension_constraints,
    _horn_closure,
    _independent,
    _independent_complex,
    flats,
)


@lru_cache(maxsize=4096)
def _t_constraints(C):
    """Pairs (X, bad): X a face of size <= dim whose extension fails on bad."""
    return _extension_constraints(C, C.dim + 1)


def t_family(C):
    """All members of T(H), by scanning every subset of V."""
    if C.n > 20:
        raise CapacityError(f"T-family scan over 2^{C.n} subsets is out of range")
    return _closed_sets(C.n, _t_constraints(C))


def truncation_t_family(C, k):
    """T(H_k) computed from H directly: sets T whose faces of size < k all
    extend inside H_k by any outside point.

    Agrees with t_family(truncate(C, k)) for k <= dim and with t_family(C)
    at k = dim + 1.  For larger k the constraints also range over facets, so
    the family equals flats(C) (any T containing a facet must be the full
    set) and stops depending on k.
    """
    if k < 1:
        raise DomainError("truncation level must be at least 1")
    if C.n > 20:
        raise CapacityError(f"T-family scan over 2^{C.n} subsets is out of range")
    return _closed_sets(C.n, _extension_constraints(C, k))


def cl_T(C, X):
    """Intersection of the T(H) members containing X, via constraint propagation."""
    return _horn_closure(_t_constraints(C), X)


def jt_complex(C):
    """The complex J(T(H)): the sets whose elements can be ordered so that
    each leaves the cl_T closure of the previous ones."""
    return _independent_complex(partial(cl_T, C), C.n, C.labels)


def is_tbrsc(C):
    """Whether C is the (dim+1)-truncation of the BRSC J(T(H))."""
    cl = partial(cl_T, C)
    for f in C.facets:
        if _independent(cl, f) is None:
            return False
    full = C.full_mask
    faces = C.faces
    for k in range(2, C.dim + 2):
        for X in k_submasks(full, k):
            if X not in faces and _independent(cl, X) is not None:
                return False
    return True


def paving_tbrsc_criterion(C):
    """TBRSC test for paving complexes: every top face X needs a T(H) member
    meeting it in exactly dim points. Returns (flag, failing face or None)."""
    d = is_paving(C)
    if d is None:
        raise DomainError("criterion requires a paving complex")
    for X in sorted(C.faces_of_size(d + 1)):
        if not any(cl_T(C, Y) & (X & ~Y) == 0 for Y in k_submasks(X, d)):
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


def _longest_chain_members(fam):
    """Most members in a strictly increasing chain of the family."""
    ms = sorted(fam.members, key=lambda m: (m.bit_count(), m))
    best = {}
    for i, m in enumerate(ms):
        b = 1
        for j in range(i):
            mj = ms[j]
            if mj != m and mj & ~m == 0:
                b = max(b, best[mj] + 1)
        best[m] = b
    return max(best.values()) if best else 0


def _cltt_witness(C):
    """A pair (X, Y) with Y inside X and cl_T(Y) strictly between, full set excluded."""
    d = C.dim
    full = C.full_mask
    for X in k_submasks(full, d + 1):
        cx = cl_T(C, X)
        if cx == full:
            continue
        for Y in k_submasks(X, d):
            if cl_T(C, Y) != cx:
                return X, Y
    return None


def goes_up(C):
    """Does dim J(T(H)) exceed dim C; verdict cross-checked two ways.

    Only paving complexes qualify: the witness characterization needs
    P_{<=d-1} among the flats.
    """
    if is_paving(C) is None:
        raise DomainError("going up is defined for paving complexes")
    JT = jt_complex(C)
    dim_jt = JT.dim
    gu = dim_jt > C.dim
    witness = _cltt_witness(C)
    assert gu == (witness is not None)
    if C.n <= 20:
        fam = t_family(C)
        size = len(fam)
        chain = _longest_chain_members(fam)
        assert chain == dim_jt + 2
    else:
        size = -1
        chain = dim_jt + 2
    return GoesUpReport(size, chain, dim_jt, "GU" if gu else "NGU", witness)


def _is_gu(C):
    # witness route; equivalent to dim J(T(H)) > dim C on paving complexes
    # and much cheaper than building J(T(H))
    return _cltt_witness(C) is not None


def _remove_top_face(C, X):
    gens = set(C.facets) - {X}
    gens.update(k_submasks(X, X.bit_count() - 1))
    return Complex(C.n, gens, C.labels)


def classify_minimality(C):
    """mGU / MNGU / neither, among paving complexes of the same dimension."""
    d = is_paving(C)
    if d is None:
        raise DomainError("classification requires a paving complex")
    top = sorted(C.faces_of_size(d + 1))
    full = C.full_mask
    if _is_gu(C):
        # a lone top face may not be removed: that would leave P_{<=d},
        # which sits outside the strict comparison range
        if len(top) > 1:
            for X in top:
                if _is_gu(_remove_top_face(C, X)):
                    return "neither"
        return "mGU"
    missing = [X for X in k_submasks(full, d + 1) if not C.has(X)]
    for X in missing:
        if not _is_gu(Complex(C.n, set(C.facets) | {X}, C.labels)):
            return "neither"
    return "MNGU"


def _clique_mask_check(comp, adj):
    return all((adj[v] | (1 << v)) & comp == comp for v in bits(comp))


def dim1_gu_facts(C):
    """Defect-graph reading of GU / MNGU / mGU for paving dim-1 complexes.

    Both the graph criteria and the generic machinery are computed and
    compared; the returned dict reports the agreed answers.
    """
    from .core import defect, defect_graph_components

    if is_paving(C) != 1:
        raise DomainError("dim1_gu_facts requires a paving complex of dimension 1")
    comps = defect_graph_components(C)
    edges = sorted(defect(C).members)
    adj = [0] * C.n
    for e in edges:
        u, v = tuple(bits(e))
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    gu_graph = len(comps) >= 3
    acyclic = len(edges) == C.n - len(comps)
    mngu_graph = acyclic and len(comps) == 2
    mgu_graph = len(comps) == 3 and all(_clique_mask_check(c, adj) for c in comps)

    gu = _is_gu(C)
    cls = classify_minimality(C)
    assert gu == gu_graph
    assert (cls == "MNGU") == mngu_graph
    assert (cls == "mGU") == mgu_graph
    return {
        "components": comps,
        "gu": gu,
        "mngu": mngu_graph,
        "mgu": mgu_graph,
    }


def jijn(i, j, n):
    """The two-line complex J(i,j,n): the union of the b_d line complexes on
    the first i and the first j of n points, for 2 <= i < j < n."""
    from .operators import b_d
    from .core import union

    if not 2 <= i < j < n:
        raise DomainError("jijn needs 2 <= i < j < n")
    return union(b_d(n, (1 << i) - 1, 2), b_d(n, (1 << j) - 1, 2))


def paving2_reps(n):
    """One paving dim-2 complex per isomorphism class on n vertices."""
    from .iso import paving_complexes

    if not 4 <= n <= 6:
        raise CapacityError("paving scan supported for 4 <= n <= 6")
    for C in paving_complexes(n, 2):
        if C.dim == 2:
            yield C


def enumerate_mngu(n, d=2):
    """Canonical MNGU(2) representatives on n vertices, by exhaustive scan
    over triple-pattern orbits."""
    from .iso import canonical_complex

    if d != 2:
        raise DomainError("only d = 2 is classified")
    out = []
    for C in paving2_reps(n):
        if classify_minimality(C) == "MNGU":
            out.append(canonical_complex(C))
    return out


def enumerate_mgu(n, d=2):
    """mGU(2) representatives on n vertices: the two-line complexes J(i,j,n).

    Each candidate is re-verified by classify_minimality and the family is
    checked pairwise non-isomorphic; for n <= 5 an exhaustive scan confirms
    there are no others.
    """
    from .iso import canonical_complex

    if d != 2:
        raise DomainError("only d = 2 is classified")
    if n < 4:
        raise CapacityError("mGU(2) needs n >= 4")
    if n > 9:
        raise CapacityError("mGU enumeration supported for n <= 9")
    out = []
    sigs = []
    for i, j in mgu_pairs(n):
        C = jijn(i, j, n)
        assert classify_minimality(C) == "mGU"
        out.append(C)
        sigs.append(frozenset(m.bit_count() for m in t_family(C).members))
    # distinct T(H) member-size sets separate the classes
    assert len(set(sigs)) == len(sigs)
    assert len(out) == (n * n - 9 * n + 22) // 2
    if n <= 5:
        found = {canonical_complex(C) for C in paving2_reps(n) if classify_minimality(C) == "mGU"}
        assert found == {canonical_complex(C) for C in out}
    return out


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
    """Union of the b-line complexes for prefixes of sizes a <= b, with the
    degenerate sizes (a <= 1 or a = b) collapsing to fewer lines."""
    from .operators import b_d
    from .core import union

    base = Complex(m, set(k_submasks((1 << m) - 1, 2)))
    parts = [base]
    for size in {a, b}:
        if 2 <= size <= m - 1:
            parts.append(b_d(m, (1 << size) - 1, 2))
    out = parts[0]
    for part in parts[1:]:
        out = union(out, part)
    return out


def everyres_classes(n):
    """Pairs (i, j) whose two-line complex restricts to an mGU complex at
    every vertex deletion.

    Each restriction is checked equal to its standard-position two-line
    form, which is then classified directly by the generic machinery.
    """
    from .core import restriction

    if not 5 <= n <= 10:
        raise CapacityError("restriction scan supported for 5 <= n <= 10")
    full = (1 << n) - 1
    verdict_cache = {}

    def restricted_is_mgu(a, b):
        key = (a, b) if a <= b else (b, a)
        if key not in verdict_cache:
            std = two_line_complex(key[0], key[1], n - 1)
            verdict_cache[key] = classify_minimality(std) == "mGU"
        return verdict_cache[key]

    qualifying = []
    for i, j in mgu_pairs(n):
        C = jijn(i, j, n)
        good = True
        for p in range(1, n + 1):
            a, b = j_restriction_params(i, j, n, p)
            R = restriction(C, full & ~(1 << (p - 1)))
            assert R == two_line_complex(min(a, b), max(a, b), n - 1)
            if not restricted_is_mgu(a, b):
                good = False
        if good:
            qualifying.append((i, j))
    return sorted(qualifying)
