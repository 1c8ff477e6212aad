"""Matroid and near-matroid structure.

Exchange checks, the flat-rank map rho, representations of truncations, the
pure-complex verdicts, matroid extension search one dimension up, shellability,
and the line complex H* for paving complexes.
"""

from collections import defaultdict
from dataclasses import dataclass
from math import comb
from typing import List, Tuple

from . import core
from .core import (
    CapacityError,
    Complex,
    DomainError,
    SetFamily,
    _induced,
    bits,
    k_submasks,
    pure_part,
    restriction,
    truncate,
)
from .lattice import MooreFamily, _paving_dimension, _require_representable, flats, is_boolean_representable, j_complex
from .t_operator import _t_constraints, is_tbrsc, jt_complex


def is_matroid(C):
    """Exchange check over all face pairs with |I| = |J| + 1.

    Returns (ok, pair) where pair = (I, J) admits no exchange point when the
    check fails, None otherwise. J, the smaller face, has at most dim points,
    so the T(H) constraints cover it: the points extending J are those
    outside J and bad(J). A J with no constraint extends by every point
    outside it, so it fails no exchange and is skipped.
    """
    bad = dict(_t_constraints(C))
    by_size = defaultdict(list)
    for f in C.faces:
        by_size[f.bit_count()].append(f)
    for k in range(C.dim + 1):
        # each J with a mask that meets a face exactly in its points extending J
        ext = [(J, ~(J | bad[J])) for J in by_size[k] if J in bad]
        for I in by_size[k + 1]:
            for J, e in ext:
                if I & e == 0:
                    return False, (I, J)
    return True, None


def _proper_closures(C):
    """One pass over the faces by size: the map from each proper flat that
    closes a face to the first such face, and the first pair of faces with
    one proper closure and different sizes (None when there is none). The
    pass stops at the (dim+1)-faces, whose closure is always V."""
    fl = flats(C)
    full = C.full_mask
    top = C.dim + 1
    seen = {}
    for X in sorted(C.faces, key=int.bit_count):
        if X.bit_count() == top:
            break
        F = fl.closure(X)
        if F == full:
            continue
        if F not in seen:
            seen[F] = X
        elif seen[F].bit_count() != X.bit_count():
            return seen, (seen[F], X)
    return seen, None


def is_near_matroid(C):
    """Whether closure-equal faces always share cardinality, proper closures
    only (faces whose closure is V are exempt).  Returns (ok, violating face
    pair)."""
    pair = _proper_closures(C)[1]
    return pair is None, pair


def rho(C):
    """The flat-rank map of a near-matroid, a dict F -> |X| for any face X
    with closure F, over the flats other than V.

    Every proper flat is the closure of a face, and the map strictly
    increases along flat chains; `brsc reproduce pure-conjecture` and the
    tests check both.
    """
    seen, pair = _proper_closures(C)
    if pair is not None:
        raise DomainError(f"rho needs a near-matroid; faces {pair} break it")
    return {F: X.bit_count() for F, X in seen.items()}


def _chain_flats(members, k):
    """Members lying on some chain with k+1 members, by longest-chain DP."""
    members = sorted(members, key=int.bit_count)
    up = {}
    for F in members:
        up[F] = 1 + max(
            (up[G] for G in members if G != F and G & ~F == 0), default=0
        )
    down = {}
    for F in reversed(members):
        down[F] = 1 + max(
            (down[G] for G in members if G != F and F & ~G == 0), default=0
        )
    return {F for F in members if up[F] + down[F] - 1 == k + 1}


def truncation_is_brsc_for_near_matroid(C, k):
    """Whether the rho-calibrated flat families represent H_k and pure(H_k).

    F_k keeps the flats of rank below k (plus V); F'_k keeps those lying on
    maximal chains of F_k.  The verdict is the conjunction of J(F_k) == H_k
    and J(F'_k) == pure(H_k); `brsc reproduce pure-conjecture` and the tests
    check that it holds at every k <= dim + 1.
    """
    _require_representable(C, "truncation_is_brsc_for_near_matroid")
    if not 1 <= k <= C.dim + 1:
        raise DomainError("truncation level must be between 1 and dim + 1")
    rm = rho(C)
    full = C.full_mask
    Fk = {F for F, r in rm.items() if r < k} | {full}
    fam = MooreFamily(C.n, Fk)
    HK = truncate(C, k)
    if j_complex(fam) != HK:
        return False
    fam2 = MooreFamily(C.n, _chain_flats(Fk, k))
    JP = j_complex(fam2)
    top = [f for f in HK.facets if f.bit_count() == HK.dim + 1]
    covered = 0
    for f in top:
        covered |= f
    for f in JP.facets:
        if f.bit_count() > 1 and f & ~covered:
            return False
    return restriction(JP, covered) == pure_part(HK)


def check_pure_conjecture(C, k):
    """BR and TBRSC verdicts for the pure part of the k-truncation."""
    _require_representable(C, "the pure-complex check")
    P = pure_part(truncate(C, k))
    brsc, _ = is_boolean_representable(P)
    return {"pure_k_is_brsc": brsc, "pure_k_is_tbrsc": is_tbrsc(P)}


def matroid_extension_candidate(C):
    """J(T(H)) together with a proper-matroid-extension verdict.

    Codimension 1 is decided by inspecting the candidate; codimension 0
    admits no proper extension at all; higher codimension stays open.  A
    unique extension truncates back to C; `brsc reproduce extensions` and
    the tests check that.
    """
    ok, _ = is_matroid(C)
    if not ok:
        raise DomainError("the extension candidate is defined for matroids")
    JT = jt_complex(C)
    cd = JT.dim - C.dim
    if cd == 0:
        return JT, "no_extension"
    if cd >= 2:
        return JT, "inconclusive"
    okm, _ = is_matroid(JT)
    return JT, "unique_extension" if okm else "no_extension"


@dataclass
class ExtensionSearch:
    """Outcome of the one-dimension-up matroid extension search."""

    extensions: List[Complex]
    complete: bool
    nodes: int


def search_matroid_extensions(C, budget=10**8):
    """All matroids one dimension up whose truncation gives C back.

    An extension is determined by the set S of (d+2)-subsets made
    independent; each must have all its (d+1)-subsets in H, and the exchange
    property reduces to clauses "X in S and J a top face not inside X force
    J + i in S for some i in X - J".  A matroid is pure, so every top face of
    C must also lie in some member of S (a cover clause).  The set-up lists
    the C(n, d+2) candidate sets and builds |cands| * (|tops| - d - 2)
    clauses, each an int of |cands| bits.  The candidate count, and the
    clauses' size in 64-bit words, clauses * ceil(|cands| / 64), are checked
    against core.SET_LIMIT, and refused with CapacityError past it, before
    the sets are listed or the clauses built.

    DFS over in/out decisions with unit propagation.  The state is two
    bitmask ints IN and OUT over the live candidates; a clause or cover set
    is a mask of its options, so it is satisfied when it meets IN and is
    unit when its options outside OUT are a single bit.  The branch variable
    is the lowest undecided candidate, and each pending branch carries the
    two ints it starts from, so backtracking needs no trail.  Every
    assignment costs one node of budget, and exhausting the budget is
    reported on the result, never silently.

    Each extension is the complex whose facets are its chosen sets, built by
    `Complex._of_antichain` with no constructor checks; its precondition
    holds at every complete assignment.  The chosen sets are distinct
    (d+2)-subsets of range(n), so they form an antichain inside 0..n-1.  C
    is a matroid, hence pure, so its facets are its top faces, and the cover
    clauses put each of them, and so each vertex, inside a chosen set; the
    chosen sets are thus the facets of the union of C with them.  The labels
    are C's, validated when C was built.  The extensions are not re-verified
    here: `brsc reproduce extensions` and the tests check that each is a
    matroid whose truncation is C, and the tests that each equals the
    public constructor's complex.
    """
    if budget < 0:
        raise DomainError("the search budget must be >= 0")
    ok, _ = is_matroid(C)
    if not ok:
        raise DomainError("the extension search starts from a matroid")
    n = C.n
    d1 = C.dim + 1
    if comb(n, d1 + 1) > core.SET_LIMIT:
        raise CapacityError(f"extension search over more than {core.SET_LIMIT} candidate sets is out of range")
    fset = C.faces
    tops = sorted(C.faces_of_size(d1))
    cands = [X for X in k_submasks(C.full_mask, d1 + 1) if all(s in fset for s in k_submasks(X, d1))]
    # every (d+1)-subset of a candidate is a top face, so each candidate owns
    # one clause per top face outside it
    M = len(cands)
    if M * (len(tops) - d1 - 1) * -(-M // 64) > core.SET_LIMIT:
        raise CapacityError(f"extension search with more than {core.SET_LIMIT} clause words is out of range")

    # per top face J: pts[J], the points i with J + i a candidate, whose bit
    # is bit_of[J + i], and cover[J], the OR of those bits; a clause (X, J)
    # is the OR over X & pts[J] alone
    bit_of = {}
    pts = dict.fromkeys(tops, 0)
    cover = dict.fromkeys(tops, 0)
    for ci, X in enumerate(cands):
        b = bit_of[X] = 1 << ci
        m = X
        while m:
            p = m & -m
            m ^= p
            pts[X ^ p] |= p
            cover[X ^ p] |= b

    # per candidate: the clauses it owns, each the mask of its option indices;
    # a clause with no options marks its owner dead at once and ends its
    # list, which nothing reads again
    live = (1 << M) - 1
    table = [(J, pts[J], {}) for J in tops]
    raw = []
    for t, X in enumerate(cands):
        cls = []
        outside = ~X
        for J, P, memo in table:
            if not J & outside:
                continue
            m = X & P
            if not m:
                live ^= 1 << t
                break
            opts = memo.get(m)
            if opts is None:
                opts = 0
                r = m
                while r:
                    p = r & -r
                    r ^= p
                    opts |= bit_of[J | p]
                memo[m] = opts
            cls.append(opts)
        raw.append(cls)

    # a candidate owning a clause with no live options can never be chosen;
    # dead candidates leave every mask below, so the DFS never branches on them
    changed = True
    while changed:
        changed = False
        for ci, cls in enumerate(raw):
            if live >> ci & 1 and any(not opts & live for opts in cls):
                live ^= 1 << ci
                changed = True

    # per candidate t: the option masks of the clauses it owns (read when t
    # goes in), and the (owner bit, option mask) clauses and cover masks it
    # is an option of (read when t goes out)
    owned = [[] for _ in range(M)]
    occurs = [[] for _ in range(M)]
    rest = live
    while rest:
        tb = rest & -rest
        rest ^= tb
        t = tb.bit_length() - 1
        owned[t] = own = [opts & live for opts in raw[t]]
        for omask in own:
            clause = (tb, omask)
            while omask:
                ob = omask & -omask
                omask ^= ob
                occurs[ob.bit_length() - 1].append(clause)

    covers_of = [[] for _ in range(M)]
    for J in tops:
        omask = cover[J] & live
        if not omask:
            return ExtensionSearch([], True, 0)
        rest = omask
        while rest:
            ob = rest & -rest
            rest ^= ob
            covers_of[ob.bit_length() - 1].append(omask)

    nodes = 0

    def assign(IN, OUT, bit, val_in):
        """Set one candidate and propagate; the new (IN, OUT), or None on a
        conflict.  The queue is LIFO and the checks run in a fixed order, so
        the node count depends on the decisions alone."""
        nonlocal nodes
        queue = [(bit, val_in)]
        while queue:
            bit, val_in = queue.pop()
            if (IN | OUT) & bit:
                if bool(IN & bit) != val_in:
                    return None
                continue
            nodes += 1
            t = bit.bit_length() - 1
            if val_in:
                IN |= bit
                for opts in owned[t]:
                    if opts & IN:
                        continue
                    free = opts & ~OUT
                    if not free:
                        return None
                    if free & (free - 1) == 0:
                        queue.append((free, True))
            else:
                OUT |= bit
                for owner, opts in occurs[t]:
                    if opts & IN:
                        continue
                    free = opts & ~OUT
                    if not free:
                        if owner & IN:
                            return None
                        queue.append((owner, False))
                    elif free & (free - 1) == 0 and owner & IN:
                        queue.append((free, True))
                for opts in covers_of[t]:
                    if opts & IN:
                        continue
                    free = opts & ~OUT
                    if not free:
                        return None
                    if free & (free - 1) == 0:
                        queue.append((free, True))
        return IN, OUT

    # a solution's chosen masks are read off IN a byte at a time: table k
    # maps byte k of IN to the candidates of its bits, each entry made on
    # first use, so a search with few solutions builds few entries
    tables = [{} for _ in range(0, M, 8)]

    # depth first on an explicit stack of branches (IN, OUT, bit, value), IN
    # before OUT; a recursive nested function would hold these tables in a
    # reference cycle until the cyclic collector runs
    solutions = []
    branches = []
    state = (0, 0)
    while True:
        if state is not None:
            if nodes >= budget:
                return ExtensionSearch(solutions, False, nodes)
            IN, OUT = state
            rest = live & ~(IN | OUT)
            if rest:
                bit = rest & -rest
                branches.append((IN, OUT, bit, False))
                branches.append((IN, OUT, bit, True))
            else:
                chosen = set()
                for k, table in enumerate(tables):
                    byte = IN >> 8 * k & 255
                    if byte:
                        masks = table.get(byte)
                        if masks is None:
                            masks = table[byte] = [cands[8 * k + i] for i in bits(byte)]
                        chosen.update(masks)
                solutions.append(Complex._of_antichain(n, chosen, C.labels))
        if not branches:
            return ExtensionSearch(solutions, True, nodes)
        state = assign(*branches.pop())


@dataclass(frozen=True)
class Shelling:
    """A facet order with, per step, the facets of the intersection with the
    union of the earlier ones."""

    order: Tuple[int, ...]
    certificates: Tuple[Tuple[int, ...], ...]


def _step_certificate(placed, B):
    """Maximal intersections of B with the placed facets when they are all of
    size |B| - 1, else None.

    Facets form an antichain, so B - A is never empty.  A placed A with
    B - A = {p} meets B in B - p; call such points p ridge points.  The sets
    B - p are maximal among proper subsets of B, and A meets B inside B - p
    exactly when p misses A, so the step is valid exactly when every placed A
    misses a ridge point, and then the sets B - p are the maximal
    intersections.  Two linear passes over placed.
    """
    ridge = 0
    for A in placed:
        rest = B & ~A
        if rest & (rest - 1) == 0:
            ridge |= rest
    for A in placed:
        if not B & ~A & ridge:
            return None
    return tuple(sorted(B ^ (1 << p) for p in bits(ridge)))


def shelling_certificates(C, order):
    """Certificates for a given facet order, or None when it fails the
    step-purity condition."""
    if sorted(order) != sorted(C.facets):
        raise DomainError("the order must enumerate the facets exactly once")
    placed = []
    certs = []
    for B in order:
        cert = _step_certificate(placed, B)
        if cert is None:
            return None
        certs.append(cert)
        placed.append(B)
    return tuple(certs)


def _links_connected(facets):
    """Whether, for every face F of size s - 2 (s the largest facet size),
    the edges f - F over the s-facets f holding F form one connected graph.
    facets lists the largest first.

    Every link of a face of a shellable complex is shellable, and a
    1-dimensional complex is shellable exactly when its edges are connected
    (Björner & Wachs, Trans. AMS 1996), so a False settles "not shellable".
    One pass over the s-facets files each edge {a, b} of f under F = f - a - b;
    then each link grows a vertex mask from its first edge by the edges that
    meet it, and is connected when no edge is left outside.
    """
    s = facets[0].bit_count()
    if s < 2:
        return True
    links = defaultdict(list)
    for f in facets:
        if f.bit_count() != s:
            break
        x = f
        while x:
            a = x & -x
            x ^= a
            y = x
            while y:
                b = y & -y
                y ^= b
                links[f ^ a ^ b].append(a | b)
    for edges in links.values():
        reach = edges[0]
        grown = True
        while grown:
            grown = False
            for e in edges:
                if e & reach and e & ~reach:
                    reach |= e
                    grown = True
        for e in edges:
            if not e & reach:
                return False
    return True


def _shelling_from(facets):
    """The first shelling of facets, listed largest first and in increasing
    mask order within a size, that places at each step the first remaining
    facet of the largest remaining size that passes the step test; None when
    there is none.

    Depth first on an explicit stack of cursors, one per placed facet plus
    the root, so neither Python's recursion limit nor a reference cycle
    limits or outlives the search. The placed facets are a bitmask P over
    the indices, and P is all the state a remainder depends on, so the
    remainders known to fail are kept as the ints P. Each step test compares
    the candidate with every placed facet; past core.SET_LIMIT such
    comparisons the search is refused with a CapacityError.
    """
    m = len(facets)
    limit = core.SET_LIMIT
    # one past the last index of each size class
    ends = {}
    for i, f in enumerate(facets):
        ends[f.bit_count()] = i + 1
    full = (1 << m) - 1
    failed = set()
    placed = []
    certs = []
    path = []
    P = 0
    work = 0
    cursors = [[0, ends[facets[0].bit_count()]]]
    while cursors:
        cursor = cursors[-1]
        j, end = cursor
        while j < end:
            if not P >> j & 1:
                work += len(placed)
                if work > limit:
                    raise CapacityError(f"shelling search past {limit} step tests is out of range")
                cert = _step_certificate(placed, facets[j])
                if cert is not None:
                    break
            j += 1
        if j == end:
            failed.add(P)
            cursors.pop()
            if path:
                P ^= 1 << path.pop()
                placed.pop()
                certs.pop()
            continue
        cursor[0] = j + 1
        P |= 1 << j
        path.append(j)
        placed.append(facets[j])
        certs.append(cert)
        if P == full:
            return Shelling(tuple(placed), tuple(certs))
        if P in failed:
            # an empty cursor: the next round backtracks at once
            cursors.append([0, 0])
        else:
            lo = (~P & (P + 1)).bit_length() - 1
            cursors.append([lo, ends[facets[lo].bit_count()]])
    return None


def is_shellable(C):
    """Search for a shelling and return it, or None.

    Only facet orders of nonincreasing dimension are explored; a shellable
    complex always has one of that shape. A complex with m facets is refused
    with a CapacityError at once when the m(m - 1)/2 step comparisons that
    any complete shelling needs pass core.SET_LIMIT, and the search is
    refused once its comparisons do. Before the search, a disconnected edge
    link of a face of size dim - 1 (`_links_connected`) settles None.
    """
    facets = sorted(C.facets, key=lambda f: (-f.bit_count(), f))
    m = len(facets)
    if m * (m - 1) // 2 > core.SET_LIMIT:
        raise CapacityError(f"shelling of {m} facets needs more than {core.SET_LIMIT} step tests")
    if not _links_connected(facets):
        return None
    return _shelling_from(facets)


def _bpav_dim(C):
    d = _paving_dimension(C, "lines")
    _require_representable(C, "lines")
    return d


def lines(C):
    """Flats F with d <= |F| < |V|, as a SetFamily.

    The flats of the input are every set of fewer than d points, the lines,
    and V, and two lines meet in fewer than d points; `brsc reproduce
    shellability` and the tests check both.
    """
    return _lines(C, _bpav_dim(C))


def _lines(C, d):
    # lines of C, already checked by _bpav_dim to have dimension d
    return SetFamily(C.n, {F for F in flats(C).members if d <= F.bit_count() < C.n})


def l_mu(C, L):
    """Faces I + p with I a d-subset of the line L and p outside L."""
    d = _bpav_dim(C)
    if L not in _lines(C, d):
        raise DomainError("L must be a line")
    out = set()
    for I in k_submasks(L, d):
        for p in bits(C.full_mask & ~L):
            out.add(I | (1 << p))
    return SetFamily(C.n, out)


def h_star(C):
    """The line complex: vertex set the union of the lines, faces the
    P_{<=d} slices of the individual lines.

    The top facets of the input are the faces I + p with I a d-subset of a
    line L and p outside L (the union of `l_mu` over the lines); `brsc
    reproduce shellability` and the tests check that.
    """
    d = _bpav_dim(C)
    vstar = 0
    gens = set()
    for L in _lines(C, d):
        vstar |= L
        if L.bit_count() == d:
            gens.add(L)
        else:
            gens.update(k_submasks(L, d))
    return _induced(C, gens, vstar)
