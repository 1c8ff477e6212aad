"""End-to-end reproducible checks over the whole package.

Every body of results is bundled into one criterion function that emits
labelled pass/fail records.  The table at the bottom is the single source
for both the command-line tag listing and the acceptance suite, so the two
can never drift apart.  All randomness is seeded; runs are deterministic.
"""

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from time import perf_counter

from .core import (
    Complex,
    DomainError,
    alpha_vector,
    contraction,
    counting_function,
    is_paving,
    is_unimodal,
    k_submasks,
    mask_of,
    pure_part,
    restriction,
    sum_complex,
    truncate,
    union,
)
from .lattice import (
    SetFamily,
    closure,
    flats,
    flats_paving,
    is_boolean_representable,
    j_complex,
    long_hyperplane_partition,
    moore_close,
    transversal_complex,
)
from .operators import (
    b_d,
    boxplus_point,
    graph_complex,
    is_graphic_boolean,
    oplus_point,
    plus_point,
    up,
    up_iter,
    up_iter_paving,
)
from .t_operator import (
    _is_gu,
    classify_minimality,
    enumerate_mgu,
    enumerate_mngu,
    dim1_gu_facts,
    everyres_classes,
    is_tbrsc,
    j_restriction_params,
    jijn,
    jt_complex,
    mgu_pairs,
    paving2_reps,
    paving_tbrsc_criterion,
    t_family,
    truncation_t_family,
    two_line_complex,
)
from .matroid import (
    check_pure_conjecture,
    h_star,
    is_matroid,
    is_near_matroid,
    is_shellable,
    l_mu,
    lines,
    matroid_extension_candidate,
    rho,
    search_matroid_extensions,
    shelling_certificates,
    truncation_is_brsc_for_near_matroid,
)
from .iso import all_complexes, canonical_complex, graphs_up_to_iso, paving_complexes
from .catalog import desargues, named, non_desargues


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class CriterionReport:
    tag: str
    title: str
    budget: float
    elapsed: float = 0.0
    checks: list = field(default_factory=list)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def lines(self):
        out = []
        for c in self.checks:
            mark = "PASS" if c.ok else "FAIL"
            extra = f"  [{c.detail}]" if c.detail and not c.ok else ""
            out.append(f"  {mark}  {c.label}{extra}")
        return out


def tri(*t):
    return mask_of(tuple(x - 1 for x in t))


# ------------------------------------------------------------------ samplers


def random_complex(rng, max_n=7):
    n = rng.randint(1, max_n)
    full = (1 << n) - 1
    gens = [rng.randint(0, full) for _ in range(rng.randint(0, 8))]
    return Complex(n, gens)


def random_paving(rng, n, d, keep=0.6):
    full = (1 << n) - 1
    top = [X for X in k_submasks(full, d + 1) if rng.random() < keep]
    return Complex(n, set(top) | set(k_submasks(full, d)))


def random_moore_family(rng, n):
    sets = {rng.randint(0, (1 << n) - 1) for _ in range(rng.randint(0, 6))}
    return moore_close(n, sets | {0})


def random_line_union(rng, n, count):
    """Union of count random line complexes B_2(L); always a TBRSC paving
    complex of dimension 2."""
    gens = set(k_submasks((1 << n) - 1, 2))
    for _ in range(count):
        size = rng.randint(2, n - 1)
        L = mask_of(rng.sample(range(n), size))
        gens |= set(b_d(n, L, 2).facets)
    return Complex(n, gens)


def _forest_complex(nv, edges):
    """Forest matroid on the edge set of a graph with nv nodes."""

    def acyclic(sel):
        parent = list(range(nv + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in sel:
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
        return True

    gens = set()
    for r in range(1, len(edges) + 1):
        for combo in combinations(range(len(edges)), r):
            if acyclic([edges[t] for t in combo]):
                gens.add(mask_of(combo))
    return Complex(len(edges), gens)


def random_matroid(rng):
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(1, 7)
        k = rng.randint(1, n)
        M = Complex(n, set(k_submasks((1 << n) - 1, k)))
    else:
        nv = rng.randint(3, 5)
        pool = list(combinations(range(1, nv + 1), 2))
        edges = rng.sample(pool, rng.randint(2, min(6, len(pool))))
        M = _forest_complex(nv, edges)
    if kind == 2 and M.dim >= 1:
        M = truncate(M, rng.randint(1, M.dim + 1))
    return M


def _set_partitions(items):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {head}] + part[i + 1 :]
        yield [{head}] + part


def _rho_is_graded(C):
    """Whether rho of a near-matroid is defined on every proper flat and
    strictly increases along flat chains."""
    rm = rho(C)
    full = C.full_mask
    if any(F != full and F not in rm for F in flats(C).members):
        return False
    return all(rm[F] < rm[G] for F in rm for G in rm if F != G and F & ~G == 0)


def _lines_decompose(C):
    """Whether the flats of a paving complex of dimension d are every set of
    fewer than d points, the lines and V, with two lines meeting in fewer
    than d points."""
    d = is_paving(C)
    ls = lines(C).members
    small = sum(1 for F in flats(C).members if F.bit_count() < d)
    return small == sum(comb(C.n, k) for k in range(d)) and all(
        (L & L2).bit_count() < d for L, L2 in combinations(ls, 2)
    )


def _top_facets_through_lines(C):
    """Whether the top facets of a paving complex are the union of l_mu over
    its lines."""
    d = is_paving(C)
    mu = set()
    for L in lines(C):
        mu |= l_mu(C, L).members
    return mu == {f for f in C.facets if f.bit_count() == d + 1}


def _intersection_certificates(order):
    """Per facet B of order, the intersections of B with the facets before it
    that miss exactly one point of B, or None when some intersection lies in
    none of them, so that B meets the earlier facets in a complex that is
    not pure of dimension |B| - 2."""
    certs = []
    for i, B in enumerate(order):
        inters = {B & A for A in order[:i]}
        top = {x for x in inters if x.bit_count() == B.bit_count() - 1}
        if any(all(x & ~t for t in top) for x in inters):
            return None
        certs.append(tuple(sorted(top)))
    return tuple(certs)


# ------------------------------------------------------------------ criteria


def crit_up(check):
    rng = random.Random(101)
    C = named("cfup")
    want = {X for X in range(1 << C.n) if X.bit_count() <= 2} | {C.full_mask}
    check(
        "flats of the up complex of the four-point example are the low sets plus V",
        set(flats(up(C)).members) == want,
    )
    drawn = [random_complex(rng, 7) for _ in range(1000)]
    bad = 0
    for D in drawn:
        fam = SetFamily(D.n, set(D.faces) | {D.full_mask})
        if up(D) != j_complex(fam):
            bad += 1
    check(
        "matrix of all faces plus V represents the up complex on 1000 random complexes",
        bad == 0,
        f"{bad} disagreements",
    )
    bad = 0
    done = 0
    while done < 60:
        n = rng.randint(3, 8)
        d = rng.choice((1, 2))
        P = random_paving(rng, n, d)
        if is_paving(P) != d:
            continue
        done += 1
        for m in range(4):
            if up_iter(P, m) != up_iter_paving(P, m):
                bad += 1
    check(
        "iterated up closed form matches the iterated definition on random paving complexes",
        bad == 0,
    )
    bad = sum(1 for D in drawn if contraction(up(plus_point(D)), 1 << D.n) != D)
    check(
        "adding an isolated point p, taking up and contracting p gives each of the 1000 complexes back",
        bad == 0,
        f"{bad} failures",
    )
    bad = 0
    for D in drawn:
        old = flats(D).members
        if set(flats(oplus_point(D)).members) != old | {F | 1 << D.n for F in old}:
            bad += 1
    check(
        "the flats of the cone over each of them are its flats, with and without the apex",
        bad == 0,
        f"{bad} failures",
    )
    bad = done = 0
    for D in drawn:
        if not is_boolean_representable(D)[0]:
            continue
        done += 1
        cl = flats(D).closure
        p = 1 << D.n
        want = set(D.faces) | {p} | {1 << v | p for v in range(D.n)}
        want |= {I | p for I in D.faces if cl(I) != D.full_mask}
        if boxplus_point(D).faces != want:
            bad += 1
    check(
        f"on the {done} representable ones, the faces of the boxplus are the old faces, p alone, "
        "p with one old vertex, and I + p whenever cl(I) is not V",
        bad == 0,
        f"{bad} failures",
    )
    graphs = random.Random(113)
    bad = 0
    for _ in range(300):
        n = graphs.randint(2, 7)
        edges = {e for e in k_submasks((1 << n) - 1, 2) if graphs.random() < 0.5}
        U = up(graph_complex(n, edges))
        ok, found = is_graphic_boolean(U)
        if not ok or up(graph_complex(n, found.members)) != U:
            bad += 1
    check(
        "the up of each of 300 random graphs on 2-7 vertices is recognised as graphic, with an edge set whose up is the same complex",
        bad == 0,
        f"{bad} failures",
    )


def crit_rota_cex(check):
    a, uni = counting_function(named("jnmk", n=16, m=6, k=3))
    check("face counts of J(16,6,3) are (1,16,15,20)", a == (1, 16, 15, 20), str(a))
    check("J(16,6,3) is not unimodal", not uni)
    au = alpha_vector(up(named("jnmk", n=26, m=6, k=3)))
    check(
        "up of J(26,6,3) has 325 pairs, more than its triples",
        au[2] == 325 and au[2] > au[3],
        str(au),
    )
    check("up of J(26,6,3) is not unimodal", not is_unimodal(au))


def crit_unimodality(check):
    crit_rota_cex(check)
    hits = []
    for m in range(3, 9):
        for n in range(max(m, 4), 27):
            au = alpha_vector(up(named("jnmk", n=n, m=m, k=3)))
            if not is_unimodal(au):
                hits.append((m, n))
    check(
        "sweep of up of J(n,m,3) over m <= 8, n <= 26: only (m,n) = (6,26) fails unimodality",
        hits == [(6, 26)],
        str(hits),
    )


def crit_flats(check):
    rng = random.Random(103)
    bad = 0
    done = 0
    while done < 2000:
        n = rng.randint(4, 9)
        d = rng.choice((2, 3))
        if d >= n - 1:
            d = 2
        C = random_paving(rng, n, d)
        if is_paving(C) != d:
            continue
        done += 1
        if set(flats_paving(C).members) != set(flats(C).members):
            bad += 1
    check(
        "closed-form flats equal brute-force flats on 2000 random paving complexes",
        bad == 0,
        f"{bad} disagreements",
    )
    l1, l2, l3 = long_hyperplane_partition(named("lhne"))
    check(
        "ten-point example splits its long hyperplanes as ({123},{345},{789,890})",
        set(l1.members) == {mask_of((1, 2, 3))}
        and set(l2.members) == {mask_of((3, 4, 5))}
        and set(l3.members) == {mask_of((7, 8, 9)), mask_of((8, 9, 0))},
    )


def crit_truncation(check):
    rng = random.Random(104)
    stray = []
    for n in range(2, 6):
        for d in range(1, n - 1):
            for C in paving_complexes(n, d):
                if C.dim != d:
                    continue
                if is_tbrsc(C) and not is_boolean_representable(C)[0]:
                    stray.append((n, d))
    check("no paving TBRSC on up to 5 vertices fails representability", stray == [], str(stray))
    total = 0
    stray = 0
    for n in range(1, 6):
        for C in all_complexes(n):
            total += 1
            if is_tbrsc(C) and not is_boolean_representable(C)[0]:
                stray += 1
    check(
        f"full scan of all {total} complexes on up to 5 vertices finds none either",
        stray == 0,
        f"{stray} strays",
    )
    found = []
    for C in paving_complexes(6, 2):
        if C.dim != 2:
            continue
        if is_tbrsc(C) and not is_boolean_representable(C)[0]:
            found.append(canonical_complex(C))
    want = {canonical_complex(named("six", case=c)) for c in range(1, 6)}
    check(
        "six-vertex scan finds exactly the five catalogued classes",
        len(found) == 5 and set(found) == want,
        f"{len(found)} classes",
    )
    bad = 0
    for _ in range(500):
        n = rng.randint(5, 7)
        A = random_line_union(rng, n, rng.randint(1, 3))
        B = random_line_union(rng, n, rng.randint(1, 3))
        okA, _ = paving_tbrsc_criterion(A)
        okB, _ = paving_tbrsc_criterion(B)
        U = union(A, B)
        okU, _ = paving_tbrsc_criterion(U)
        if not (okA and okB and okU and is_tbrsc(U)):
            bad += 1
    check("500 random unions of paving TBRSC pairs stay TBRSC", bad == 0, f"{bad} failures")
    N = named("ncu")
    okN, _ = paving_tbrsc_criterion(N)
    check(
        "the two-line union example is a TBRSC but not representable",
        okN and not is_boolean_representable(N)[0],
    )


def crit_nfb(check):
    C = named("nfb", n=6)
    ok, witness = paving_tbrsc_criterion(C)
    check(
        "the 15-point interlocked-chain complex fails the paving TBRSC test at {x0,x1,x6}",
        not ok and witness == mask_of((0, 1, 6)),
        f"witness {witness}",
    )
    bad = [
        v
        for v in range(C.n)
        if not paving_tbrsc_criterion(restriction(C, C.full_mask & ~(1 << v)))[0]
    ]
    check("every one-vertex restriction passes it", bad == [], str(bad))


def crit_pure_conjecture(check):
    rng = random.Random(106)
    C = named("cepc")
    check("the nine-point example is representable", is_boolean_representable(C)[0])
    r = check_pure_conjecture(C, 3)
    check(
        "pure part of its rank-3 truncation is not representable",
        not r["pure_k_is_brsc"],
    )
    B = named("bfour")
    check("the height-4 column complex is pure", all(f.bit_count() == 4 for f in B.facets))
    idx = {lab: i for i, lab in enumerate(B.labels)}
    cols = {s: idx[s] for s in ("1000", "1110", "1101", "0110", "1010", "0011", "1011")}
    a, b, c, d, e, f, g = (
        cols[s] for s in ("1000", "1110", "1101", "0110", "1010", "0011", "1011")
    )
    verdicts = [
        ("abc", (a, b, c), True),
        ("abe", (a, b, e), True),
        ("bfg", (b, f, g), True),
        ("abd", (a, b, d), False),
        ("bde", (b, d, e), False),
        ("bcf", (b, c, f), False),
        ("bcg", (b, c, g), False),
    ]
    bad = [name for name, verts, want in verdicts if B.has(mask_of(verts)) != want]
    check("all seven printed column-set verdicts reproduce", bad == [], str(bad))
    B3 = truncate(B, 3)
    check(
        "its rank-3 truncation is a TBRSC but not representable",
        is_tbrsc(B3) and not is_boolean_representable(B3)[0],
    )
    P = pure_part(named("cepct"))
    check("pure part of the eight-point example is not a TBRSC", not is_tbrsc(P))
    fam = set(t_family(P).members)
    Q = tri(3, 4, 5, 6)
    bad = [
        want
        for want in k_submasks(Q, 3)
        if any(T & Q == want for T in fam)
    ]
    check(
        "no T-family member traces a triple on its blocked four points",
        bad == [],
        str(bad),
    )
    done = 0
    bad = 0
    near = []
    while done < 200:
        D = random_complex(rng, 7)
        if D.dim < 2 or not is_boolean_representable(D)[0]:
            continue
        done += 1
        if not check_pure_conjecture(D, 3)["pure_k_is_tbrsc"]:
            bad += 1
        if is_near_matroid(D)[0]:
            near.append(D)
    check(
        "pure part of the rank-3 truncation stays a TBRSC on 200 random representable complexes",
        bad == 0,
        f"{bad} failures",
    )
    bad = sum(1 for D in near if not _rho_is_graded(D))
    check(
        f"rho is total on the proper flats and strictly increasing along flat chains on the {len(near)} near-matroids among them",
        bad == 0,
        f"{bad} failures",
    )
    pairs = [(D, k) for D in near for k in range(1, D.dim + 2)]
    bad = sum(1 for D, k in pairs if not truncation_is_brsc_for_near_matroid(D, k))
    check(
        f"on the same near-matroids, the rho-calibrated flat families represent H_k and pure(H_k) at all {len(pairs)} pairs with k <= dim + 1",
        bad == 0,
        f"{bad} failures",
    )


def crit_sums(check):
    for n, expect in ((7, []), (8, [(4, 4, 0)])):
        verdicts = {}
        bad = []
        pairs = 0
        sizes = [L for L in range(1 << n) if 2 <= L.bit_count() <= n - 1]
        for L in sizes:
            for Lp in sizes:
                pairs += 1
                key = (
                    (L & ~Lp).bit_count(),
                    (Lp & ~L).bit_count(),
                    (L & Lp).bit_count(),
                )
                if key not in verdicts:
                    a, b, c = key
                    # standard position for the class: a block, b block, shared c block
                    M = mask_of(range(a)) | mask_of(range(a + b, a + b + c))
                    Mp = mask_of(range(a, a + b + c))
                    S = sum_complex(b_d(n, M, 2), b_d(n, Mp, 2))
                    br = is_boolean_representable(S)[0]
                    tb = is_tbrsc(S)
                    verdicts[key] = (br, tb)
                br, tb = verdicts[key]
                small_side = key[0] <= 3 or key[1] <= 3
                if not (br == tb == small_side):
                    bad.append(key)
        bad_classes = sorted({k for k in bad if k[0] >= k[1]})
        check(
            f"all {pairs} line pairs on {n} vertices: representable iff TBRSC iff one difference has at most 3 points",
            bad_classes == [],
            f"failing classes {bad_classes}",
        )
        nonbr = sorted(
            {k for k, (br, _) in verdicts.items() if not br and k[0] >= k[1]}
        )
        check(
            f"non-representable sum classes on {n} vertices: {expect or 'none'}",
            nonbr == expect,
            f"found {nonbr}",
        )


def _extensions_truncate_to(extensions, C):
    return all(is_matroid(E)[0] and truncate(E, C.dim + 1) == C for E in extensions)


def crit_extensions(check):
    D = desargues()
    pts = list(combinations(range(1, 6), 2))
    vid = {p: i for i, p in enumerate(pts)}
    lines10 = {
        mask_of((vid[a, b], vid[a, c], vid[b, c]))
        for a, b, c in combinations(range(1, 6), 3)
    }
    shorts15 = {
        mask_of((vid[p], vid[q]))
        for p, q in combinations(pts, 2)
        if not set(p) & set(q)
    }
    want = {0, D.full_mask} | {1 << v for v in range(10)} | lines10 | shorts15
    check("flats of the graph complex: trivial ones, 10 lines, 15 disjoint pairs", set(flats(D).members) == want)
    part_members = set()
    for part in _set_partitions(list(range(1, 6))):
        m = 0
        for block in part:
            for a, b in combinations(sorted(block), 2):
                m |= 1 << vid[a, b]
        part_members.add(m)
    fam = set(t_family(D).members)
    check(
        "its T-family is the 52 clique-unions of vertex partitions",
        fam == part_members and len(fam) == 52,
        f"{len(fam)} members",
    )
    JT = jt_complex(D)
    check(
        "the T-family complex is a 125-facet matroid of dimension 3",
        is_matroid(JT)[0] and JT.dim == 3 and len(JT.facets) == 125,
    )
    JT2, verdict = matroid_extension_candidate(D)
    check("extension candidate verdict: unique", verdict == "unique_extension" and JT2 == JT)
    check("the unique extension truncates back to the graph complex", truncate(JT2, D.dim + 1) == D)
    out = search_matroid_extensions(D)
    check(
        "exhaustive search returns exactly that extension",
        out.complete and out.extensions == [JT],
    )
    check(
        "every extension found is a matroid whose truncation is the graph complex",
        _extensions_truncate_to(out.extensions, D),
    )
    _, verdict = matroid_extension_candidate(named("triang"))
    check("the triangle-free example admits no extension", verdict == "no_extension")
    S = named("sme")
    cand, verdict = matroid_extension_candidate(S)
    check(
        "the six-point example is inconclusive, with a rank-5 matroid candidate",
        verdict == "inconclusive" and cand.dim == 4 and is_matroid(cand)[0],
    )
    out = search_matroid_extensions(S)
    base = set(k_submasks((1 << 6) - 1, 4)) - {
        X for X in k_submasks((1 << 6) - 1, 4) if X & tri(4, 5, 6) == tri(4, 5, 6)
    }
    named_three = [Complex(6, base - {tri(1, 2, 3, k)}) for k in (4, 5, 6)]
    check(
        "its search finds 7 extensions including the three one-facet removals",
        out.complete
        and len(out.extensions) == 7
        and all(any(E == Q for E in out.extensions) for Q in named_three),
    )
    check(
        "every extension found is a matroid whose truncation is the six-point example",
        _extensions_truncate_to(out.extensions, S),
    )
    out = search_matroid_extensions(non_desargues())
    check(
        "the adjoined-line variant admits no extension within the search budget",
        out.complete and out.extensions == [],
        f"complete={out.complete} found={len(out.extensions)}",
    )


def crit_rhodes_dowling(check):
    for m, n in ((2, 3), (2, 4), (3, 3)):
        R = named("rhodes", m=m, n=n)
        T4 = truncation_t_family(R, 4)
        check(
            f"rank-4 truncation family of the reduced complex equals its flats (Z{m}, n={n})",
            set(T4.members) == set(flats(R).members),
        )
    R = named("rhodes", m=2, n=3)
    J3 = j_complex(truncation_t_family(R, 3), R.labels)
    check(
        "rank-3 family at (Z2, n=3) spans dimension at least 3",
        J3.dim >= 3,
        f"computed dimension {J3.dim}: at n=3 the rank-3 family equals the flats, "
        "whose complex is the original 2-dimensional complex; the intended chain "
        "needs two edges on disjoint vertex pairs, which first exist at n=4",
    )
    R = named("rhodes", m=2, n=4)
    J3 = j_complex(truncation_t_family(R, 3), R.labels)
    check(
        "rank-3 family at (Z2, n=4) spans dimension at least 3",
        J3.dim >= 3,
        f"dimension {J3.dim}",
    )
    for m, n in ((2, 3), (3, 3)):
        Dw = named("dowling", m=m, n=n)
        T3 = truncation_t_family(Dw, 3)
        check(
            f"rank-3 family of the Dowling complex equals its flats (Z{m}, n={n})",
            set(T3.members) == set(flats(Dw).members),
        )
    bad = []
    for name, m, n in (
        ("rhodes", 2, 3),
        ("rhodes", 2, 4),
        ("rhodes", 3, 3),
        ("dowling", 2, 3),
        ("dowling", 3, 3),
    ):
        if not is_matroid(named(name, m=m, n=n))[0]:
            bad.append((name, m, n))
    check("all tested instances of both constructions are matroids", bad == [], str(bad))


def crit_shellability(check):
    rng = random.Random(110)
    found = []

    def shelling(C):
        sh = is_shellable(C)
        if sh is not None:
            found.append((C, sh))
        return sh

    E = named("exs")
    check("the two-triangle complex is unshellable", shelling(E) is None)
    check("its up complex is shellable", shelling(up(E)) is not None)
    B = named("boom")
    check("the consecutive-runs complex is unshellable", shelling(B) is None)
    check("its line complex is shellable", shelling(h_star(B)) is not None)
    T = named("tracks")
    check("the five-line complex is shellable", shelling(T) is not None)
    check("its line complex is unshellable", shelling(h_star(T)) is None)
    bad = []
    for name in ("desargues", "non_desargues"):
        C = named(name)
        sh = shelling(C)
        if (
            len(C.facets) <= 35
            or sh is None
            or sorted(sh.order) != sorted(C.facets)
            or _intersection_certificates(sh.order) != sh.certificates
        ):
            bad.append(name)
    check(
        "the matroid complexes desargues and non_desargues, past the old 35-facet cap, are shellable",
        bad == [],
        str(bad),
    )
    done = 0
    bad = 0
    pavings = [B, T]
    while done < 200:
        n = rng.randint(5, 7)
        C = random_line_union(rng, n, rng.randint(1, 3))
        if is_paving(C) != 2 or not is_boolean_representable(C)[0]:
            continue
        done += 1
        pavings.append(C)
        if shelling(h_star(C)) is not None and shelling(C) is None:
            bad += 1
    check(
        "a shellable line complex forces shellability on 200 random representable paving complexes",
        bad == 0,
        f"{bad} failures",
    )
    bad = sum(1 for C in pavings if not _lines_decompose(C))
    check(
        "on those and the two named ones, the flats are the small sets, the lines and V, and two lines meet in fewer than d points",
        bad == 0,
        f"{bad} failures",
    )
    bad = sum(1 for C in pavings if not _top_facets_through_lines(C))
    check(
        "on the same complexes, the top facets are the faces I + p with I a d-subset of a line and p off it",
        bad == 0,
        f"{bad} failures",
    )
    bad = sum(
        1
        for C, sh in found
        if not sh.certificates
        == shelling_certificates(C, sh.order)
        == _intersection_certificates(sh.order)
    )
    check(
        f"each of the {len(found)} shellings found above carries the certificates that shelling_certificates and a direct scan of each step's intersections give",
        bad == 0,
        f"{bad} failures",
    )


M6_DEFECTS = (
    ((1, 2, 4), (1, 3, 4), (2, 3, 4), (3, 5, 6)),
    ((1, 2, 4), (1, 3, 4), (2, 3, 4), (4, 5, 6)),
    ((1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 3, 5), (2, 4, 5)),
    ((1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 4, 5), (2, 4, 5), (3, 4, 5)),
    ((1, 2, 3), (1, 3, 4), (1, 2, 5), (3, 4, 6)),
    ((1, 2, 3), (1, 3, 4), (2, 5, 6), (3, 4, 6)),
    ((1, 2, 3), (1, 3, 4), (2, 4, 5), (3, 5, 6)),
    ((1, 2, 3), (1, 3, 4), (2, 3, 5), (3, 4, 6), (3, 5, 6)),
    ((1, 2, 3), (1, 3, 4), (1, 4, 5), (2, 3, 5), (2, 4, 5)),
    ((1, 2, 3), (1, 4, 6), (2, 4, 5), (3, 5, 6)),
)


def _paving2_from_defect(n, missing):
    full = (1 << n) - 1
    gens = set(k_submasks(full, 2)) | (set(k_submasks(full, 3)) - set(missing))
    return Complex(n, gens)


def crit_mngu6(check):
    out = enumerate_mngu(6)
    want = {
        canonical_complex(_paving2_from_defect(6, [tri(*t) for t in defect]))
        for defect in M6_DEFECTS
    }
    check(
        "the six-point minimal-non-going-up classes are exactly the ten listed defect patterns",
        len(out) == 10 and set(out) == want,
        f"{len(out)} classes",
    )


def crit_computemgu(check, n=7):
    out = enumerate_mgu(n)
    want = (n * n - 9 * n + 22) // 2
    check(
        f"minimal going-up classes on {n} vertices: count {len(out)} equals ({n}^2-9*{n}+22)/2 = {want}",
        len(out) == want,
    )
    verdicts = [classify_minimality(C) for C in out]
    check(
        f"every listed class on {n} vertices is mGU",
        all(v == "mGU" for v in verdicts),
        ", ".join(sorted(set(verdicts))),
    )
    sigs = {frozenset(m.bit_count() for m in t_family(C).members) for C in out}
    check(
        f"the T(H) member-size sets separate the {len(out)} classes on {n} vertices",
        len(sigs) == len(out),
        f"{len(sigs)} distinct",
    )
    if n <= 5:
        found = {canonical_complex(C) for C in paving2_reps(n) if classify_minimality(C) == "mGU"}
        check(
            f"an exhaustive paving scan on {n} vertices finds exactly the listed mGU classes",
            found == {canonical_complex(C) for C in out},
            f"{len(found)} found",
        )


def _restrictions_are_two_line(i, j, n):
    C = jijn(i, j, n)
    return all(
        restriction(C, C.full_mask & ~(1 << (p - 1)))
        == two_line_complex(*sorted(j_restriction_params(i, j, n, p)), n - 1)
        for p in range(1, n + 1)
    )


def crit_going_up(check):
    check(
        "one minimal-non-going-up class on 4 vertices",
        len(enumerate_mngu(4)) == 1,
    )
    check("two on 5 vertices", len(enumerate_mngu(5)) == 2)
    crit_mngu6(check)
    count = 0
    bad = []
    for n in range(2, 8):
        for edges in graphs_up_to_iso(n):
            gens = set(k_submasks((1 << n) - 1, 2)) - set(edges)
            C = Complex(n, gens)
            if is_paving(C) != 1:
                continue
            facts = dim1_gu_facts(C)
            cls = classify_minimality(C)
            if (facts["gu"], facts["mngu"], facts["mgu"]) != (_is_gu(C), cls == "MNGU", cls == "mGU"):
                bad.append((n, edges))
            count += 1
    check(
        "defect-graph criteria agree with the generic machinery on all 1245 graph complexes up to 7 vertices",
        count == 1245 and bad == [],
        f"{count} checked, {len(bad)} disagree: {bad[:3]}",
    )
    count = 0
    bad = []
    for n in range(4, 7):
        for C in paving2_reps(n):
            if _is_gu(C) != (jt_complex(C).dim > C.dim):
                bad.append(sorted(C.facets))
            count += 1
    check(
        "the going-up witness exists exactly when dim J(T(H)) > dim H on all 2172 dimension-2 paving classes on 4-6 vertices",
        count == 2172 and bad == [],
        f"{count} checked, {len(bad)} disagree: {bad[:3]}",
    )
    for n in range(4, 10):
        crit_computemgu(check, n=n)
    bad = []
    for n in range(4, 10):
        for i, j in mgu_pairs(n):
            C = jijn(i, j, n)
            tb, _ = paving_tbrsc_criterion(C)
            br = is_boolean_representable(C)[0]
            if not tb or br != (j == 3):
                bad.append((i, j, n))
    check(
        "every two-line complex is a TBRSC, and representable exactly when the long line has 3 points",
        bad == [],
        str(bad),
    )
    bad = [
        (i, j, n)
        for n in (9, 10)
        for i, j in mgu_pairs(n)
        if not _restrictions_are_two_line(i, j, n)
    ]
    check(
        "deleting any vertex of a two-line complex on 9 or 10 vertices leaves the two-line complex of the restricted sizes",
        bad == [],
        str(bad),
    )
    check(
        "every-restriction classes on 9 vertices: exactly (3,6)",
        everyres_classes(9) == [(3, 6)],
    )
    out10 = everyres_classes(10)
    check(
        "three classes on 10 vertices, matching (n^2-15n+56)/2",
        out10 == [(3, 6), (3, 7), (4, 7)] and len(out10) == (100 - 150 + 56) // 2,
        str(out10),
    )
    verdict_cache = {}

    def restricted_is_mgu(a, b, m):
        key = (min(a, b), max(a, b), m)
        if key not in verdict_cache:
            std = two_line_complex(key[0], key[1], m)
            verdict_cache[key] = classify_minimality(std) == "mGU"
        return verdict_cache[key]

    bad = []
    for n in range(5, 10):
        for i, j in mgu_pairs(n):
            if not any(
                restricted_is_mgu(*j_restriction_params(i, j, n, p), n - 1)
                for p in range(1, n + 1)
            ):
                bad.append((i, j, n))
    check(
        "every minimal going-up class on 5..9 vertices keeps a one-vertex restriction in the family",
        bad == [],
        str(bad),
    )


def crit_oracles(check):
    rng = random.Random(112)
    bad = 0
    for _ in range(2000):
        fam = random_moore_family(rng, rng.randint(1, 6))
        if transversal_complex(fam) != j_complex(fam):
            bad += 1
    check(
        "chain route equals matrix route on 2000 random closure families",
        bad == 0,
        f"{bad} disagreements",
    )
    bad = 0
    for _ in range(400):
        C = random_complex(rng, 6)
        full = C.full_mask
        X = rng.randint(0, full)
        Y = X | rng.randint(0, full)
        cx, cy = closure(C, X), closure(C, Y)
        members = flats(C).members
        meet = full
        for F in members:
            if X & ~F == 0:
                meet &= F
        if X & ~cx or cx & ~cy or closure(C, cx) != cx or cx != meet:
            bad += 1
    check(
        "closure is extensive, monotone, idempotent, and meets the flats above its argument",
        bad == 0,
        f"{bad} violations",
    )
    bad_m = bad_br = bad_up = 0
    for _ in range(1000):
        M = random_matroid(rng)
        if not is_matroid(M)[0]:
            bad_m += 1
            continue
        if not is_boolean_representable(M)[0]:
            bad_br += 1
        if not is_matroid(up(M))[0]:
            bad_up += 1
    check("1000 sampled constructions all pass the exchange check", bad_m == 0, f"{bad_m} failures")
    check("every sampled matroid is representable", bad_br == 0, f"{bad_br} failures")
    check("the up complex of every sampled matroid is a matroid", bad_up == 0, f"{bad_up} failures")


@dataclass(frozen=True)
class Row:
    tag: str
    title: str
    budget: float
    fn: object
    acceptance: bool = True


REPRODUCE_TABLE = (
    Row("up", "Up operator: example flats, matrix route, iterated closed form", 10, crit_up),
    Row("unimodality", "Non-unimodal counting functions and the minimal parameters", 30, crit_unimodality),
    Row("flats", "Closed-form flats of paving complexes", 30, crit_flats),
    Row("truncation", "Small-vertex scans, the six-point classes, unions", 30, crit_truncation),
    Row("nfb", "Global failure with all one-vertex restrictions good", 60, crit_nfb),
    Row("pure-conjecture", "Pure parts of low-rank truncations", 120, crit_pure_conjecture),
    Row("sums", "Sums of two line complexes", 30, crit_sums),
    Row("extensions", "Matroid extensions and T-family complexes", 30, crit_extensions),
    Row("rhodes-dowling", "Group-labeled graph complexes and their truncation families", 120, crit_rhodes_dowling),
    Row("shellability", "Shellability splits between a complex and its line complex", 60, crit_shellability),
    Row("going-up", "Going-up classifications and the two-line family", 60, crit_going_up),
    Row("oracles", "Cross-module oracle agreement", 120, crit_oracles),
    Row("rota-cex", "The two non-unimodal examples alone", 30, crit_rota_cex, acceptance=False),
    Row("mngu6", "The ten six-point minimal-non-going-up classes alone", 120, crit_mngu6, acceptance=False),
    Row("computemgu", "Count of minimal going-up classes on 7 vertices", 120, crit_computemgu, acceptance=False),
)


def acceptance_rows():
    return tuple(r for r in REPRODUCE_TABLE if r.acceptance)


def available_tags():
    return tuple(r.tag for r in REPRODUCE_TABLE)


def run_criterion(tag):
    """Run one tagged criterion; returns its CriterionReport."""
    row = next((r for r in REPRODUCE_TABLE if r.tag == tag), None)
    if row is None:
        raise DomainError(f"unknown criterion {tag!r}")
    rep = CriterionReport(tag=row.tag, title=row.title, budget=row.budget)

    def check(label, ok, detail=""):
        rep.checks.append(Check(label, bool(ok), detail))
        return bool(ok)

    t0 = perf_counter()
    row.fn(check)
    rep.elapsed = perf_counter() - t0
    return rep
