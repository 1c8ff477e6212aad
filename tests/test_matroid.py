"""Matroid structure, extensions, shellability, and line-complex tests."""

import gc
import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsc import core, matroid
from brsc.core import (
    CapacityError,
    Complex,
    DomainError,
    _antichain,
    bits,
    is_paving,
    k_submasks,
    mask_of,
    pure_part,
    truncate,
)
from brsc.iso import all_complexes
from brsc.lattice import flats, is_boolean_representable
from brsc.matroid import (
    ExtensionSearch,
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
from brsc.catalog import desargues, named, non_desargues
from brsc.reproduce import _forest_complex, random_complex, random_line_union, random_matroid, random_paving, tri
from brsc.operators import b_d, up
from brsc.t_operator import jt_complex
from complex_helpers import complexes


def test_is_matroid_examples():
    U35 = Complex(5, set(k_submasks(0b11111, 3)))
    assert is_matroid(U35) == (True, None)
    assert is_matroid(desargues())[0]

    ok, pair = is_matroid(named("far"))
    assert not ok
    I, J = pair
    assert I.bit_count() == J.bit_count() + 1
    C = named("far")
    assert all(not C.has(J | (1 << p)) for p in bits(I & ~J))


def test_far_is_near_matroid_but_not_matroid():
    C = named("far")
    assert is_near_matroid(C) == (True, None)
    assert not is_matroid(C)[0]
    assert not is_boolean_representable(C)[0]
    rm = rho(C)
    assert rm[0] == 0
    for v in range(4):
        assert rm[1 << v] == 1
    with pytest.raises(DomainError):
        rm[0b1111]


def test_rho_on_desargues_flats():
    D = desargues()
    rm = rho(D)
    fl = set(flats(D).members)
    for F in fl:
        if F == D.full_mask:
            continue
        k = F.bit_count()
        assert rm[F] == (0 if k == 0 else 1 if k == 1 else 2)


def _size_consistent_everywhere(C):
    fl = flats(C)
    seen = {}
    for X in C.faces:
        F = fl.closure(X)
        if F in seen and seen[F] != X.bit_count():
            return False
        seen[F] = X.bit_count()
    return True


@given(complexes(5))
@settings(max_examples=150, deadline=None)
def test_matroid_iff_closure_determines_size(C):
    assert is_matroid(C)[0] == _size_consistent_everywhere(C)


def probe_is_matroid(C):
    """The exchange check with each face's extending points found by probing
    J + p against the faces for every point p outside J."""
    faces = C.faces
    good = {J: sum(1 << p for p in bits(C.full_mask & ~J) if J | (1 << p) in faces) for J in faces}
    by_size = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    for k in sorted(by_size):
        for I in by_size.get(k + 1, ()):
            for J in by_size[k]:
                if I & ~J & good[J] == 0:
                    return False, (I, J)
    return True, None


def test_is_matroid_matches_probe_loop_on_every_small_complex():
    seen = 0
    for n in range(1, 6):
        for C in all_complexes(n):
            assert is_matroid(C) == probe_is_matroid(C)
            seen += 1
    assert seen == 7020


def map_is_matroid(C):
    """The exchange check over a map of every face to its extending points:
    each face Z marks every p in Z as extending Z - p."""
    good = dict.fromkeys(C.faces, 0)
    for Z in C.faces:
        for p in bits(Z):
            good[Z ^ 1 << p] |= 1 << p
    by_size = {}
    for f in C.faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    for k in sorted(by_size):
        for I in by_size.get(k + 1, ()):
            for J in by_size[k]:
                if I & ~J & good[J] == 0:
                    return False, (I, J)
    return True, None


def test_is_matroid_matches_the_extension_map_loop():
    seen = 0
    for n in range(1, 6):
        for C in all_complexes(n):
            assert is_matroid(C) == map_is_matroid(C)
            seen += 1
    assert seen == 7020
    rng = random.Random(27)
    for _ in range(150):
        n = rng.randint(4, 8)
        samples = [
            random_complex(rng, 8),
            random_paving(rng, n, rng.randint(1, min(3, n - 1)), rng.uniform(0.2, 0.9)),
            random_matroid(rng),
            random_line_union(rng, n, rng.randint(1, 3)),
        ]
        for C in samples:
            assert is_matroid(C) == map_is_matroid(C)


def test_is_matroid_skips_faces_without_a_constraint():
    # every face of at most 4 of 26 points extends by every point outside
    # it, so no J carries a constraint and no face pair is compared
    C = named("uniform", k=5, n=26)
    t0 = time.perf_counter()
    assert is_matroid(C) == (True, None)
    assert time.perf_counter() - t0 < 10


@given(complexes(max_n=8))
@settings(max_examples=200, deadline=None)
def test_is_matroid_matches_probe_loop(C):
    assert is_matroid(C) == probe_is_matroid(C)


@given(complexes(5))
@settings(max_examples=120, deadline=None)
def test_faces_inside_a_closure_extend_to_it(C):
    # I inside the closure of J grows to a face with the same closure
    fl = flats(C)
    faces = sorted(C.faces)
    for J in faces:
        clJ = fl.closure(J)
        for I in faces:
            if I & ~clJ:
                continue
            assert any(
                I & ~I2 == 0 and fl.closure(I2) == clJ for I2 in faces
            )


def test_near_matroid_chain_steps_raise_rank_by_one():
    rng = random.Random(41)
    done = 0
    while done < 30:
        n = rng.randint(3, 5)
        full = (1 << n) - 1
        gens = [rng.randrange(1 << n) for _ in range(rng.randint(1, 6))]
        C = Complex(n, gens)
        if not is_near_matroid(C)[0]:
            continue
        done += 1
        fl = flats(C)
        rm = rho(C)
        proper = [F for F in fl if F != full]
        for F in proper:
            for F2 in proper:
                if F == F2 or F & ~F2:
                    continue
                for a in bits(F2 & ~F):
                    G = fl.closure(F | (1 << a))
                    assert G & ~F2 == 0
                    assert rm[G] == rm[F] + 1


def _assert_rho_graded(C):
    fl = flats(C)
    rm = rho(C)
    proper = [F for F in fl if F != C.full_mask]
    assert all(F in rm for F in proper)
    for F in proper:
        for G in proper:
            if F != G and F & ~G == 0:
                assert rm[F] < rm[G]


def test_rho_is_total_and_strictly_monotone():
    for name in ("sme", "boom", "tracks", "triang", "lhne"):
        _assert_rho_graded(named(name))
    _assert_rho_graded(desargues())
    _assert_rho_graded(named("far"))


@given(complexes(5))
@settings(max_examples=150, deadline=None)
def test_rho_is_total_and_strictly_monotone_on_near_matroids(C):
    if is_near_matroid(C)[0]:
        _assert_rho_graded(C)


def test_truncation_representation_for_matroids():
    U46 = Complex(6, set(k_submasks((1 << 6) - 1, 4)))
    assert truncation_is_brsc_for_near_matroid(U46, 3)
    D = desargues()
    assert truncation_is_brsc_for_near_matroid(D, 2)
    K5 = jt_complex(D)
    assert truncation_is_brsc_for_near_matroid(K5, 3)
    with pytest.raises(DomainError):
        truncation_is_brsc_for_near_matroid(named("far"), 2)


def test_pure_conjecture_fixtures():
    out = check_pure_conjecture(named("cepc"), 3)
    assert not out["pure_k_is_brsc"]

    B = named("bfour")
    out = check_pure_conjecture(B, 3)
    assert not out["pure_k_is_brsc"]
    assert out["pure_k_is_tbrsc"]

    out = check_pure_conjecture(named("cepct"), 4)
    assert not out["pure_k_is_tbrsc"]


def test_pure_part_of_low_dimension_brsc_is_brsc():
    rng = random.Random(7)
    done = 0
    while done < 40:
        n = rng.randint(2, 6)
        gens = [rng.randrange(1 << n) for _ in range(rng.randint(1, 7))]
        C = Complex(n, gens)
        if C.dim > 2 or not is_boolean_representable(C)[0]:
            continue
        done += 1
        assert is_boolean_representable(pure_part(C))[0]


def test_extension_candidate_verdicts():
    D = desargues()
    JT, verdict = matroid_extension_candidate(D)
    assert verdict == "unique_extension"
    assert JT.dim == 3
    assert len(JT.facets) == 125

    T, verdict = matroid_extension_candidate(named("triang"))
    assert verdict == "no_extension"
    assert T.dim == 3

    S, verdict = matroid_extension_candidate(named("sme"))
    assert verdict == "inconclusive"
    assert S.dim == 4
    assert is_matroid(S)[0]
    assert S.faces == frozenset(
        X
        for X in range(1 << 6)
        if X.bit_count() <= 5 and (X & tri(4, 5, 6)).bit_count() <= 2
    )

    assert truncate(JT, D.dim + 1) == D

    free = Complex(4, [0b1111])
    F, verdict = matroid_extension_candidate(free)
    assert verdict == "no_extension" and F == free

    with pytest.raises(DomainError):
        matroid_extension_candidate(named("far"))


def test_unique_extension_candidates_truncate_back():
    rng = random.Random(29)
    unique = 0
    for _ in range(150):
        M = random_matroid(rng)
        JT, verdict = matroid_extension_candidate(M)
        if verdict == "unique_extension":
            unique += 1
            assert truncate(JT, M.dim + 1) == M
    assert unique >= 10


def test_extension_search_on_sme():
    out = search_matroid_extensions(named("sme"))
    assert out.complete
    assert len(out.extensions) == 7
    base = set(k_submasks((1 << 6) - 1, 4)) - {
        X for X in k_submasks((1 << 6) - 1, 4) if X & tri(4, 5, 6) == tri(4, 5, 6)
    }
    for k in (4, 5, 6):
        Q = Complex(6, base - {tri(1, 2, 3, k)})
        assert any(E == Q for E in out.extensions)
    for E in out.extensions:
        assert E.dim == 3
        assert truncate(E, 3) == named("sme")


def test_extension_search_finds_the_unique_one_for_desargues():
    D = desargues()
    out = search_matroid_extensions(D)
    assert out.complete
    assert len(out.extensions) == 1
    assert out.extensions[0] == jt_complex(D)


def test_no_extension_past_the_adjoined_line():
    out = search_matroid_extensions(non_desargues())
    assert out.complete
    assert out.extensions == []


def test_extension_search_on_small_graphic_matroids():
    # any spanning star blocks the cover: no 5-cycle candidate contains it,
    # so neither graph admits an extension
    k221 = [(a, b) for a, b in combinations(range(1, 6), 2) if (a, b) not in ((1, 2), (3, 4))]
    C = _forest_complex(5, k221)
    out = search_matroid_extensions(C)
    assert out.complete and out.extensions == []

    k23 = [(a, b) for a in (1, 2) for b in (3, 4, 5)]
    C2 = _forest_complex(5, k23)
    out2 = search_matroid_extensions(C2)
    assert out2.complete and out2.extensions == []


EXTENSION_INPUTS = {
    "sme": lambda: named("sme"),
    "U(2,5)": lambda: Complex(5, set(k_submasks((1 << 5) - 1, 2))),
    "U(3,6)": lambda: Complex(6, set(k_submasks((1 << 6) - 1, 3))),
    "C6 forest, rank 3": lambda: truncate(
        _forest_complex(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]), 3
    ),
}


@pytest.mark.parametrize("name", EXTENSION_INPUTS)
def test_every_extension_is_a_matroid_truncating_to_the_input(name):
    C = EXTENSION_INPUTS[name]()
    out = search_matroid_extensions(C)
    assert out.complete and out.extensions
    for E in out.extensions:
        assert E.dim == C.dim + 1
        assert is_matroid(E)[0]
        assert truncate(E, C.dim + 1) == C


def test_budget_exhaustion_is_reported():
    out = search_matroid_extensions(named("sme"), budget=3)
    assert not out.complete
    assert out.nodes >= 3


def test_negative_budget_is_refused():
    with pytest.raises(DomainError, match="budget must be >= 0"):
        search_matroid_extensions(named("sme"), budget=-1)
    out = search_matroid_extensions(named("sme"), budget=0)
    assert not out.complete and out.nodes == 0


# Parent route of search_matroid_extensions, kept as its oracle.
_IN, _OUT = 1, 2


def reference_extension_search(C, budget=10**8):
    """The extension search on list state: a per-candidate state list, a
    trail of assignments undone one by one, clause checks that loop over the
    options, and each extension built from C's facets plus the chosen sets.
    The reference for `search_matroid_extensions`, which must match it in
    extensions (order included), completeness and node count."""
    ok, _ = is_matroid(C)
    if not ok:
        raise DomainError("the extension search starts from a matroid")
    n = C.n
    d1 = C.dim + 1
    fset = set(C.faces)
    tops = sorted(C.faces_of_size(d1))
    cands = []
    for comb in combinations(range(n), d1 + 1):
        X = mask_of(comb)
        if all(s in fset for s in k_submasks(X, d1)):
            cands.append(X)

    index = {X: ci for ci, X in enumerate(cands)}
    raw = []
    for X in cands:
        cls = []
        for J in tops:
            if J & ~X == 0:
                continue
            cls.append(
                [index[J | (1 << i)] for i in bits(X & ~J) if J | (1 << i) in index]
            )
        raw.append(cls)

    # a candidate owning a clause with no possible options can never be chosen
    possible = [True] * len(cands)
    changed = True
    while changed:
        changed = False
        for ci, cls in enumerate(raw):
            if possible[ci] and any(
                all(not possible[o] for o in opts) for opts in cls
            ):
                possible[ci] = False
                changed = True

    live = [ci for ci in range(len(cands)) if possible[ci]]
    remap = {ci: t for t, ci in enumerate(live)}
    masks = [cands[ci] for ci in live]
    M = len(masks)

    clauses = []
    clauses_of = [[] for _ in range(M)]
    occurs = [[] for _ in range(M)]
    for t, ci in enumerate(live):
        for opts in raw[ci]:
            lopts = tuple(remap[o] for o in opts if possible[o])
            k = len(clauses)
            clauses.append((t, lopts))
            clauses_of[t].append(k)
            for o in lopts:
                occurs[o].append(k)

    # a matroid extension is pure: every top face of C needs a chosen superset
    cover_sets = []
    cover_occ = [[] for _ in range(M)]
    for J in tops:
        opts = tuple(t for t in range(M) if J & ~masks[t] == 0)
        if not opts:
            return ExtensionSearch([], True, 0)
        j = len(cover_sets)
        cover_sets.append(opts)
        for o in opts:
            cover_occ[o].append(j)

    state = [0] * M
    trail = []
    nodes = 0
    out_of_budget = False
    solutions = []

    def recheck_clause(k, queue):
        owner, opts = clauses[k]
        free = None
        cnt = 0
        for o in opts:
            s = state[o]
            if s == _IN:
                return True
            if s == 0:
                cnt += 1
                free = o
        if cnt == 0:
            if state[owner] == _IN:
                return False
            queue.append((owner, _OUT))
            return True
        if cnt == 1 and state[owner] == _IN:
            queue.append((free, _IN))
        return True

    def recheck_cover(j, queue):
        free = None
        cnt = 0
        for o in cover_sets[j]:
            s = state[o]
            if s == _IN:
                return True
            if s == 0:
                cnt += 1
                free = o
        if cnt == 0:
            return False
        if cnt == 1:
            queue.append((free, _IN))
        return True

    def assign(t, val):
        nonlocal nodes
        queue = [(t, val)]
        while queue:
            v, val = queue.pop()
            if state[v]:
                if state[v] != val:
                    return False
                continue
            nodes += 1
            state[v] = val
            trail.append(v)
            if val == _IN:
                for k in clauses_of[v]:
                    if not recheck_clause(k, queue):
                        return False
            else:
                for k in occurs[v]:
                    if not recheck_clause(k, queue):
                        return False
                for j in cover_occ[v]:
                    if not recheck_cover(j, queue):
                        return False
        return True

    def undo(mark):
        while len(trail) > mark:
            state[trail.pop()] = 0

    def dfs():
        nonlocal out_of_budget
        if nodes >= budget:
            out_of_budget = True
            return
        t = next((i for i in range(M) if state[i] == 0), None)
        if t is None:
            chosen = {masks[i] for i in range(M) if state[i] == _IN}
            if chosen:
                solutions.append(Complex(C.n, set(C.facets) | chosen, C.labels))
            return
        for val in (_IN, _OUT):
            mark = len(trail)
            if assign(t, val):
                dfs()
            undo(mark)
            if out_of_budget:
                return

    dfs()
    return ExtensionSearch(solutions, not out_of_budget, nodes)


# The forest matroids of the benchmark's search workload, as
# (nodes, edges); each graph is connected, of rank nodes - 1, and is searched
# at full rank and at its proper truncations to ranks 2 and 3, except rank 2
# on seven edges, which is U(2,7).
FOREST_GRAPHS = {
    "K4": (4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
    "C5": (5, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1))),
    "C6": (6, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1))),
    "K23": (5, ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))),
    "bowtie": (5, ((1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3))),
    "theta": (5, ((1, 2), (2, 3), (3, 4), (1, 5), (5, 4), (1, 4))),
    "W4": (5, ((1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3))),
    "K4+pendant": (5, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5))),
}


def _search_inputs():
    out = {name: (lambda name=name: named(name)) for name in ("sme", "triang")}
    out["desargues"] = desargues
    out["non_desargues"] = non_desargues
    for n in range(1, 7):
        for k in range(1, n + 1):
            out[f"U({k},{n})"] = lambda k=k, n=n: Complex(n, set(k_submasks((1 << n) - 1, k)))
    # 8389 extensions over 35 candidates, so five bytes of IN to read them from
    out["U(2,7)"] = lambda: Complex(7, set(k_submasks((1 << 7) - 1, 2)))
    for name, (nv, edges) in FOREST_GRAPHS.items():
        out[f"forest {name}"] = lambda nv=nv, edges=edges: _forest_complex(nv, list(edges))
        for rank in (2, 3):
            if rank < nv - 1 and not (rank == 2 and len(edges) > 6):
                out[f"forest {name}, rank {rank}"] = (
                    lambda nv=nv, edges=edges, rank=rank: truncate(_forest_complex(nv, list(edges)), rank)
                )
    return out


SEARCH_INPUTS = _search_inputs()


def _same_search(got, want):
    # want's extensions come from the public constructor, the oracle of the
    # unchecked one the search builds them with
    assert got.complete == want.complete
    assert got.nodes == want.nodes
    assert [(E.n, E.facets, E.labels) for E in got.extensions] == [
        (E.n, E.facets, E.labels) for E in want.extensions
    ]


@pytest.mark.parametrize("name", SEARCH_INPUTS)
def test_extension_search_matches_list_state_reference(name):
    C = SEARCH_INPUTS[name]()
    _same_search(search_matroid_extensions(C), reference_extension_search(C))


def test_extension_search_cut_off_matches_reference_at_every_budget():
    # sme takes 68 nodes: every budget up to that cuts the search off, the
    # next one lets it complete
    C = named("sme")
    full = reference_extension_search(C)
    for budget in range(1, full.nodes + 2):
        _same_search(
            search_matroid_extensions(C, budget=budget),
            reference_extension_search(C, budget=budget),
        )


def test_shelling_certificates_on_two_triangle_example():
    C = named("exs")
    assert is_shellable(C) is None
    order = (tri(1, 2, 3), tri(3, 4, 5))
    assert shelling_certificates(C, order) is None

    U = up(C)
    assert sorted(U.facets) == [
        tri(1, 2, 3, 4),
        tri(1, 2, 3, 5),
        tri(1, 3, 4, 5),
        tri(2, 3, 4, 5),
    ]
    order = (tri(1, 2, 3, 4), tri(1, 2, 3, 5), tri(1, 3, 4, 5), tri(2, 3, 4, 5))
    certs = shelling_certificates(U, order)
    assert certs == (
        (),
        (tri(1, 2, 3),),
        (tri(1, 3, 4), tri(1, 3, 5)),
        (tri(2, 3, 4), tri(2, 3, 5), tri(3, 4, 5)),
    )
    assert is_shellable(U) is not None

    with pytest.raises(DomainError):
        shelling_certificates(C, (tri(1, 2, 3),))


def maximal_intersection_certificate(placed, B):
    """Maximal intersections of B with the placed facets when they are all of
    size |B| - 1, else None, by comparing every pair of intersections."""
    inters = {B & A for A in placed}
    maxi = [x for x in inters if not any(y != x and x & ~y == 0 for y in inters)]
    want = B.bit_count() - 1
    if all(x.bit_count() == want for x in maxi):
        return tuple(sorted(maxi))
    return None


@st.composite
def shelling_steps(draw):
    """(placed, B): B and the placed facets, in drawn order, form an
    antichain of mixed sizes, most of one size k, so valid steps with
    certificates are common."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, max(n - 1, 1)))
    full = (1 << n) - 1
    same = st.sampled_from(list(k_submasks(full, k)))
    near = st.sampled_from(list(k_submasks(full, k - 1)) + list(k_submasks(full, min(k + 1, n))))
    member = st.one_of(same, same, near, st.integers(0, full))
    drawn = draw(st.lists(member, min_size=2, max_size=14, unique=True))
    facets = draw(st.permutations(sorted(_antichain(drawn))))
    return facets[:-1], facets[-1]


@given(shelling_steps())
@settings(max_examples=500, deadline=None)
def test_step_certificate_matches_maximal_intersections(step):
    placed, B = step
    assert matroid._step_certificate(placed, B) == maximal_intersection_certificate(placed, B)


def _shelling_inputs():
    out = []
    for name in ("exs", "boom", "tracks"):
        C = named(name)
        out += [C, up(C)]
        if name != "exs":
            out.append(h_star(C))
    rng = random.Random(29)
    out += [random_paving(rng, rng.randint(4, 6), 2, rng.uniform(0.2, 0.9)) for _ in range(40)]
    return out


def test_shelling_search_matches_maximal_intersection_route(monkeypatch):
    got = [is_shellable(C) for C in _shelling_inputs()]
    monkeypatch.setattr(matroid, "_step_certificate", maximal_intersection_certificate)
    want = [is_shellable(C) for C in _shelling_inputs()]
    assert got == want
    assert any(sh is None for sh in got) and any(sh is not None for sh in got)


def test_shelling_search_leaves_no_reference_cycle():
    # a self-referencing nested search would keep its memo of failed
    # remainders alive until the cyclic collector runs
    C = up(named("boom"))
    gc.collect()
    gc.disable()
    try:
        assert is_shellable(C) is not None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mixed_dimension_shelling():
    C = named("far")
    sh = is_shellable(C)
    assert sh is not None
    assert shelling_certificates(C, sh.order) == sh.certificates
    assert sh.order[0] == tri(1, 2, 3)


def reference_shelling_from(placed, remaining, certs, failed):
    """The recursive search is_shellable ran before its link test, int memo
    and step bound: extend the shelling order placed by the facets in
    remaining, trying the largest ones in increasing mask order; failed
    holds, as frozensets, the remainders known to admit no extension."""
    if not remaining:
        return matroid.Shelling(tuple(placed), tuple(certs))
    key = frozenset(remaining)
    if key in failed:
        return None
    top = max(f.bit_count() for f in remaining)
    for B in sorted(remaining):
        if B.bit_count() != top:
            continue
        cert = matroid._step_certificate(placed, B)
        if cert is None:
            continue
        out = reference_shelling_from(placed + [B], remaining - {B}, certs + [cert], failed)
        if out is not None:
            return out
    failed.add(key)
    return None


def reference_is_shellable(C):
    facets = sorted(C.facets)
    if len(facets) > 35:
        raise CapacityError("shelling search supported for <= 35 facets")
    return reference_shelling_from([], set(facets), [], set())


def _links_connected(C):
    return matroid._links_connected(sorted(C.facets, key=lambda f: (-f.bit_count(), f)))


@st.composite
def shelling_complexes(draw):
    """Complexes of dimension 1-3 on at most 7 vertices from at most 12
    generators, one of them of the top size: pure draws take the rest at the
    top size too (uncovered vertices still add singleton facets), nonpure
    draws take them of any size up to it."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, 7))
    full = (1 << n) - 1
    top = st.sampled_from(list(k_submasks(full, d + 1)))
    if draw(st.booleans()):
        member = top
    else:
        member = st.integers(1, d + 1).flatmap(lambda k: st.sampled_from(list(k_submasks(full, k))))
    return Complex(n, [draw(top), *draw(st.lists(member, max_size=11))])


@given(shelling_complexes())
@settings(max_examples=400, deadline=None)
def test_shelling_search_matches_the_recursive_search(C):
    want = reference_is_shellable(C)
    assert is_shellable(C) == want
    if not _links_connected(C):
        assert want is None


def test_shelling_search_matches_the_recursive_search_on_every_small_complex():
    rejected = searched_in_vain = 0
    for n in range(1, 6):
        for C in all_complexes(n):
            want = reference_is_shellable(C)
            assert is_shellable(C) == want
            if not _links_connected(C):
                assert want is None
                rejected += 1
            elif want is None:
                searched_in_vain += 1
    assert rejected and searched_in_vain


@pytest.mark.parametrize("name, params", [("desargues", {}), ("non_desargues", {}), ("uniform", {"k": 3, "n": 18})])
def test_matroid_complexes_past_the_old_cap_shell(name, params):
    # a matroid complex is shellable (Björner 1992)
    C = named(name, **params)
    assert len(C.facets) > 35
    sh = is_shellable(C)
    assert sh is not None
    assert shelling_certificates(C, sh.order) == sh.certificates


def test_cepc_fails_a_link_in_milliseconds():
    C = named("cepc")
    assert len(C.facets) == 44 and not _links_connected(C)
    t0 = time.perf_counter()
    assert is_shellable(C) is None
    assert time.perf_counter() - t0 < 0.5


def _step_tests(monkeypatch, C):
    """is_shellable(C) and the step comparisons (placed facets tested against
    a candidate) it made."""
    count = 0
    real = matroid._step_certificate

    def counted(placed, B):
        nonlocal count
        count += len(placed)
        return real(placed, B)

    with monkeypatch.context() as m:
        m.setattr(matroid, "_step_certificate", counted)
        out = is_shellable(C)
    return out, count


# shelled only after backtracking: 127 step comparisons against 78 for a
# first-try shelling of its 13 facets
BACKTRACKS = Complex(
    6,
    [
        tri(*t)
        for t in (
            (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (3, 4, 5), (1, 2, 6), (1, 3, 6),
            (2, 4, 6), (3, 4, 6), (1, 5, 6), (2, 5, 6), (3, 5, 6), (4, 5, 6),
        )
    ],
)
# every vertex link connected, yet no shelling: 6028 step comparisons
NO_SHELLING = Complex(
    6,
    [
        tri(*t)
        for t in (
            (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 5), (1, 4, 5),
            (2, 4, 5), (1, 3, 6), (2, 4, 6), (3, 4, 6), (4, 5, 6),
        )
    ],
)


def test_shelling_search_refuses_exactly_past_the_bound(monkeypatch):
    # desargues places each of its 110 facets at the first try: 110 * 109 / 2
    D = named("desargues")
    for C, tests in ((D, 5995), (BACKTRACKS, 127), (NO_SHELLING, 6028)):
        want, made = _step_tests(monkeypatch, C)
        assert made == tests
        assert (want is None) == (C is NO_SHELLING)
        assert _links_connected(C)
        with monkeypatch.context() as m:
            m.setattr(core, "SET_LIMIT", tests)
            assert is_shellable(C) == want
            m.setattr(core, "SET_LIMIT", tests - 1)
            with pytest.raises(CapacityError):
                is_shellable(C)


def test_shelling_search_refuses_up_front(monkeypatch):
    # m(m - 1)/2 comparisons past the bound: refused before any link or step test
    C = named("desargues")
    m = len(C.facets)

    def fail(*args):
        raise AssertionError("tested after the up-front refusal")

    monkeypatch.setattr(matroid, "_links_connected", fail)
    monkeypatch.setattr(matroid, "_step_certificate", fail)
    monkeypatch.setattr(core, "SET_LIMIT", m * (m - 1) // 2 - 1)
    with pytest.raises(CapacityError):
        is_shellable(C)


def test_lines_and_l_mu():
    B = named("boom")
    L = lines(B)
    assert set(L.members) == {tri(1, 2, 3), tri(2, 3, 4), tri(3, 4, 5), tri(4, 5, 6)}
    assert set(l_mu(B, tri(1, 2, 3)).members) == {
        tri(1, 2, 3, 4),
        tri(1, 2, 3, 5),
        tri(1, 2, 3, 6),
    }
    with pytest.raises(DomainError):
        l_mu(B, tri(1, 2, 4))

    T = named("tracks")
    assert set(lines(T).members) == {
        tri(1, 2),
        tri(2, 3),
        tri(4, 5),
        tri(5, 6),
        tri(6, 7),
    }
    with pytest.raises(DomainError):
        lines(named("far"))


def test_h_star_and_l_mu_check_representability_once(monkeypatch):
    calls = []

    def counted(C):
        calls.append(C)
        return is_boolean_representable(C)

    monkeypatch.setattr(matroid, "is_boolean_representable", counted)
    for name in ("boom", "tracks", "desargues"):
        C = named(name)
        calls.clear()
        h_star(C)
        assert len(calls) == 1
        for L in lines(C):
            calls.clear()
            l_mu(C, L)
            assert len(calls) == 1


def _paving_line_cases():
    rng = random.Random(17)
    out = [named("boom"), named("tracks")]
    while len(out) < 40:
        C = _random_bpav2(rng, rng.randint(5, 7))
        if C.dim == 2 and is_paving(C) == 2 and is_boolean_representable(C)[0]:
            out.append(C)
    return out


def test_flats_of_a_bpav_are_small_sets_lines_and_v():
    for C in _paving_line_cases():
        d = is_paving(C)
        ls = set(lines(C).members)
        small = {m for m in range(1 << C.n) if m.bit_count() <= d - 1}
        assert set(flats(C).members) == small | ls | {C.full_mask}
        for L, L2 in combinations(ls, 2):
            assert (L & L2).bit_count() <= d - 1


def test_top_facets_decompose_through_the_lines():
    for C in _paving_line_cases():
        d = is_paving(C)
        mu = set()
        for L in lines(C):
            mu |= l_mu(C, L).members
        assert mu == {f for f in C.facets if f.bit_count() == d + 1}


def test_line_complex_shellability_splits():
    B = named("boom")
    assert is_shellable(B) is None
    HS = h_star(B)
    assert HS.n == 6
    assert sorted(HS.facets) == [tri(1, 2, 3), tri(2, 3, 4), tri(3, 4, 5), tri(4, 5, 6)]
    assert is_shellable(HS) is not None

    T = named("tracks")
    assert is_shellable(T) is not None
    assert is_shellable(h_star(T)) is None


def _random_bpav2(rng, n):
    gens = set(k_submasks((1 << n) - 1, 2))
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(2, n - 2)
        L = mask_of(rng.sample(range(n), size))
        gens |= set(b_d(n, L, 2).facets)
    return Complex(n, gens)


def test_shellable_line_complex_forces_shellable_total():
    rng = random.Random(13)
    done = 0
    while done < 30:
        n = rng.randint(5, 7)
        C = _random_bpav2(rng, n)
        if C.dim != 2 or is_paving(C) != 2:
            continue
        if not is_boolean_representable(C)[0]:
            continue
        done += 1
        HS = h_star(C)
        if is_shellable(HS) is not None:
            assert is_shellable(C) is not None


def test_small_vertex_star_two_lines():
    # two crossing lines on five points: the line complex lives on 123 only
    C = Complex(
        5,
        set(k_submasks(0b11111, 2))
        | set(b_d(5, tri(1, 2), 2).facets)
        | set(b_d(5, tri(2, 3), 2).facets),
    )
    assert is_paving(C) == 2 and is_boolean_representable(C)[0]
    HS = h_star(C)
    assert HS.n == 3
    assert is_shellable(HS) is not None
    assert is_shellable(C) is not None
