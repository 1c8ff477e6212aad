"""The four seeded workloads: inputs, timed operations and output checks.

Each workload has three parts:

* ``setup(seed)`` builds every input (catalog builds, fixed sampler draws,
  seeded relabelings and queries); it is timed as set-up, not as work.
* ``run(inputs, rec)`` pushes the inputs through the workload's calls, one
  ``rec.op`` per operation; results land in ``rec.results``.
* ``check(seed, inputs, results)`` runs after the timed region and returns
  ``{op_id: reason}`` for every output that disagrees with a known fact, a
  relabeled copy, or an independent route.

Every call into brsc goes through a module attribute (``lattice.flats``),
so the tracer's wrappers see it.
"""

import random
from collections import namedtuple
from contextlib import nullcontext

from brsc import catalog, core, iso, lattice, matroid, operators, reproduce, t_operator
from brsc.core import CapacityError, Complex, DomainError

REFUSALS = (CapacityError, DomainError)
# Seed of the fixed sampler draws and operation orders. The run's seed only
# relabels inputs and draws queries: drawing the complexes per seed made
# the wall time differ by 30% between seeds on the same code.
CORPUS_SEED = 2309


# ------------------------------------------------------------------ helpers


def _map(mask, perm):
    out = 0
    for v in core.bits(mask):
        out |= 1 << perm[v]
    return out


def relabel(C, perm):
    """Copy of C with vertex v renamed perm[v]; labels travel with vertices."""
    labels = [None] * C.n
    for v, w in enumerate(perm):
        labels[w] = C.labels[v]
    return Complex(C.n, {_map(f, perm) for f in C.facets}, labels)


def _perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _sub_rng(seed, tag):
    """A generator for the checks, independent of the input stream."""
    return random.Random(f"{seed}:{tag}")


def closure_by_propagation(C, X):
    """Smallest flat containing X, as the fixpoint of "face Y inside S and
    Y + p not a face force p into S"; shares no code with the flat scan."""
    faces = C.faces
    cons = []
    for Y in faces:
        bad = 0
        for p in core.bits(C.full_mask & ~Y):
            if Y | (1 << p) not in faces:
                bad |= 1 << p
        if bad:
            cons.append((Y, bad))
    S = X
    grown = True
    while grown:
        grown = False
        for Y, bad in cons:
            if Y & ~S == 0 and bad & ~S:
                S |= bad
                grown = True
    return S


# ------------------------------------------------------------------ brsc check


# The `brsc check` property set minus shellability, in the CLI's order.
PROPERTIES = (
    ("paving", lambda C: core.is_paving(C)),
    ("brsc", lambda C: lattice.is_boolean_representable(C)[0]),
    ("tbrsc", lambda C: t_operator.is_tbrsc(C)),
    ("matroid", lambda C: matroid.is_matroid(C)[0]),
    ("near_matroid", lambda C: matroid.is_near_matroid(C)[0]),
    ("codim", lambda C: t_operator.codimension(C)),
    ("classification", lambda C: t_operator.classify_minimality(C)),
)


def check_complex(C, queries, span):
    """Property verdicts plus closures; a documented refusal reads None."""
    out = {}
    for key, fn in PROPERTIES:
        with span(f"check.{key}"):
            try:
                out[key] = fn(C)
            except REFUSALS:
                out[key] = None
    with span("check.closure"):
        out["closure"] = [lattice.closure(C, X) for X in queries]
    return out


def _no_span(name):
    return nullcontext()


def _run_checks(items, rec):
    for op_id, _, C, queries in items:
        rec.op(op_id, check_complex, C, queries, rec.span)


def _check_relabeled(seed, op_id, C, queries, got):
    """Reason the verdicts change under a seeded relabeling, or None."""
    perm = _perm(_sub_rng(seed, op_id), C.n)
    other = check_complex(relabel(C, perm), [_map(X, perm) for X in queries], _no_span)
    for key, _ in PROPERTIES:
        if other[key] != got[key]:
            return f"{key} changes under relabeling: {got[key]!r} vs {other[key]!r}"
    if other["closure"] != [_map(F, perm) for F in got["closure"]]:
        return "closure changes under relabeling"
    return None


def _check_closures(C, queries, got):
    for X, F in zip(queries, got["closure"]):
        want = closure_by_propagation(C, X)
        if F != want:
            return f"closure of {X:#x} is {F:#x}, propagation gives {want:#x}"
    return None


def _queries(rng, C, count):
    return tuple(rng.randint(0, C.full_mask) for _ in range(count))


def _fact_failures(kind, got):
    """Facts known for every output of a sampler kind."""
    if kind == "matroid":
        # matroids are near-matroids and boolean representable
        want = {"matroid": True, "near_matroid": True, "brsc": True}
    elif kind == "line_union":
        # unions of line complexes are 2-dimensional paving TBRSCs
        want = {"paving": 2, "tbrsc": True}
    elif kind == "paving":
        return None if got["paving"] is not None else "paving sample is not paving"
    else:
        return None
    for key, value in want.items():
        if got[key] != value:
            return f"{kind} sample has {key}={got[key]!r}, expected {value!r}"
    return None


# ------------------------------------------------------------------ check-small

SMALL_COUNT = 1200
# One operation checks SMALL_BATCH consecutive complexes, one of each sampler
# kind and one more: single checks take 0.1 to 1 ms, and their median moved
# twice as much as the wall time with the machine's speed.
SMALL_BATCH = 5


def small_setup(seed):
    corpus = random.Random(CORPUS_SEED)
    rng = random.Random(seed)
    items = []
    for i in range(SMALL_COUNT):
        kind = ("complex", "paving", "matroid", "line_union")[i % 4]
        if kind == "complex":
            C = reproduce.random_complex(corpus, max_n=8)
        elif kind == "paving":
            C = reproduce.random_paving(corpus, corpus.randint(4, 8), 2, corpus.uniform(0.2, 0.9))
        elif kind == "matroid":
            C = reproduce.random_matroid(corpus)
        else:
            C = reproduce.random_line_union(corpus, corpus.randint(4, 8), corpus.randint(1, 3))
        C = relabel(C, _perm(rng, C.n))
        items.append((f"small{i}", kind, C, _queries(rng, C, 3)))
    return items


def small_run(items, rec):
    for start in range(0, len(items), SMALL_BATCH):
        batch = items[start : start + SMALL_BATCH]
        rec.op(f"small:{start}", lambda: [check_complex(C, q, rec.span) for _, _, C, q in batch])


def small_check(seed, items, results):
    bad = {}
    for start in range(0, len(items), SMALL_BATCH):
        op_id = f"small:{start}"
        for (item_id, kind, C, queries), got in zip(items[start : start + SMALL_BATCH], results[op_id] or ()):
            reason = (
                _fact_failures(kind, got)
                or _check_closures(C, queries, got)
                or _check_relabeled(seed, item_id, C, queries, got)
            )
            if reason:
                bad[op_id] = f"{item_id}: {reason}"
                break
    return bad


# ------------------------------------------------------------------ check-wide

# Verdicts of the catalog inputs: (paving, brsc, tbrsc, matroid,
# near_matroid, codim, classification). They do not depend on the labeling.
WIDE_CATALOG = {
    ("nfb", (("n", 9),)): (2, False, False, False, True, 5, "neither"),
    ("uniform", (("k", 3), ("n", 18))): (2, True, True, True, True, 15, "neither"),
    ("bfour", ()): (None, True, True, False, False, 0, None),
    ("rhodes", (("m", 2), ("n", 4))): (None, True, True, True, True, 0, None),
    ("dowling", (("m", 3), ("n", 3))): (2, True, True, True, True, 0, "neither"),
    ("cepc", ()): (None, True, True, False, False, 0, None),
    ("lhne", ()): (2, False, False, False, True, 3, "neither"),
    ("desargues", ()): (2, True, True, True, True, 1, "neither"),
}
# 40 operations a repetition give the tail latency a p75 with ten beyond it
WIDE_RANDOM = 32
# flats_paving rescans 2^n sets per long hyperplane; keep that check small
FLATS_PAVING_MAX_N = 14


def wide_setup(seed):
    rng = random.Random(seed)
    items = []
    for (name, params), _ in WIDE_CATALOG.items():
        C = catalog.named(name, **dict(params))
        C = relabel(C, _perm(rng, C.n))
        label = name + "".join(f":{k}={v}" for k, v in params)
        items.append((label, (name, params), C, _queries(rng, C, 4)))
    corpus = random.Random(CORPUS_SEED)
    for i in range(WIDE_RANDOM):
        # the sampler's own labels: classify_minimality's cost on these
        # moves up to tenfold with the labeling, and seeded labels moved
        # the p75 latency by 30% between seeds on the same code
        C = reproduce.random_line_union(corpus, corpus.randint(10, 12), corpus.randint(2, 3))
        items.append((f"wide{i}", "line_union", C, _queries(rng, C, 4)))
    # interleaved, so the median operation is sampled across the whole run
    random.Random(CORPUS_SEED).shuffle(items)
    return items


def wide_check(seed, items, results):
    keys = [key for key, _ in PROPERTIES]
    bad = {}
    for op_id, kind, C, queries in items:
        got = results[op_id]
        if kind in WIDE_CATALOG:
            want = dict(zip(keys, WIDE_CATALOG[kind]))
            reason = next(
                (f"{k}={got[k]!r}, known {v!r}" for k, v in want.items() if got[k] != v), None
            )
        else:
            reason = _fact_failures(kind, got) or _check_relabeled(seed, op_id, C, queries, got)
        reason = reason or _check_closures(C, queries, got)
        if not reason and got["paving"] and got["paving"] >= 2 and C.n <= FLATS_PAVING_MAX_N:
            if lattice.flats_paving(C) != lattice.flats(C):
                reason = "flats_paving disagrees with flats"
        if reason:
            bad[op_id] = reason
    return bad


# ------------------------------------------------------------------ classify

# Published counts: 3-uniform hypergraphs on 6 points up to isomorphism
# (OEIS A000665, minus the empty one); graphs on 2..6 points (A000088,
# minus the complete graphs, whose complex has no edge); simplicial
# complexes on 1..5 labeled points (A307249) and up to isomorphism (A006602).
# The every-restriction classes on 9 vertices are from the paper.
PAVING6_CLASSES = 2135
GRAPH_COMPLEXES = 202
LABELED_COMPLEXES = (1, 2, 9, 114, 6894)
COMPLEX_CLASSES = (1, 2, 5, 20, 180)
MNGU_COUNTS = {4: 1, 5: 2, 6: 10}
EVERYRES = {9: [(3, 6)]}
# Counted at the commit that introduced the benchmark; the checks below
# re-derive each member by a second route.
TBRSC_NOT_BR_6 = 5
BR_COMPLEXES = (1, 2, 6, 33, 530)
GRAPH_VERDICTS = {"gu": 22, "mngu": 13, "mgu": 7}
# Line-complex shapes (n, |L|) whose canonical forms are computed; the
# line's position comes from the seed.
CANON_SHAPES = ((8, 3), (8, 4), (8, 5), (8, 6), (9, 4))


def classify_setup(seed):
    rng = random.Random(seed)
    canon = []
    for n, size in CANON_SHAPES:
        L = core.mask_of(rng.sample(range(n), size))
        canon.append((f"canon:n={n},L={L:#x}", operators.b_d(n, L, 2)))
    return canon


# The per-item jobs of the three scans (paving classes, graph complexes,
# labeled complexes) run BATCH jobs per operation: single jobs take
# microseconds to a millisecond. After the lists, every operation runs in one
# fixed shuffled order, so the median operation is sampled across the whole
# run: run scan by scan it fell in a window of a few seconds, and machine
# noise moved it by 40%. With 12 jobs a batch there are about 800
# operations, so the tail is p95, with 40 operations beyond it: the 17 single
# calls (lists, enumerations, canonical forms) and the slowest batches.
# With 25 a batch, 20 were beyond it and it fell at the lower edge of those
# single calls, where a few batches slowed by machine noise moved it by half;
# with 8, it was p99 and fell among the seeded canonical forms.
BATCH = 12


def classify_run(canon, rec):
    # the paving list pays for orbit_min_table(6,3); enumerate_mngu(6) reuses it
    rec.op("pave6-list", lambda: list(t_operator.paving2_reps(6)))
    for n in range(2, 7):
        rec.op(f"graphs-list:{n}", iso.graphs_up_to_iso, n)
    for n in range(1, 6):
        rec.op(f"complexes-list:{n}", lambda: list(iso.all_complexes(n)))
    jobs = _scan_jobs(rec.results)
    ops = [
        (f"scan:{start}", _run_jobs, jobs[start : start + BATCH])
        for start in range(0, len(jobs), BATCH)
    ]
    ops += [(f"mngu:{n}", t_operator.enumerate_mngu, n) for n in (4, 5, 6)]
    ops += [(f"mgu:{n}", t_operator.enumerate_mgu, n) for n in range(4, 10)]
    ops += [(f"everyres:{n}", t_operator.everyres_classes, n) for n in EVERYRES]
    ops += [(op_id, iso.canonical_key, C) for op_id, C in canon]
    random.Random(CORPUS_SEED).shuffle(ops)
    for op_id, fn, arg in ops:
        rec.op(op_id, fn, arg)


def _run_jobs(chunk):
    return [_JOBS[kind](arg) for kind, _, arg in chunk]


def _scan_jobs(results):
    """(kind, key, argument) for every scan job, in batch order."""
    jobs = [("pave6", i, C) for i, C in enumerate(results["pave6-list"] or [])]
    for n in range(2, 7):
        jobs += [("graph", (n, i), (n, e)) for i, e in enumerate(results[f"graphs-list:{n}"] or [])]
    for n in range(1, 6):
        jobs += [("complex", (n, i), C) for i, C in enumerate(results[f"complexes-list:{n}"] or [])]
    random.Random(CORPUS_SEED).shuffle(jobs)
    return jobs


def _scan_results(results):
    """{(kind, key): (op id, result)} for every scan job."""
    out = {}
    jobs = _scan_jobs(results)
    for start in range(0, len(jobs), BATCH):
        op_id = f"scan:{start}"
        got = results.get(op_id) or [None] * BATCH
        for (kind, key, _), r in zip(jobs[start : start + BATCH], got):
            out[kind, key] = (op_id, r)
    return out


def _tbrsc_not_br(C):
    return t_operator.is_tbrsc(C) and not lattice.is_boolean_representable(C)[0]


def _graph_complex(n, edges):
    return Complex(n, set(core.k_submasks((1 << n) - 1, 2)) - set(edges))


def _graph_facts(item):
    C = _graph_complex(*item)
    if core.is_paving(C) != 1:
        return None
    facts = t_operator.dim1_gu_facts(C)
    return {k: facts[k] for k in ("gu", "mngu", "mgu")}


def _complex_facts(C):
    return {
        "canonical": iso.canonical_complex(C).facets,
        "brsc": lattice.is_boolean_representable(C)[0],
    }


_JOBS = {"pave6": _tbrsc_not_br, "graph": _graph_facts, "complex": _complex_facts}


def classify_check(seed, canon, results):
    bad = {}

    def expect(op_id, ok, reason):
        if not ok:
            bad.setdefault(op_id, reason)

    for n, count in MNGU_COUNTS.items():
        got = results[f"mngu:{n}"]
        expect(f"mngu:{n}", got is not None and len(got) == count, f"MNGU count {n}")
    want6 = {
        iso.canonical_complex(reproduce._paving2_from_defect(6, [reproduce.tri(*t) for t in d]))
        for d in reproduce.M6_DEFECTS
    }
    expect("mngu:6", set(results["mngu:6"] or ()) == want6, "MNGU(6) classes differ")
    scan = _scan_results(results)

    pav = results["pave6-list"] or []
    expect("pave6-list", len(pav) == PAVING6_CLASSES, f"{len(pav)} paving classes")
    found = [(op_id, pav[i]) for (kind, i), (op_id, r) in scan.items() if kind == "pave6" and r]
    expect("pave6-list", len(found) == TBRSC_NOT_BR_6, f"{len(found)} TBRSC-not-BR classes")
    for op_id, C in found:
        tbrsc = core.truncate(lattice.transversal_complex(t_operator.t_family(C)), C.dim + 1) == C
        br = lattice.transversal_complex(lattice.flats(C)) == C
        expect(op_id, tbrsc and not br, "transversal route disagrees")

    verdicts = []
    classes = [{} for _ in range(6)]
    counts = [[0, 0] for _ in range(6)]
    for (kind, key), (op_id, r) in scan.items():
        if kind == "graph" and r is not None:
            n, i = key
            verdicts.append(r)
            C = _graph_complex(n, results[f"graphs-list:{n}"][i])
            # going up read off J(T(H)) directly instead of the witness search
            expect(op_id, r["gu"] == (t_operator.jt_complex(C).dim > C.dim), "GU verdict")
        elif kind == "complex" and r is not None:
            n, i = key
            C = results[f"complexes-list:{n}"][i]
            counts[n][0] += 1
            counts[n][1] += r["brsc"]
            # boolean representable iff H is its flats' transversal complex
            same = lattice.transversal_complex(lattice.flats(C)) == C
            expect(op_id, r["brsc"] == same, "BR verdict disagrees with the transversal route")
            first = classes[n].setdefault(r["canonical"], r["brsc"])
            expect(op_id, first == r["brsc"], "BR verdict differs within a class")
    expect("graphs-list:6", len(verdicts) == GRAPH_COMPLEXES, f"{len(verdicts)} graph complexes")
    totals = {k: sum(v[k] for v in verdicts) for k in GRAPH_VERDICTS}
    expect("graphs-list:6", totals == GRAPH_VERDICTS, f"graph verdict totals {totals}")
    for n in range(1, 6):
        got = (counts[n][0], len(classes[n]), counts[n][1])
        want = (LABELED_COMPLEXES[n - 1], COMPLEX_CLASSES[n - 1], BR_COMPLEXES[n - 1])
        expect(f"complexes-list:{n}", got == want, f"labeled, class and BR counts {got}, known {want}")

    for n in range(4, 10):
        got = results[f"mgu:{n}"]
        expect(f"mgu:{n}", got is not None and len(got) == (n * n - 9 * n + 22) // 2, "mGU count")
    for n, want in EVERYRES.items():
        expect(f"everyres:{n}", results[f"everyres:{n}"] == want, "every-restriction classes")

    rng = _sub_rng(seed, "canon")
    for op_id, C in canon:
        again = iso.canonical_key(relabel(C, _perm(rng, C.n)))
        expect(op_id, results[op_id] == again, "canonical key changes under relabeling")
    return bad


# ------------------------------------------------------------------ search

# Extension counts of the catalog cases (paper: sme has 7, desargues the
# unique 125-facet one, the other two none), the uniform matroids and the
# forest matroids below, and their rank truncations.
UNIFORM_MAX_N = 6
HEAVY_UNIFORM = ((2, 7),)
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
# Rank truncations searched per graph besides the full rank; rank 2 on 7
# edges is U(2,7), which HEAVY_UNIFORM already covers.
FOREST_RANKS = (2, 3)
# Known counts: the catalog cases from the paper; U(1,n) extends to the
# loopless rank-2 matroids, one per partition of the n points into at least
# two parallel classes (Bell(n) - 1); U(n-1,n) only to U(n,n). The rest were
# counted at the commit that introduced the benchmark.
EXTENSIONS = {
    "sme": 7, "desargues": 1, "non_desargues": 0, "triang": 0,
    "U1,1": 0, "U1,2": 1, "U2,2": 0, "U1,3": 4, "U2,3": 1, "U3,3": 0,
    "U1,4": 14, "U2,4": 5, "U3,4": 1, "U4,4": 0,
    "U1,5": 51, "U2,5": 31, "U3,5": 6, "U4,5": 1, "U5,5": 0,
    "U1,6": 202, "U2,6": 352, "U3,6": 82, "U4,6": 7, "U5,6": 1, "U6,6": 0,
    "U2,7": 8389,
    "forest:K4": 0, "forest:K4:r2": 352,
    "forest:C5": 1, "forest:C5:r2": 31, "forest:C5:r3": 6,
    "forest:C6": 1, "forest:C6:r2": 352, "forest:C6:r3": 82,
    "forest:K23": 0, "forest:K23:r2": 352, "forest:K23:r3": 82,
    "forest:bowtie": 0, "forest:bowtie:r2": 352, "forest:bowtie:r3": 1,
    "forest:theta": 0, "forest:theta:r2": 352, "forest:theta:r3": 7,
    "forest:W4": 0, "forest:W4:r3": 11,
    "forest:K4+pendant": 0, "forest:K4+pendant:r3": 1,
}
SHELL_CATALOG = ("exs", "boom", "tracks")
# Shellability of the catalog cases and their up / line-complex images
# (paper: exs and boom are not shellable, their images are; tracks is, its
# line complex is not).
SHELLABLE = {
    "exs": False,
    "exs:up": True,
    "boom": False,
    "boom:up": True,
    "boom:h_star": True,
    "tracks": True,
    "tracks:up": True,
    "tracks:h_star": False,
}
SHELL_RANDOM = 88
# single shellings of these take 20 us to 1 ms; a batch is one operation
SHELL_BATCH = 8


def search_setup(seed):
    """(op id, kind, input) triples in run order.

    The seed relabels the catalog shelling inputs; the rest is fixed. Seeded
    labels reorder both search trees: with relabeled extension inputs
    the tail latency differed 2.3-fold between seeds on the same code.
    """
    ops = [(f"ext:{name}", "ext", catalog.named(name)) for name in ("sme", "desargues", "non_desargues", "triang")]
    for k, n in [(k, n) for n in range(1, UNIFORM_MAX_N + 1) for k in range(1, n + 1)] + list(HEAVY_UNIFORM):
        ops.append((f"ext:U{k},{n}", "ext", Complex(n, set(core.k_submasks((1 << n) - 1, k)))))
    for name, (nv, edges) in FOREST_GRAPHS.items():
        M = reproduce._forest_complex(nv, list(edges))
        ops.append((f"ext:forest:{name}", "ext", M))
        for rank in FOREST_RANKS:
            if rank <= M.dim and not (rank == 2 and M.n > UNIFORM_MAX_N):
                ops.append((f"ext:forest:{name}:r{rank}", "ext", core.truncate(M, rank)))
    rng = random.Random(seed)
    for name in SHELL_CATALOG:
        C = catalog.named(name)
        ops.append((f"shell:{name}", "shell", relabel(C, _perm(rng, C.n))))
        ops.append((f"shell:{name}:up", "shell", relabel(operators.up(C), _perm(rng, C.n))))
        if f"{name}:h_star" in SHELLABLE:
            H = matroid.h_star(C)
            ops.append((f"shell:{name}:h_star", "shell", relabel(H, _perm(rng, H.n))))
    corpus = random.Random(CORPUS_SEED)
    pavings = [
        reproduce.random_paving(corpus, corpus.randint(5, 6), 2, corpus.uniform(0.2, 0.9))
        for _ in range(SHELL_RANDOM)
    ]
    for start in range(0, SHELL_RANDOM, SHELL_BATCH):
        ops.append((f"shells:{start}", "shells", pavings[start : start + SHELL_BATCH]))
    # interleaved, so the median operation is sampled across the whole run
    corpus.shuffle(ops)
    return ops


def search_run(ops, rec):
    for op_id, kind, arg in ops:
        if kind == "ext":
            rec.op(op_id, matroid.search_matroid_extensions, arg)
        elif kind == "shell":
            rec.op(op_id, matroid.is_shellable, arg)
        else:
            rec.op(op_id, lambda: [matroid.is_shellable(C) for C in arg])


def _check_shelling(C, out):
    if out is not None and matroid.shelling_certificates(C, out.order) != out.certificates:
        return "shelling certificates do not verify"
    return None


def search_check(seed, ops, results):
    bad = {}
    rng = _sub_rng(seed, "shell")
    for op_id, kind, arg in ops:
        out = results[op_id]
        name = op_id.split(":", 1)[1]
        reason = None
        if out is None and kind != "shell":
            continue
        if kind == "ext":
            if not out.complete or len(out.extensions) != EXTENSIONS[name]:
                reason = f"{len(out.extensions)} extensions, known {EXTENSIONS[name]}"
            elif len(set(out.extensions)) != len(out.extensions):
                reason = "duplicate extensions"
            elif any(
                not matroid.is_matroid(E)[0] or core.truncate(E, arg.dim + 1) != arg
                for E in out.extensions
            ):
                reason = "an extension is not a matroid truncating to the input"
        elif kind == "shell":
            reason = _check_shelling(arg, out)
            if not reason and (out is not None) != SHELLABLE[name]:
                reason = f"shellable={out is not None}, known {SHELLABLE[name]}"
        else:
            for C, one in zip(arg, out):
                reason = _check_shelling(C, one)
                other = matroid.is_shellable(relabel(C, _perm(rng, C.n)))
                if not reason and (other is not None) != (one is not None):
                    reason = "shellability changes under relabeling"
                if reason:
                    break
        if reason:
            bad[op_id] = reason
    return bad


# ------------------------------------------------------------------ registry


def to_json(result):
    """Label-free JSON form of an operation's result, for the verdict digest.

    Search node counts and shelling orders are left out: an optimization may
    change them without changing any verdict.
    """
    if isinstance(result, Complex):
        return sorted(result.facets)
    if isinstance(result, matroid.ExtensionSearch):
        return {"complete": result.complete, "extensions": sorted(map(to_json, result.extensions))}
    if isinstance(result, matroid.Shelling):
        return True
    if isinstance(result, (set, frozenset)):
        return sorted(result)
    if isinstance(result, (list, tuple)):
        return [to_json(x) for x in result]
    if isinstance(result, dict):
        return {k: to_json(v) for k, v in result.items()}
    return result


Workload = namedtuple("Workload", "setup run check")

WORKLOADS = {
    "check-small": Workload(small_setup, small_run, small_check),
    "check-wide": Workload(wide_setup, _run_checks, wide_check),
    "classify": Workload(classify_setup, classify_run, classify_check),
    "search": Workload(search_setup, search_run, search_check),
}
