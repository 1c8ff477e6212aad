"""Bitmask data model for finite simplicial complexes.

Vertices are indices 0..n-1 with n <= 64; a face is an int whose set bits are
the face's vertices. A complex stores its facet antichain and materializes the
full (downward closed) face family lazily. Every complex contains the empty
face and all singletons. Labels are presentation only: equality and hashing
look at (n, facets).
"""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from itertools import combinations
from operator import or_


class DomainError(ValueError):
    """Input outside an operation's domain (bad vertex set, missing face, ...)."""


class CapacityError(RuntimeError):
    """Instance too large for the implemented algorithms."""


# Most sets any family the library lists may hold: faces, closed sets and
# level-walk sets. Readers look it up here at call time, so one patch moves it.
SET_LIMIT = 1 << 20


def check_capacity(n):
    """Refuse a vertex count past the 64-vertex capacity. Builders call it
    before they list any set, so an oversized input costs nothing."""
    if n > 64:
        raise CapacityError(f"n={n} exceeds the 64-vertex capacity")


def bits(mask):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def submasks(mask):
    """All subsets of mask, mask itself first, 0 last."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def k_submasks(mask, k):
    """All subsets of mask with exactly k bits, in the order of
    combinations over its bits, as an iterator."""
    return map(sum, combinations([1 << i for i in bits(mask)], k))


def compress(mask, universe):
    """Reindex mask's bits to 0..|universe|-1 following universe's bit order."""
    out = 0
    pos = 0
    u = universe
    while u:
        b = u & -u
        if mask & b:
            out |= 1 << pos
        pos += 1
        u ^= b
    return out


class SetFamily:
    """A family of subsets of 0..n-1, stored as a frozenset of masks."""

    __slots__ = ("n", "members")

    def __init__(self, n, members):
        self.n = n
        self.members = frozenset(members)
        full = (1 << n) - 1
        for m in self.members:
            if m & ~full:
                raise DomainError("member uses vertices outside 0..n-1")

    def __contains__(self, mask):
        return mask in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, SetFamily)
            and self.n == other.n
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.n, self.members))

    def __repr__(self):
        sets = ["{" + ",".join(str(i + 1) for i in bits(m)) + "}" for m in sorted(self.members)]
        return f"SetFamily(n={self.n}, {{{', '.join(sets)}}})"


# _BIT_CHARS[j][x] is the digit "1" when bit j of the byte x is set, else "0"
_BIT_CHARS = [bytes(b"01"[x >> j & 1] for x in range(256)) for j in range(8)]


def _antichain(masks):
    """The maximal members of masks (every mask below 2^64), whatever their
    order or repeats, as a frozenset. Complex() relies on this being exactly
    its facets: every member not strictly inside another, and no other.

    The distinct masks are listed largest first, and column v is an int whose
    bit t says that the t-th of them holds vertex v, read off the masks'
    bytes a byte lane at a time. A mask lies strictly inside another member
    exactly when a larger member holds all its vertices, that is when the
    AND of its vertices' columns has a bit below its size class. A member
    inside a dropped member lies inside a kept one, so the columns hold
    every member and are built once. The largest class is never tested, and
    a test takes one AND a vertex, of ints no longer than the count of larger
    members: a subset query on a set family (Yellin & Jutla, IPL 1993).
    """
    distinct = masks if isinstance(masks, (set, frozenset)) else set(masks)
    ms = sorted(distinct, key=int.bit_count, reverse=True)
    if not ms or ms[-1].bit_count() == ms[0].bit_count():
        # one size: no member holds another
        return frozenset(ms)
    # one little-endian 8-byte word a mask: raw[j::8] is byte j of every
    # mask, and reversed, a lane's digits put mask 0 lowest
    words = array("Q", ms)
    if sys.byteorder == "big":
        words.byteswap()
    raw = words.tobytes()
    cols = {
        1 << v: int(raw[v >> 3 :: 8].translate(_BIT_CHARS[v & 7])[::-1], 2)
        for v in bits(reduce(or_, ms))
    }
    kept = []
    size = ms[0].bit_count()
    larger = 0
    for t, m in enumerate(ms):
        if m.bit_count() < size:
            size = m.bit_count()
            larger = (1 << t) - 1
        c = larger
        x = m
        while x and c:
            b = x & -x
            c &= cols[b]
            x ^= b
        if not c:
            kept.append(m)
    return frozenset(kept)


def _labels(n, labels=None):
    """labels as a tuple checked to be distinct and one per vertex of n;
    None gives the default labels 1..n."""
    if labels is None:
        return tuple(range(1, n + 1))
    labels = tuple(labels)
    if len(labels) != n or len(set(labels)) != n:
        raise DomainError("labels must be distinct and one per vertex")
    return labels


class Complex:
    """Simplicial complex on vertices 0..n-1, stored by its facet antichain."""

    __slots__ = ("n", "facets", "labels", "_faces", "_dim")

    def __init__(self, n, generators=(), labels=None):
        if n < 1:
            raise DomainError("vertex set must be nonempty")
        check_capacity(n)
        full = (1 << n) - 1
        # a set is read twice as it is, not copied
        gens = generators if isinstance(generators, (set, frozenset)) else set(generators)
        cover = reduce(or_, gens, 0)
        if cover & ~full:
            raise DomainError("generator uses vertices outside 0..n-1")
        facets = _antichain(gens)
        if cover != full:
            # an uncovered vertex lies in no generator, so its singleton is a
            # facet, and only the empty set can lie under it
            facets = facets - {0} | {1 << i for i in bits(full & ~cover)}
        self.n = n
        self.facets = facets
        self.labels = _labels(n, labels)
        self._faces = None
        self._dim = None

    @classmethod
    def _of_antichain(cls, n, facets, labels):
        """The complex on 0..n-1 whose facets are exactly the masks in facets,
        built with none of the constructor's checks and no reduction.

        The caller guarantees what the constructor would establish: facets
        is a nonempty antichain of masks inside 0..n-1 whose union is every
        vertex, and labels is a tuple valid for n (from `_labels`, or the
        labels of a built complex on n vertices).
        Each caller holds the facets already:
        - `search_matroid_extensions`: distinct chosen sets of one size,
          with every vertex in one of them;
        - `iso.canonical_complex`: a relabeling of a complex's facets;
        - `iso.paving_complexes`: the kept (d+1)-sets and the d-sets under
          none of them, for 1 <= d <= n;
        - `iso.all_complexes`: at each size, the chosen sets under no
          chosen set one larger;
        - `lattice._independent_complex` and `catalog._gain_graph`: the
          maximal sets of a level walk that starts at the empty set and
          holds every singleton (no loop of the closure; every atom alone a
          face)."""
        C = object.__new__(cls)
        C.n = n
        C.facets = frozenset(facets)
        C.labels = labels
        C._faces = None
        C._dim = None
        return C

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    @property
    def faces(self):
        """The full face family as a frozenset of masks, materialized on first use.
        Refused past SET_LIMIT faces, at once if one facet has more subsets."""
        if self._faces is None:
            if 1 << self.dim + 1 > SET_LIMIT:
                raise CapacityError(f"face family with more than {SET_LIMIT} sets is out of range")
            out = set()
            for f in self.facets:
                out.update(submasks(f))
                if len(out) > SET_LIMIT:
                    raise CapacityError(f"face family with more than {SET_LIMIT} sets is out of range")
            self._faces = frozenset(out)
        return self._faces

    def has(self, mask):
        """Membership test; avoids materializing faces when possible."""
        if self._faces is not None:
            return mask in self._faces
        return any(mask & ~f == 0 for f in self.facets)

    @property
    def dim(self):
        """Largest facet size minus one, found on first use."""
        if self._dim is None:
            self._dim = max(f.bit_count() for f in self.facets) - 1
        return self._dim

    def faces_of_size(self, k):
        return [x for x in self.faces if x.bit_count() == k]

    def face_labels(self, mask):
        return [self.labels[i] for i in bits(mask)]

    def __eq__(self, other):
        return (
            isinstance(other, Complex)
            and self.n == other.n
            and self.facets == other.facets
        )

    def __hash__(self):
        return hash((self.n, self.facets))

    def __repr__(self):
        fct = sorted(self.facets, key=lambda m: (m.bit_count(), m))
        shown = ", ".join(
            "{" + ",".join(str(l) for l in self.face_labels(f)) + "}" for f in fct[:8]
        )
        more = "" if len(fct) <= 8 else f", ... ({len(fct)} facets)"
        return f"Complex(n={self.n}, facets=[{shown}{more}])"


def _induced(C, gens, W):
    """The complex on the vertex set W (a mask) generated by gens cut to W,
    reindexed to 0..|W|-1, with the labels of W's points."""
    return Complex(W.bit_count(), {compress(g, W) for g in gens}, tuple(C.labels[i] for i in bits(W)))


def restriction(C, W):
    """Induced subcomplex on the vertex subset W (a mask)."""
    if W == 0:
        raise DomainError("restriction to the empty vertex set")
    return _induced(C, C.facets, W)


def contraction(C, W):
    """Faces X over V minus W with X union W a face; W itself must be a face."""
    if not C.has(W):
        raise DomainError("contraction requires W to be a face")
    rest = C.full_mask & ~W
    if rest == 0:
        raise DomainError("contraction would empty the vertex set")
    return _induced(C, (f for f in C.facets if f & W == W), rest)


def truncate(C, k):
    """Faces of size at most k."""
    if k < 1:
        raise DomainError("truncation bound must be >= 1")
    gens = set()
    for f in C.facets:
        if f.bit_count() <= k:
            gens.add(f)
        else:
            gens.update(k_submasks(f, k))
    return Complex(C.n, gens, C.labels)


def _check_same_vertices(C, D, what):
    if C.n != D.n or C.labels != D.labels:
        raise DomainError(f"{what} requires identical vertex sets")


def union(C, D):
    """Faces H union H' over a shared vertex set."""
    _check_same_vertices(C, D, "union")
    return Complex(C.n, set(C.facets) | set(D.facets), C.labels)


def join(C, D):
    """Faces H union H' over the union of the vertex sets (aligned by label)."""
    labels = list(C.labels)
    seen = set(labels)
    for l in D.labels:
        if l not in seen:
            labels.append(l)
            seen.add(l)
    pos = {l: i for i, l in enumerate(labels)}
    remap = [pos[l] for l in D.labels]
    gens = set(C.facets)
    for f in D.facets:
        gens.add(mask_of(remap[i] for i in bits(f)))
    return Complex(len(labels), gens, tuple(labels))


def oplus(C, D):
    """Faces X union X' over disjoint vertex sets."""
    if set(C.labels) & set(D.labels):
        raise DomainError("oplus requires disjoint vertex sets")
    gens = {f | (g << C.n) for f in C.facets for g in D.facets}
    return Complex(C.n + D.n, gens, C.labels + D.labels)


def sum_complex(C, D):
    """Faces I union I' with I from H and I' from H', over a shared vertex set."""
    _check_same_vertices(C, D, "sum")
    gens = {f | g for f in C.facets for g in D.facets}
    return Complex(C.n, gens, C.labels)


def pure_part(C):
    """Subcomplex generated by the top-dimension faces, on the vertices they cover."""
    top = [f for f in C.facets if f.bit_count() == C.dim + 1]
    return _induced(C, top, reduce(or_, top))


def alpha_vector(C):
    """Face counts by size, indices 0..dim+1."""
    counts = [0] * (C.dim + 2)
    for f in C.faces:
        counts[f.bit_count()] += 1
    return tuple(counts)


def is_unimodal(seq):
    """True iff the sequence never increases again after a decrease."""
    decreased = False
    for a, b in zip(seq, seq[1:]):
        if b < a:
            decreased = True
        elif b > a and decreased:
            return False
    return True


def counting_function(C):
    alpha = alpha_vector(C)
    return alpha, is_unimodal(alpha)


def is_paving(C):
    """The dimension d if every d-subset of V is a face, else None. Reads the
    listed faces, so it is refused past SET_LIMIT faces, as its callers are."""
    d = C.dim
    faces = C.faces
    return d if all(X in faces for X in k_submasks(C.full_mask, d)) else None


def paving_dimension(C, what):
    """C's dimension d if C is paving, else a DomainError naming what asked."""
    d = is_paving(C)
    if d is None:
        raise DomainError(f"{what} requires a paving complex")
    return d


def defect(C):
    """Non-faces of size dim+1 (requires a paving complex)."""
    d = paving_dimension(C, "defect")
    faces = C.faces
    return SetFamily(C.n, [X for X in k_submasks(C.full_mask, d + 1) if X not in faces])


def adjacency(n, edges):
    """Neighbour masks of the graph on 0..n-1 with the given edges, each a mask
    of two points."""
    full = (1 << n) - 1
    adj = [0] * n
    for e in edges:
        if e.bit_count() != 2 or e & ~full:
            raise DomainError("edges must be masks of two points in 0..n-1")
        u, v = bits(e)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def components(W, adj):
    """Vertex masks of the connected components of the subgraph that the
    neighbour masks adj induce on W, in order of their lowest vertex."""
    comps = []
    seen = 0
    for s in bits(W):
        if seen >> s & 1:
            continue
        comp = 1 << s
        frontier = comp
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v] & W
            frontier = nxt & ~comp
            comp |= nxt
        comps.append(comp)
        seen |= comp
    return comps


# JSON interchange: {"vertices": <int n or label list>, "facets": [[labels...], ...]}

def _json_vertices(C):
    """The "vertices" value of C's JSON object: n for the default labels."""
    return C.n if C.labels == tuple(range(1, C.n + 1)) else list(C.labels)


def _sorted_facets(C):
    """C's facets sorted by size, then mask."""
    fct = sorted(C.facets)
    fct.sort(key=int.bit_count)
    return fct


def complex_to_dict(C):
    """The JSON interchange object of C, facets sorted by size then mask."""
    return {"vertices": _json_vertices(C), "facets": [C.face_labels(f) for f in _sorted_facets(C)]}


def write_complex_json(C, out):
    """Write the text json.dumps(complex_to_dict(C), indent=2) and a newline
    to the text stream out, one facet at a time, so that neither the text nor
    the facets' label lists are held whole. Each label is encoded once."""
    import json

    vertices = json.dumps(_json_vertices(C), indent=2).replace("\n", "\n  ")
    item = ["      " + json.dumps(l) for l in C.labels]
    out.write('{\n  "vertices": ' + vertices + ',\n  "facets": [')
    sep = "\n"
    for f in _sorted_facets(C):
        out.write(sep + "    [\n" + ",\n".join([item[v] for v in bits(f)]) + "\n    ]")
        sep = ",\n"
    out.write("\n  ]\n}\n")


# JSON scalars usable as vertex labels (bool is an int subclass)
_JSON_LABEL = (str, int, float, type(None))


def _read_json(text):
    """The value of a JSON text; a malformed or too deeply nested one is a
    DomainError."""
    import json

    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"invalid JSON: {exc}") from None


def _label_finder(labels):
    """The function from a JSON value to the position of the label equal to
    it, None if there is none. Labels are keyed by (is a boolean, label):
    true equals 1 in Python, not in JSON."""
    pos = {(isinstance(l, bool), l): i for i, l in enumerate(labels)}
    return lambda l: pos.get((isinstance(l, bool), l)) if isinstance(l, _JSON_LABEL) else None


def complex_from_json(text):
    data = _read_json(text)
    if not isinstance(data, dict) or "vertices" not in data or "facets" not in data:
        raise DomainError('expected an object with "vertices" and "facets"')
    vertices = data["vertices"]
    if isinstance(vertices, bool):
        raise DomainError('"vertices" must be an int or a list of labels')
    if isinstance(vertices, int):
        if vertices < 1:
            raise DomainError("vertex count must be positive")
        check_capacity(vertices)
        labels = tuple(range(1, vertices + 1))
    elif isinstance(vertices, list):
        if not all(isinstance(l, _JSON_LABEL) for l in vertices):
            raise DomainError("vertex labels must be strings, numbers, booleans or null")
        labels = tuple(vertices)
        if len(set(labels)) != len(labels):
            raise DomainError("duplicate vertex labels")
    else:
        raise DomainError('"vertices" must be an int or a list of labels')
    n = len(labels)
    check_capacity(n)
    find = _label_finder(labels)
    facets = data["facets"]
    if not isinstance(facets, list):
        raise DomainError('"facets" must be a list of facets')
    gens = []
    for facet in facets:
        if not isinstance(facet, list):
            raise DomainError("each facet must be a list of labels")
        m = 0
        for l in facet:
            i = find(l)
            if i is None:
                raise DomainError(f"facet uses unknown vertex label {l!r}")
            if m >> i & 1:
                raise DomainError(f"facet lists vertex label {l!r} twice")
            m |= 1 << i
        gens.append(m)
    return Complex(n, gens, labels)
