"""Bitmask data model for finite simplicial complexes.

Vertices are indices 0..n-1 with n <= 64; a face is an int whose set bits are
the face's vertices. A complex stores its facet antichain and materializes the
full (downward closed) face family lazily. Every complex contains the empty
face and all singletons. Labels are presentation only: equality and hashing
look at (n, facets).
"""

from __future__ import annotations

from itertools import combinations


class DomainError(ValueError):
    """Input outside an operation's domain (bad vertex set, missing face, ...)."""


class CapacityError(RuntimeError):
    """Instance too large for the implemented algorithms."""


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
    """All subsets of mask with exactly k bits."""
    for combo in combinations(tuple(bits(mask)), k):
        yield mask_of(combo)


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


def decompress(mask, universe):
    """Inverse of compress: spread low bits of mask onto universe's bit positions."""
    out = 0
    pos = 0
    u = universe
    while u:
        b = u & -u
        if mask & (1 << pos):
            out |= b
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


def _antichain(masks):
    """Drop members contained in another member."""
    by_size = sorted(set(masks), key=lambda m: -m.bit_count())
    kept = []
    for m in by_size:
        if not any(m & ~k == 0 for k in kept):
            kept.append(m)
    return frozenset(kept)


class Complex:
    """Simplicial complex on vertices 0..n-1, stored by its facet antichain."""

    __slots__ = ("n", "facets", "labels", "_faces")

    def __init__(self, n, generators=(), labels=None):
        if n < 1:
            raise DomainError("vertex set must be nonempty")
        if n > 64:
            raise CapacityError(f"n={n} exceeds the 64-vertex capacity")
        full = (1 << n) - 1
        gens = set()
        for g in generators:
            if g & ~full:
                raise DomainError("generator uses vertices outside 0..n-1")
            gens.add(g)
        gens.update(1 << i for i in range(n))
        self.n = n
        self.facets = _antichain(gens)
        if labels is None:
            labels = tuple(range(1, n + 1))
        else:
            labels = tuple(labels)
            if len(labels) != n or len(set(labels)) != n:
                raise DomainError("labels must be distinct and one per vertex")
        self.labels = labels
        self._faces = None

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    @property
    def faces(self):
        """The full face family as a frozenset of masks (materialized on first use)."""
        if self._faces is None:
            out = set()
            for f in self.facets:
                out.update(submasks(f))
            self._faces = frozenset(out)
        return self._faces

    def has(self, mask):
        """Membership test; avoids materializing faces when possible."""
        if self._faces is not None:
            return mask in self._faces
        return any(mask & ~f == 0 for f in self.facets)

    @property
    def dim(self):
        return max(f.bit_count() for f in self.facets) - 1

    def faces_of_size(self, k):
        return [x for x in self.faces if x.bit_count() == k]

    def label_of(self, index):
        return self.labels[index]

    def index_of(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"unknown vertex label {label!r}") from None

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


def restriction(C, W):
    """Induced subcomplex on the vertex subset W (a mask)."""
    if W == 0:
        raise DomainError("restriction to the empty vertex set")
    gens = {compress(f & W, W) for f in C.facets}
    labels = tuple(C.labels[i] for i in bits(W))
    return Complex(W.bit_count(), gens, labels)


def contraction(C, W):
    """Faces X over V minus W with X union W a face; W itself must be a face."""
    if not C.has(W):
        raise DomainError("contraction requires W to be a face")
    rest = C.full_mask & ~W
    if rest == 0:
        raise DomainError("contraction would empty the vertex set")
    gens = {compress(f & rest, rest) for f in C.facets if f & W == W}
    labels = tuple(C.labels[i] for i in bits(rest))
    return Complex(rest.bit_count(), gens, labels)


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
    d1 = C.dim + 1
    top = [f for f in C.facets if f.bit_count() == d1]
    V = 0
    for f in top:
        V |= f
    gens = {compress(f, V) for f in top}
    labels = tuple(C.labels[i] for i in bits(V))
    return Complex(V.bit_count(), gens, labels)


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
    """The dimension d if every d-subset of V is a face, else None."""
    d = C.dim
    full = C.full_mask
    for X in k_submasks(full, d):
        if not C.has(X):
            return None
    return d


def defect(C):
    """Non-faces of size dim+1 (requires a paving complex)."""
    d = is_paving(C)
    if d is None:
        raise DomainError("defect is defined for paving complexes")
    faces = C.faces
    missing = [X for X in k_submasks(C.full_mask, d + 1) if X not in faces]
    return SetFamily(C.n, missing)


def defect_graph_components(C):
    """Connected components of the defect graph of a paving dim-1 complex.

    Every vertex of V counts; vertices not covered by a defect edge are
    singleton components. Returns a list of vertex masks.
    """
    d = is_paving(C)
    if d != 1:
        raise DomainError("defect graph is defined for paving complexes of dimension 1")
    edges = list(defect(C).members)
    adj = [0] * C.n
    for e in edges:
        u, v = tuple(bits(e))
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    comps = []
    seen = 0
    for s in range(C.n):
        if seen >> s & 1:
            continue
        comp = 1 << s
        frontier = comp
        while frontier:
            nxt = 0
            for i in bits(frontier):
                nxt |= adj[i]
            frontier = nxt & ~comp
            comp |= nxt
        comps.append(comp)
        seen |= comp
    return comps


# JSON interchange: {"vertices": <int n or label list>, "facets": [[labels...], ...]}

def complex_to_json(C, indent=None):
    import json

    default_labels = tuple(range(1, C.n + 1))
    vertices = C.n if C.labels == default_labels else list(C.labels)
    fct = sorted(C.facets, key=lambda m: (m.bit_count(), m))
    facets = [C.face_labels(f) for f in fct]
    return json.dumps({"vertices": vertices, "facets": facets}, indent=indent)


# JSON scalars usable as vertex labels (bool is an int subclass)
_JSON_LABEL = (str, int, float, type(None))


def complex_from_json(text):
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "vertices" not in data or "facets" not in data:
        raise DomainError('expected an object with "vertices" and "facets"')
    vertices = data["vertices"]
    if isinstance(vertices, bool):
        raise DomainError('"vertices" must be an int or a list of labels')
    if isinstance(vertices, int):
        if vertices < 1:
            raise DomainError("vertex count must be positive")
        if vertices > 64:
            raise CapacityError(f"n={vertices} exceeds the 64-vertex capacity")
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
    if n > 64:
        raise CapacityError(f"n={n} exceeds the 64-vertex capacity")
    pos = {l: i for i, l in enumerate(labels)}
    facets = data["facets"]
    if not isinstance(facets, list):
        raise DomainError('"facets" must be a list of facets')
    gens = []
    for facet in facets:
        if not isinstance(facet, list):
            raise DomainError("each facet must be a list of labels")
        m = 0
        for l in facet:
            if not isinstance(l, _JSON_LABEL) or l not in pos:
                raise DomainError(f"facet uses unknown vertex label {l!r}")
            m |= 1 << pos[l]
        gens.append(m)
    return Complex(n, gens, labels)
