"""Helpers shared by the test modules: the hypothesis strategy of small
complexes, the relabeling of a complex's vertices, and the comparison of the
subset-table route with the Horn-closure route."""

from functools import partial

from hypothesis import strategies as st

from brsc import lattice, t_operator
from brsc.core import Complex, bits, mask_of


def complexes(max_n):
    """Complexes on 1..max_n vertices, each generated by up to 8 drawn sets."""

    @st.composite
    def strat(draw):
        n = draw(st.integers(1, max_n))
        full = (1 << n) - 1
        gens = draw(st.lists(st.integers(0, full), max_size=8))
        return Complex(n, gens)

    return strat()


def relabeled(C, perm):
    """C with each vertex v moved to perm[v], under the default labels."""
    return Complex(C.n, [mask_of(perm[v] for v in bits(f)) for f in C.facets])


def table(members):
    """The subset table of a family: bit S set for each member S."""
    return sum(1 << X for X in members)


def assert_routes_agree(C):
    """flats, is_boolean_representable and is_tbrsc of C, the subset tables
    of T(H) and the flats, and the engine entry _gap, against the Horn route:
    NextClosure's lists and _first_gap's walks over the flat closure and
    cl_T."""
    want = lattice._closed_sets(C.n, lattice._level_closure(C, C.dim + 2), "flat family")
    got = lattice.flats(C)
    assert got == want and got.ascending == want.ascending
    faces, closed, flat = lattice._tables(C)
    assert faces == table(C.faces)
    assert flat == table(want.members)
    assert closed == table(t_operator.t_family(C).members)
    gap = lattice._first_gap(C, want.closure)
    assert lattice._gap(C, "flats", lambda C: want.closure) == gap
    assert lattice.is_boolean_representable(C) == (gap is None, gap)
    cl_T = partial(t_operator.cl_T, C)
    t_gap = lattice._first_gap(C, cl_T)
    assert lattice._gap(C, "T(H)", lambda C: cl_T) == t_gap
    assert t_operator.is_tbrsc(C) == (t_gap is None)
