"""Helpers shared by the test modules: the hypothesis strategy of small
complexes and the relabeling of a complex's vertices."""

from hypothesis import strategies as st

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
