"""Matroid structure, extensions, shellability, and line-complex tests."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brsc.core import (
    Complex,
    DomainError,
    bits,
    is_paving,
    k_submasks,
    mask_of,
    pure_part,
    truncate,
)
from brsc.lattice import flats, is_boolean_representable
from brsc.matroid import (
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
from brsc.operators import b_d, up
from brsc.t_operator import jt_complex


def tri(*t):
    return mask_of(tuple(x - 1 for x in t))


def complexes(max_n=5):
    @st.composite
    def strat(draw):
        n = draw(st.integers(1, max_n))
        full = (1 << n) - 1
        gens = draw(st.lists(st.integers(0, full), max_size=8))
        return Complex(n, gens)

    return strat()


def _far():
    return Complex(4, set(k_submasks(0b1111, 2)) | {tri(1, 2, 3)})


def test_is_matroid_examples():
    U35 = Complex(5, set(k_submasks(0b11111, 3)))
    assert is_matroid(U35) == (True, None)
    assert is_matroid(desargues())[0]

    ok, pair = is_matroid(_far())
    assert not ok
    I, J = pair
    assert I.bit_count() == J.bit_count() + 1
    C = _far()
    assert all(not C.has(J | (1 << p)) for p in bits(I & ~J))


def test_far_is_near_matroid_but_not_matroid():
    C = _far()
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


@given(complexes())
@settings(max_examples=150, deadline=None)
def test_matroid_iff_closure_determines_size(C):
    assert is_matroid(C)[0] == _size_consistent_everywhere(C)


@given(complexes())
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


def test_truncation_representation_for_matroids():
    U46 = Complex(6, set(k_submasks((1 << 6) - 1, 4)))
    assert truncation_is_brsc_for_near_matroid(U46, 3)
    D = desargues()
    assert truncation_is_brsc_for_near_matroid(D, 2)
    K5 = jt_complex(D)
    assert truncation_is_brsc_for_near_matroid(K5, 3)
    with pytest.raises(DomainError):
        truncation_is_brsc_for_near_matroid(_far(), 2)


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

    free = Complex(4, [0b1111])
    F, verdict = matroid_extension_candidate(free)
    assert verdict == "no_extension" and F == free

    with pytest.raises(DomainError):
        matroid_extension_candidate(_far())


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


def _forest_complex(nv, edges):
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


def test_mixed_dimension_shelling():
    C = _far()
    sh = is_shellable(C)
    assert sh is not None
    assert shelling_certificates(C, sh.order) == sh.certificates
    assert sh.order[0] == tri(1, 2, 3)


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
        lines(_far())


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
