import itertools

import pytest

from reductions.errors import DomainError
from reductions.exact import RationalMatrix, rat
from reductions.liealg import build_classical, build_g2, classify_element
from reductions.pairs import (
    dim_reduction_variety,
    derived_pair_maps,
    find_cartan_subspace,
    make_transpose_pair,
    restrict_pair,
    singular_kernels,
    square_of,
)


def test_square_sl2_shape():
    pair = square_of("sl2")
    assert pair.p.dim == 3
    assert pair.rank == 1
    assert pair.k.dim == 3


def test_square_sl3_shape():
    pair = square_of("sl3")
    assert pair.p.dim == 8 and pair.rank == 2


def test_square_g2_shape():
    pair = square_of("g2")
    assert pair.p.dim == 14 and pair.rank == 2


def test_transpose_pair_shapes():
    p3 = make_transpose_pair(3)
    assert p3.k.dim == 3 and p3.p.dim == 5 and p3.rank == 2
    p4 = make_transpose_pair(4)
    assert p4.p.dim == 9 and p4.rank == 3
    eye = RationalMatrix.identity(p3.g.dim)
    assert (p3.theta * p3.theta).entries == eye.entries


def test_transpose_pair_invalid_n():
    with pytest.raises(DomainError):
        make_transpose_pair(2)


def test_bracket_relations_k_p():
    for pair in (square_of("sl2"), make_transpose_pair(3)):
        k_els = pair.k.basis_elements()
        p_els = pair.p.basis_elements()
        for x, y in itertools.product(k_els, k_els):
            assert pair.k.contains(pair.g.bracket(x, y))
        for x, y in itertools.product(k_els, p_els):
            assert pair.p.contains(pair.g.bracket(x, y))
        for x, y in itertools.product(p_els, p_els):
            assert pair.k.contains(pair.g.bracket(x, y))


def test_find_cartan_subspace_properties():
    pair = make_transpose_pair(3)
    a = find_cartan_subspace(pair, seed=1)
    assert a.dim == pair.rank
    els = a.basis_elements()
    for x, y in itertools.combinations(els, 2):
        assert pair.g.bracket(x, y).is_zero()
    for x in els:
        assert classify_element(x) in ("semisimple", "zero")
    # self-centralizing inside p
    from reductions.liealg import centralizer_of_subspace

    assert centralizer_of_subspace(a, pair.p) == a


def test_find_cartan_square_sl2():
    pair = square_of("sl2")
    a = find_cartan_subspace(pair, seed=3)
    assert a.dim == 1


def test_restricted_roots_square_sl3():
    pair = square_of("sl3")
    data = pair.roots()
    assert len(data.roots) == 6
    assert data.root_type() == "A2"
    assert all(data.p_alpha[a].dim == 2 for a in data.positive)
    assert pair.p.dim == pair.rank + sum(data.p_alpha[a].dim for a in data.positive)


def test_restricted_roots_transpose3():
    pair = make_transpose_pair(3)
    data = pair.roots()
    assert data.root_type() == "A2"
    assert all(data.p_alpha[a].dim == 1 for a in data.positive)
    assert pair.rank + sum(d.dim for d in data.p_alpha.values()) == 5


def test_roots_negation_closure():
    data = make_transpose_pair(3).roots()
    roots = set(data.roots)
    assert roots == {tuple(-c for c in a) for a in roots}


def test_dim_reduction_variety_values():
    assert dim_reduction_variety(make_transpose_pair(3)) == 3
    assert dim_reduction_variety(square_of("sl2")) == 2
    assert dim_reduction_variety(square_of("g2")) == 12


def test_singular_kernels_square_sl3():
    pair = square_of("sl3")
    kernels = singular_kernels(pair)
    assert len(kernels) == 3
    for sk in kernels:
        assert sk.kernel.dim == pair.rank - 1
        assert sk.centralizer_in_p.dim == 4


def test_singular_kernels_square_sl2():
    kernels = singular_kernels(square_of("sl2"))
    assert len(kernels) == 1
    assert kernels[0].kernel.dim == 0


def test_derived_maps_center_free_pair():
    pair = square_of("sl2")
    maps = derived_pair_maps(pair)
    assert maps.p_center.dim == 0
    u = pair.cartan
    assert maps.project(u) == u
    assert maps.include(u) == u


def test_derived_maps_on_centralizer_pair():
    # the centralizer of a root kernel in the square of sl3 has a center
    pair = square_of("sl3")
    sk = singular_kernels(pair)[0]
    from reductions.liealg import centralizer_of_subspace

    sub = centralizer_of_subspace(sk.kernel, pair.g.full_subspace())
    cpair, emb = restrict_pair(pair, sub, name="centralizer")
    assert cpair.rank == pair.rank  # equal-rank property of anchor centralizers
    maps = derived_pair_maps(cpair)
    assert maps.p_center.dim >= 1
    a = cpair.cartan
    v = maps.project(a)
    assert maps.include(v) == a  # j(p(u)) = u
    # p(j(v)) = v on the derived side
    assert maps.project(maps.include(v)) == v
    # a plane missing the center is rejected
    bad = cpair.g.subspace(maps.p_derived.basis_elements()[: pair.rank])
    if not bad.contains_subspace(maps.p_center):
        with pytest.raises(DomainError):
            maps.project(bad)


def test_restricted_roots_g2_square():
    pair = square_of("g2")
    data = pair.roots()
    assert len(data.roots) == 12
    assert data.root_type() == "G2"
    assert pair.p.dim == pair.rank + sum(data.p_alpha[a].dim for a in data.positive)


def test_restricted_roots_sp4_square():
    pair = square_of("sp4")
    data = pair.roots()
    assert len(data.roots) == 8
    assert len(data.positive) == 4
    assert dim_reduction_variety(pair) == 8


def test_involution_that_is_not_an_automorphism_is_rejected():
    # theta e = -e, theta f = f, theta h = h squares to the identity, but
    # [theta e, theta f] = -h while theta [e, f] = theta h = h
    from reductions.errors import InternalCheckError
    from reductions.pairs import SymmetricPair

    g = build_classical("sl", 2)
    e, f = g.labels.index("e12"), g.labels.index("e21")
    signs = [-1 if i == e else 1 for i in range(g.dim)]
    theta = RationalMatrix([[signs[i] if i == j else 0 for j in range(g.dim)] for i in range(g.dim)])
    cartan = g.subspace([g.basis_element(g.labels.index("h1"))])
    with pytest.raises(InternalCheckError, match=rf"automorphism on basis pair \({e}, {f}\)"):
        SymmetricPair(g, theta, cartan)
