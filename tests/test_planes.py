import random

import pytest

from reductions.errors import DomainError
from reductions.exact import RationalMatrix, rat
from reductions.liealg import Element
from reductions.pairs import (
    k_nilpotent_elements,
    make_transpose_pair,
    sample_k_automorphism,
    square_of,
)
from reductions.planes import (
    GammaFamily,
    anticanonical_degrees,
    cartan_plane,
    exterior_killing_value,
    gamma_subspace,
    is_anisotropic_subalgebra,
    is_cj_closed,
    is_special_reduction,
    maximal_linear_through,
    plane_from_basis,
    plane_from_subspace,
)


def antidiag(pair, mat):
    """(x, -x) element of a Cartesian square from a factor matrix."""
    half = pair.g.dim // 2
    factor = pair.g  # product algebra
    # realize in the left factor then mirror
    left = square_factor_element(pair, mat)
    return left


def square_factor_element(pair, mat):
    big = pair.g.realization[0].rows
    n = big // 2
    rows = []
    for i in range(big):
        row = []
        for j in range(big):
            if i < n and j < n:
                row.append(mat.entries[i][j])
            elif i >= n and j >= n:
                row.append(-mat.entries[i - n][j - n])
            else:
                row.append(rat(0))
        rows.append(row)
    return pair.g.from_realization(RationalMatrix(rows))


def E(n, i, j):
    m = [[rat(0)] * n for _ in range(n)]
    m[i][j] = rat(1)
    return RationalMatrix(m)


def test_plane_canonicalization():
    pair = square_of("sl3")
    a = cartan_plane(pair)
    els = a.basis_elements()
    permuted = plane_from_basis(pair, [els[1], els[0]])
    assert permuted == a
    combo = plane_from_basis(pair, [els[0] + els[1], els[1]])
    assert combo == a


def test_plane_rejects_dependent_input():
    pair = square_of("sl3")
    els = cartan_plane(pair).basis_elements()
    with pytest.raises(DomainError):
        plane_from_basis(pair, [els[0], 2 * els[0]])


def test_plucker_matches_minors_and_equality():
    pair = square_of("sl3")
    a = cartan_plane(pair)
    pv = a.plucker()
    assert pv.r == 2 and pv.n == 8
    # equality of planes iff proportional Plücker vectors, on a sample
    rng = random.Random(2)
    fam = maximal_linear_through(a, rng=rng)[0]
    other = fam.sample(rng)
    assert (other == a) == other.plucker().proportional_to(pv)


def test_abelian_membership_spec_examples():
    pair = square_of("sl3")
    assert is_anisotropic_subalgebra(cartan_plane(pair))
    u = plane_from_basis(
        pair,
        [square_factor_element(pair, E(3, 0, 1)), square_factor_element(pair, E(3, 0, 2))],
    )
    assert is_anisotropic_subalgebra(u)
    w = plane_from_basis(
        pair,
        [square_factor_element(pair, E(3, 0, 1)), square_factor_element(pair, E(3, 1, 0))],
    )
    assert not is_anisotropic_subalgebra(w)


def test_abelian_membership_basis_invariant():
    pair = square_of("sl3")
    u = cartan_plane(pair)
    els = u.basis_elements()
    rebased = plane_from_basis(pair, [els[0] + 3 * els[1], els[1] - els[0]])
    assert rebased == u
    assert is_anisotropic_subalgebra(rebased)


def test_exterior_killing_values():
    p3 = make_transpose_pair(3)
    assert exterior_killing_value(cartan_plane(p3)) != 0

    sq2 = square_of("sl2")
    assert exterior_killing_value(cartan_plane(sq2)) == 16

    e_line = plane_from_basis(sq2, [square_factor_element(sq2, E(2, 0, 1))])
    assert exterior_killing_value(e_line) == 0


def test_special_reduction_checks():
    sq2 = square_of("sl2")
    assert is_special_reduction(cartan_plane(sq2), known_in_r=True) is False
    e_line = plane_from_basis(sq2, [square_factor_element(sq2, E(2, 0, 1))])
    assert is_special_reduction(e_line, known_in_r=True) is True
    with pytest.raises(DomainError):
        is_special_reduction(cartan_plane(sq2), known_in_r=False)


def test_cj_closed():
    sq2 = square_of("sl2")
    assert is_cj_closed(cartan_plane(sq2))
    # span{(h,-h) + (e,-e)} is abelian but not CJ-closed
    h_plus_e = square_factor_element(
        sq2, RationalMatrix([[1, 1], [0, -1]])
    )
    u = plane_from_basis(sq2, [h_plus_e])
    assert is_anisotropic_subalgebra(u)
    assert is_cj_closed(u)  # h+e is itself semisimple, so the line is closed
    # a genuinely non-closed example: the line through a mixed element
    sq3 = square_of("sl3")
    x = square_factor_element(
        sq3, RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, -2]])
    )
    u2 = plane_from_basis(sq3, [x])
    assert is_anisotropic_subalgebra(u2)
    assert not is_cj_closed(u2)


def test_gamma_family_shapes():
    pair = square_of("sl3")
    a = cartan_plane(pair).to_subspace()
    full = pair.g.subspace(pair.p.basis_elements())
    whole = gamma_subspace(pair, pair.g.subspace([]), full)
    assert whole.dim == 2 * (8 - 2)
    point = gamma_subspace(pair, a, a)
    assert point.dim == 0 and plane_from_subspace(pair, point.v) == cartan_plane(pair)
    with pytest.raises(DomainError):
        gamma_subspace(pair, full, a)


def test_gamma_p2_instance():
    # v of dim r-1 inside a, w = c_p(z): a projective plane of members
    pair = square_of("sl3")
    from reductions.pairs import singular_kernels

    sk = singular_kernels(pair)[0]
    fam = GammaFamily(pair, sk.kernel, sk.centralizer_in_p, pair.rank)
    assert fam.dim == 2 and fam.is_linear
    rng = random.Random(5)
    member = fam.sample(rng)
    assert fam.contains(member)
    assert is_anisotropic_subalgebra(member)


def test_maximal_linear_through_counts():
    rng = random.Random(1)
    assert len(maximal_linear_through(cartan_plane(square_of("sl3")), rng=rng)) == 3
    assert len(maximal_linear_through(cartan_plane(square_of("sp4")), rng=rng)) == 4
    fams = maximal_linear_through(cartan_plane(make_transpose_pair(3)), rng=rng)
    assert len(fams) == 3
    assert all(f.dim == 1 for f in fams)


def test_anticanonical_degrees():
    rng = random.Random(4)
    degs = anticanonical_degrees(cartan_plane(square_of("sl3")), rng=rng)
    assert degs == [(2, 3), (2, 3), (2, 3)]
    degs3 = anticanonical_degrees(cartan_plane(make_transpose_pair(3)), rng=rng)
    assert degs3 == [(1, 2), (1, 2), (1, 2)]


def test_k_translate_preserves_abelian_and_killing():
    pair = square_of("sl3")
    rng = random.Random(9)
    a = cartan_plane(pair)
    auto = sample_k_automorphism(pair, rng)
    moved = plane_from_basis(
        pair, [Element(pair.g, auto.apply(x.coords)) for x in a.basis_elements()]
    )
    assert is_anisotropic_subalgebra(moved)
    assert (exterior_killing_value(moved) == 0) == (exterior_killing_value(a) == 0)


def test_transpose_pair_k_sampling_uses_cayley():
    pair = make_transpose_pair(3)
    rng = random.Random(0)
    assert k_nilpotent_elements(pair, rng, count=1) == []
    auto = sample_k_automorphism(pair, rng)
    # automorphism commutes with the involution
    assert (auto * pair.theta).entries == (pair.theta * auto).entries
