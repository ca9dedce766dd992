import random
from fractions import Fraction

import pytest

from reductions.errors import DomainError, InternalCheckError
from reductions.exact import RationalMatrix, is_squarefree, min_poly, rat
from reductions.liealg import (
    build_classical,
    build_g2,
    build_product,
    centralizer_in,
    classify_element,
    jordan_chevalley,
    rational_eigenvalues,
)


def sl(n):
    return build_classical("sl", n)


def element_from_matrix(g, mat):
    return g.from_realization(mat)


def _sl2_efh():
    g = sl(2)
    e = g.basis_element(g.labels.index("e12"))
    f = g.basis_element(g.labels.index("e21"))
    h = g.basis_element(g.labels.index("h1"))
    return g, e, f, h


# -- builders


def test_build_classical_dims():
    assert sl(2).dim == 3
    assert build_classical("so", 3).dim == 3
    assert build_classical("sp", 4).dim == 10


def test_sp4_dim_oracle():
    # oracle: count solutions of X^T J + J X = 0 on 4x4 matrices
    from reductions.exact import nullspace

    J = RationalMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    rows = []
    for i in range(4):
        for j in range(4):
            E = [[rat(0)] * 4 for _ in range(4)]
            E[i][j] = rat(1)
            E = RationalMatrix(E)
            rows.append(list((E.transpose() * J + J * E).vec()))
    ker = nullspace(RationalMatrix(rows).transpose())
    assert ker.rows == 10


def test_invalid_n_rejected():
    with pytest.raises(DomainError):
        build_classical("sl", 1)
    with pytest.raises(DomainError):
        build_classical("sp", 5)


def test_build_product_dims_and_cross_brackets():
    g = build_product(sl(2), sl(2))
    assert g.dim == 6
    left = g.basis_element(0)
    right = g.basis_element(3)
    assert g.bracket(left, right).is_zero()


def test_product_killing_block_diagonal():
    # oracle: the trace form of the product splits into blocks
    g = build_product(sl(2), sl(2))
    km = g.killing_matrix()
    for i in range(3):
        for j in range(3, 6):
            assert km.entries[i][j] == 0
    small = sl(2).killing_matrix()
    for i in range(3):
        for j in range(3):
            assert km.entries[i][j] == small.entries[i][j]
            assert km.entries[3 + i][3 + j] == small.entries[i][j]


# -- brackets and Killing form


def test_bracket_sl2_relations():
    g, e, f, h = _sl2_efh()
    # oracle: matrix commutators in the defining realization
    for x, y in [(e, f), (h, e), (h, f)]:
        mx, my = g.realize(x), g.realize(y)
        assert g.realize(g.bracket(x, y)) == mx * my - my * mx
    assert g.bracket(e, f) == h
    assert g.bracket(h, e) == 2 * e
    assert g.bracket(e, e).is_zero()


def test_killing_sl2():
    g, e, f, h = _sl2_efh()
    assert g.killing(h, h) == 8
    assert g.killing(e, e) == 0
    assert g.killing(e, f) == 4


def test_killing_invariance_random():
    g = sl(3)
    rng = random.Random(5)
    for _ in range(8):
        x, y, z = (
            g.element([rng.randint(-2, 2) for _ in range(g.dim)]) for _ in range(3)
        )
        lhs = g.killing(g.bracket(z, x), y) + g.killing(x, g.bracket(z, y))
        assert lhs == 0


def test_jacobi_checked_at_construction():
    # [a,b] = c, [a,c] = a, [b,c] = 0 violates Jacobi on (a,b,c)
    bad = {(0, 1): {2: Fraction(1)}, (0, 2): {0: Fraction(1)}}
    from reductions.liealg import LieAlgebra

    with pytest.raises(InternalCheckError):
        LieAlgebra(["a", "b", "c"], bad)


def test_realization_with_swapped_matrices_is_rejected():
    # e and f swapped: the realized commutator [f, e] = -h contradicts [e, f] = h
    from reductions.liealg import LieAlgebra

    g = sl(2)
    e, f = g.labels.index("e12"), g.labels.index("e21")
    mats = list(g.realization)
    mats[e], mats[f] = mats[f], mats[e]
    with pytest.raises(InternalCheckError, match="realization commutator mismatch"):
        LieAlgebra(g.labels, g.table, realization=mats, cartan_indices=g.cartan_indices)


# -- g2


def test_g2_dimensions():
    g = build_g2()
    assert g.dim == 14
    assert len(g.cartan_indices) == 2


def test_g2_root_count():
    g = build_g2()
    h = g.element([3, 2] + [0] * 12)
    eig = rational_eigenvalues(g.ad(h))
    nonzero = {k: v for k, v in eig.items() if k != 0}
    assert len(nonzero) == 12
    assert all(v == 1 for v in nonzero.values())
    assert eig[0] == 2


def test_g2_killing_nondegenerate():
    g = build_g2()
    km = g.killing_matrix()
    assert km.det() != 0


# -- Jordan-Chevalley


def test_jc_nilpotent():
    g, e, f, h = _sl2_efh()
    s, n = jordan_chevalley(e)
    assert s.is_zero() and n == e


def test_jc_h_plus_e_semisimple():
    g, e, f, h = _sl2_efh()
    x = h + e
    s, n = jordan_chevalley(x)
    assert n.is_zero() and s == x
    assert is_squarefree(min_poly(g.realize(x)))


def test_jc_mixed_example():
    g = sl(3)
    x = element_from_matrix(
        g, RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, -2]])
    )
    s, n = jordan_chevalley(x)
    assert not s.is_zero() and not n.is_zero()
    assert s + n == x
    assert g.bracket(s, n).is_zero()
    assert classify_element(s) == "semisimple"
    assert classify_element(n) == "nilpotent"
    assert classify_element(x) == "mixed"


def test_jc_commuting_additivity():
    g = sl(3)
    rng = random.Random(9)
    produced = 0
    while produced < 6:
        d = RationalMatrix(
            [
                [rng.randint(-2, 2), rng.randint(-2, 2), 0],
                [0, rng.randint(-2, 2), 0],
                [0, 0, 0],
            ]
        )
        d2 = RationalMatrix([[d.entries[0][0], 0, 0], [0, d.entries[1][1], 0], [0, 0, 0]])
        # make both traceless
        t1 = d.trace()
        t2 = d2.trace()
        dm = d - RationalMatrix.identity(3) * Fraction(t1, 3)
        dm2 = d2 - RationalMatrix.identity(3) * Fraction(t2, 3)
        if (dm * dm2).entries != (dm2 * dm).entries:
            continue
        x = element_from_matrix(g, dm)
        y = element_from_matrix(g, dm2)
        sx, nx = jordan_chevalley(x)
        sy, ny = jordan_chevalley(y)
        sxy, nxy = jordan_chevalley(x + y)
        assert sxy == sx + sy
        assert nxy == nx + ny
        produced += 1


def test_jc_irrational_spectrum_still_splits():
    # eigenvalues are +-sqrt(2); the split is rational regardless
    g = sl(2)
    x = element_from_matrix(g, RationalMatrix([[0, 2], [1, 0]]))
    s, n = jordan_chevalley(x)
    assert n.is_zero() and s == x
    assert classify_element(x) == "semisimple"


# -- centralizers and classification


def test_centralizer_of_h_in_sl2():
    g, e, f, h = _sl2_efh()
    c = centralizer_in(h, g.full_subspace())
    assert c.dim == 1 and c.contains(h)


def test_centralizer_of_zero():
    g = sl(2)
    v = g.full_subspace()
    assert centralizer_in(g.zero(), v).dim == 3


def test_zero_subspace_contains_only_zero():
    g = sl(2)
    zero = g.subspace([])
    assert zero.dim == 0
    assert not zero.contains(g.basis_element(0))
    assert zero.contains(g.zero())
    assert zero.coordinates_of(g.zero()) == ()
    assert g.full_subspace().contains_subspace(zero)
    assert not zero.contains_subspace(g.full_subspace())


def test_centralizer_of_e_in_sl2():
    g, e, f, h = _sl2_efh()
    c = centralizer_in(e, g.full_subspace())
    assert c.dim == 1 and c.contains(e)


def test_classify():
    g, e, f, h = _sl2_efh()
    assert classify_element(e) == "nilpotent"
    assert classify_element(h) == "semisimple"
    assert classify_element(g.zero()) == "zero"


def test_classify_mixed_spec_instance():
    g = sl(3)
    x = element_from_matrix(g, RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, -2]]))
    assert classify_element(x) == "mixed"


def test_product_realization_is_block_diagonal_and_exact():
    # the blocks are padded from the factors' Fraction rows, not re-coerced
    g1, g2 = sl(2), build_classical("sp", 4)
    prod = build_product(g1, g2)
    s1, s2 = g1.realization[0].rows, g2.realization[0].rows
    for i, m in enumerate(prod.realization):
        assert (m.rows, m.cols) == (s1 + s2, s1 + s2)
        assert all(type(row) is tuple for row in m.entries)
        assert all(type(c) is Fraction for row in m.entries for c in row)
        left = i < g1.dim
        block = g1.realization[i] if left else g2.realization[i - g1.dim]
        lo = 0 if left else s1
        expected = [[0] * (s1 + s2) for _ in range(s1 + s2)]
        for r, row in enumerate(block.entries):
            expected[lo + r][lo : lo + len(row)] = row
        assert m == RationalMatrix(expected)
