"""The construction checks against the dense code they replace.

``LieAlgebra._check_jacobi``, ``SymmetricPair._check_automorphism`` and
``LieAlgebra._check_realization`` run on integers, over the nonzeros of the
integer structure table, of the involution's columns and of the matrices,
``LieAlgebra.bracket``, ``LieAlgebra.realize``,
``SymmetricPair.from_p_coords`` and ``centralizer_in`` over integer rows
with one common denominator, ``Subspace.coordinates_of`` reads the pivot
columns of the echelon basis, and ``exact.shifted`` subtracts a scalar on
the diagonal alone.  Each is run
here next to the dense reference it replaced, kept verbatim below: the same
verdict (the same first failing basis pair, the same message) on the
criterion-2 pairs, on seeded involutions that are not automorphisms, on
dense automorphisms, and on tables that fail on exactly one basis pair or
have one structure constant changed.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reductions.errors import DomainError, InternalCheckError
from reductions.exact import (
    LinearSolver,
    RationalMatrix,
    coordinates_in_row_space,
    nullspace,
    rat,
    rref,
    shifted,
)
from reductions.liealg import (
    Element,
    LieAlgebra,
    Subspace,
    algebra_from_matrices,
    build_classical,
    build_g2,
    centralizer_in,
)
from reductions.pairs import (
    SymmetricPair,
    cayley_orthogonal,
    conjugation_automorphism,
    make_transpose_pair,
    square_of,
)

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3),
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
)


def criterion2_pairs():
    return [square_of(k) for k in ("sl2", "sl3", "sp4", "g2")] + [
        make_transpose_pair(3),
        make_transpose_pair(4),
    ]


def seven_pairs():
    return criterion2_pairs() + [square_of("sl5")]


def scaled_sl2():
    """sl2 on the basis (e/2, f, h/3): structure constants 3/2 and ±2/3,
    so that the integer table has a common denominator L = 6."""
    e, f, h = build_classical("sl", 2).realization
    return algebra_from_matrices(["e/2", "f", "h/3"], [e * Fraction(1, 2), f, h * Fraction(1, 3)])


def halved_sl2():
    """sl2 on the basis (e, f, h/2): integer structure constants (L = 1)
    and a realization with denominator F = 2."""
    e, f, h = build_classical("sl", 2).realization
    return algebra_from_matrices(["e", "f", "h/2"], [e, f, h * Fraction(1, 2)])


def scaled_sl2_pair():
    """(sl2, so2) on the basis (e/2, f, h/3), theta(x) = -x^T: p is spanned
    by (1, 1/2, 0) and h/3, so its rows are not integer rows."""
    g = scaled_sl2()
    theta = RationalMatrix([[0, -2, 0], [Fraction(-1, 2), 0, 0], [0, 0, -1]])
    pair = SymmetricPair(g, theta, g.subspace([[0, 0, 1]]), name="scaled")
    assert pair.p.basis.entries[0] == (1, Fraction(1, 2), 0)
    return pair


def sheared_sl2_pair():
    """(sl2, so2) on the basis (e, 2f - 2e, h), theta(x) = -x^T: f has
    coordinates (1, 1/2, 0), so the weight space of the root -2 has an
    echelon row with denominator 2."""
    e, f, h = build_classical("sl", 2).realization
    g = algebra_from_matrices(["e", "2f-2e", "h"], [e, (f - e) * 2, h])
    cols = [g.from_realization(-m.transpose()).coords for m in g.realization]
    return SymmetricPair(g, RationalMatrix(list(zip(*cols))), g.subspace([[0, 0, 1]]), name="sheared")


def all_fractions(coords):
    return all(type(a) is Fraction for a in coords)


# -- the dense references


def dense_shift(m, lam):
    eye = RationalMatrix.identity(m.rows)
    return m - eye * lam


def dense_bracket(g, x, y):
    acc = [Fraction(0)] * g.dim
    for i, xi in enumerate(x.coords):
        if xi == 0:
            continue
        for j, yj in enumerate(y.coords):
            if yj == 0 or i == j:
                continue
            for k, c in g._basis_bracket(i, j).items():
                acc[k] += xi * yj * c
    return Element(g, acc)


def dense_realize(g, x):
    size = g.realization[0].rows
    acc = [[Fraction(0)] * size for _ in range(size)]
    for c, m in zip(x.coords, g.realization):
        for r, row in enumerate(m.entries):
            for j, e in enumerate(row):
                acc[r][j] += c * e
    return tuple(map(tuple, acc))


def dense_from_p_coords(pair, coords):
    acc = [Fraction(0)] * pair.g.dim
    for c, row in zip(coords, pair.p.basis.entries):
        for i, e in enumerate(row):
            acc[i] += c * e
    return tuple(acc)


def dense_centralizer(x, v):
    g = x.parent
    images = [dense_bracket(g, x, Element(g, row)).coords for row in v.basis.entries]
    rows = []
    for combo in nullspace(RationalMatrix(images).transpose()).entries:
        vec = [Fraction(0)] * g.dim
        for c, row in zip(combo, v.basis.entries):
            for i, e in enumerate(row):
                vec[i] += c * e
        rows.append(vec)
    return g.subspace(rows) if rows else Subspace(g, RationalMatrix.zero(0, g.dim))


def dense_jacobi_verdict(g):
    for i, j, k in itertools.combinations(range(g.dim), 3):
        acc = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            inner = g._basis_bracket(a, b)
            for m, cm in inner.items():
                for l, cl in g._basis_bracket(m, c).items():
                    acc[l] = acc.get(l, Fraction(0)) + cm * cl
        if any(v != 0 for v in acc.values()):
            return f"Jacobi identity fails on basis triple ({i}, {j}, {k})"
    return None


def dense_automorphism_verdict(g, theta):
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = theta.apply(dense_bracket(g, g.basis_element(i), g.basis_element(j)).coords)
            ti = Element(g, theta.apply(g.basis_element(i).coords))
            tj = Element(g, theta.apply(g.basis_element(j).coords))
            if tuple(lhs) != dense_bracket(g, ti, tj).coords:
                return f"involution is not an automorphism on basis pair ({i}, {j})"
    return None


def dense_realization_verdict(g, realization):
    size = realization[0].rows
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            mi, mj = realization[i], realization[j]
            comm = mi * mj - mj * mi
            expected = RationalMatrix.zero(size, size)
            for k, c in g._basis_bracket(i, j).items():
                expected = expected + realization[k] * c
            if comm.entries != expected.entries:
                return f"realization commutator mismatch on basis pair ({i}, {j})"
    return None


def dense_inverse(m):
    n = m.rows
    aug = RationalMatrix([
        row + tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
        for i, row in enumerate(m.entries)
    ])
    red, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        raise DomainError("matrix is singular")
    return RationalMatrix([row[n:] for row in red.entries[:n]])


# -- the sparse checks, run on any (g, theta) without building a pair


def sparse_automorphism_verdict(g, theta):
    probe = object.__new__(SymmetricPair)
    probe.g, probe.theta = g, theta
    try:
        probe._check_automorphism()
    except InternalCheckError as exc:
        return str(exc)
    return None


def sparse_jacobi_verdict(labels, table):
    try:
        LieAlgebra(labels, table, check=False)._check_jacobi()
    except InternalCheckError as exc:
        return str(exc)
    return None


def sparse_realization_verdict(g, realization):
    try:
        LieAlgebra(g.labels, g.table, realization=realization, check=False)._check_realization()
    except InternalCheckError as exc:
        return str(exc)
    return None


def signed_permutation_involution(dim, rng):
    """theta e_i = s_i e_sigma(i) with sigma an involution and
    s_i s_sigma(i) = 1, so that theta squares to the identity."""
    perm = list(range(dim))
    free = list(range(dim))
    rng.shuffle(free)
    while len(free) >= 2 and rng.random() < 0.8:
        a, b = free.pop(), free.pop()
        perm[a], perm[b] = b, a
    signs = [0] * dim
    for i in range(dim):
        if not signs[i]:
            signs[i] = signs[perm[i]] = rng.choice((1, -1))
    cols = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        cols[perm[i]][i] = signs[i]
    return RationalMatrix(cols)


# -- shifted


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_shifted_matches_dense_subtraction(data):
    n = data.draw(st.integers(0, 5))
    m = RationalMatrix([[data.draw(entries) for _ in range(n)] for _ in range(n)])
    lam = data.draw(st.one_of(st.just(0), entries))
    out = shifted(m, lam)
    assert out.entries == dense_shift(m, lam).entries
    assert (out.rows, out.cols) == (n, n)
    assert all(type(a) is Fraction for row in out.entries for a in row)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("lam", [0, 1, Fraction(-2, 3)])
def test_shifted_on_empty_and_one_by_one(n, lam):
    m = RationalMatrix([[Fraction(5, 2)] * n for _ in range(n)])
    assert shifted(m, lam).entries == dense_shift(m, lam).entries
    assert shifted(m, lam).rows == n


def test_shifted_rejects_non_square():
    m = RationalMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DomainError, match="shape mismatch"):
        dense_shift(m, 1)
    with pytest.raises(DomainError, match="shape mismatch"):
        shifted(m, 1)


# -- the bracket


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("make", [lambda: build_classical("sl", 3), build_g2, scaled_sl2])
def test_bracket_matches_dense_bracket(make, data):
    g = make()
    x, y = (
        Element(g, [data.draw(st.one_of(st.just(0), entries)) for _ in range(g.dim)])
        for _ in range(2)
    )
    for a, b in ((x, y), (y, x)):
        got = g.bracket(a, b)
        assert got == dense_bracket(g, a, b)
        assert all_fractions(got.coords)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("make", [lambda: build_classical("sl", 3), build_g2, scaled_sl2])
def test_killing_matches_the_trace_of_dense_ad_products(make, data):
    # the integer Gram matrix and its denominator against tr(ad x · ad y),
    # with every ad column a dense bracket and the trace a Fraction fold
    g = make()
    x, y = (
        Element(g, [data.draw(st.one_of(st.just(0), entries)) for _ in range(g.dim)])
        for _ in range(2)
    )
    basis = [g.basis_element(j) for j in range(g.dim)]
    ad_x = [dense_bracket(g, x, b).coords for b in basis]  # columns
    ad_y = [dense_bracket(g, y, b).coords for b in basis]
    expected = sum(
        (ad_x[k][i] * ad_y[i][k] for i in range(g.dim) for k in range(g.dim)), Fraction(0)
    )
    got = g.killing(x, y)
    assert got == expected and type(got) is Fraction
    assert g.killing_matrix().entries[0][0] == g.killing(basis[0], basis[0])


def test_scaled_sl2_has_non_integer_structure_constants():
    g = scaled_sl2()
    constants = {c for bracket in g.table.values() for c in bracket.values()}
    assert constants == {Fraction(3, 2), Fraction(2, 3), Fraction(-2, 3)}
    e, f, h = (g.basis_element(i) for i in range(3))
    assert g.bracket(e, f).coords == (0, 0, Fraction(3, 2))
    assert g.bracket(f, h).coords == (0, Fraction(2, 3), 0)
    assert g.bracket(h, f).coords == (0, Fraction(-2, 3), 0)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("index", range(7))
def test_realize_matches_the_fraction_fold(index, data):
    g = seven_pairs()[index].g
    x = Element(g, [data.draw(st.one_of(st.just(0), entries)) for _ in range(g.dim)])
    got = g.realize(x)
    assert got.entries == dense_realize(g, x)
    assert all(all_fractions(row) for row in got.entries)
    assert (got.rows, got.cols) == (g.realization[0].rows,) * 2


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("index", range(8))
def test_from_p_coords_matches_the_fraction_fold(index, data):
    pair = (seven_pairs() + [scaled_sl2_pair()])[index]
    # ints and Fractions, as callers pass both
    coords = [data.draw(st.one_of(st.just(0), entries)) for _ in range(pair.p.dim)]
    got = pair.from_p_coords(coords).coords
    assert got == dense_from_p_coords(pair, coords)
    assert all_fractions(got)
    # back to p coordinates by the pivot columns, as solving over the rows
    # of p does; off p, by a nonzero vector of k, there are none
    back = pair.p.coordinates_of(got)
    assert back == coordinates_in_row_space(pair.p.basis, got) == tuple(map(Fraction, coords))
    assert all_fractions(back)
    k_part = [data.draw(entries) for _ in range(pair.k.dim)]
    off = tuple(a + sum(c * row[i] for c, row in zip(k_part, pair.k.basis.entries))
                for i, a in enumerate(got))
    if any(k_part):
        assert pair.p.coordinates_of(off) is None
        assert coordinates_in_row_space(pair.p.basis, off) is None


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("index", range(8))
def test_centralizer_in_matches_the_fraction_fold(index, data):
    pair = (seven_pairs() + [scaled_sl2_pair()])[index]
    # mostly zero coordinates, so that irregular elements come up too
    coords = [data.draw(st.one_of(st.just(0), st.just(0), entries)) for _ in range(pair.p.dim)]
    x = pair.from_p_coords(coords)
    for v in (pair.p, pair.k, pair.cartan):
        got = centralizer_in(x, v)
        assert got == dense_centralizer(x, v)
        assert all(all_fractions(row) for row in got.basis.entries)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("make", [lambda: build_classical("sl", 3), scaled_sl2])
def test_kernels_on_fractional_rows_match_the_fraction_folds(make, data):
    # the seven pairs have integer rows of p and integer realizations; here
    # the realization (scaled_sl2) and the rows of the subspace are not
    g = make()
    x = Element(g, [data.draw(st.one_of(st.just(0), entries)) for _ in range(g.dim)])
    assert g.realize(x).entries == dense_realize(g, x)
    rows = [[data.draw(entries) for _ in range(g.dim)] for _ in range(data.draw(st.integers(1, 3)))]
    v = g.subspace(rows)
    got = centralizer_in(x, v)
    assert got == dense_centralizer(x, v)
    assert all(all_fractions(row) for row in got.basis.entries)


@pytest.mark.parametrize("index", range(7))
def test_integer_kernels_return_fraction_zeros(index):
    pair = seven_pairs()[index]
    g = pair.g
    zero = g.zero()
    for out in (
        g.bracket(zero, g.basis_element(0)).coords,
        g.bracket(g.basis_element(0), g.basis_element(0)).coords,
        pair.from_p_coords([0] * pair.p.dim).coords,
        sum(g.realize(zero).entries, ()),
    ):
        assert all_fractions(out)
        assert all(a == 0 for a in out)


def test_bracket_of_basis_elements_matches_the_table():
    # every ordered basis pair, so a dropped sign or a dropped term shows
    g = build_g2()
    for i in range(g.dim):
        for j in range(g.dim):
            got = g.bracket(g.basis_element(i), g.basis_element(j))
            assert got == dense_bracket(g, g.basis_element(i), g.basis_element(j))


# -- the stored form of an element


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("index", range(7))
def test_elements_are_stored_as_the_canonical_integer_pair(index, data):
    # the criterion-2 algebras and the scaled sl2, over every path that
    # builds an element: den > 0 and gcd(den, *ints) == 1, the public
    # constructor on the Fraction coordinates gives the same element, and
    # so does from_integers on the pair times k, for k of either sign
    pair = (criterion2_pairs() + [scaled_sl2_pair()])[index]
    g = pair.g
    x, y = (
        Element(g, [data.draw(st.one_of(st.just(0), entries)) for _ in range(g.dim)])
        for _ in range(2)
    )
    c = data.draw(entries)
    i = data.draw(st.integers(0, g.dim - 1))
    coeffs = [data.draw(entries) for _ in range(pair.p.dim)]
    made = [
        x, x + y, x - y, -x, x * c, c * x, g.bracket(x, y), g.zero(), g.basis_element(i),
        pair.from_p_coords(coeffs), *pair.p.basis_elements(), g.from_realization(g.realize(x)),
    ]
    k = data.draw(st.integers(2, 6))
    for z in made:
        assert type(z.den) is int and z.den > 0 and len(z.ints) == g.dim
        assert all(type(a) is int for a in z.ints) and math.gcd(z.den, *z.ints) == 1
        assert all_fractions(z.coords)
        assert z.coords == tuple(Fraction(a, z.den) for a in z.ints)
        same = Element(g, z.coords)
        assert same == z and hash(same) == hash(z) and (same.den, same.ints) == (z.den, z.ints)
        for m in (k, -k, -1):
            scaled = Element.from_integers(g, m * z.den, [m * a for a in z.ints])
            assert scaled == z and hash(scaled) == hash(z)
            assert (scaled.den, scaled.ints) == (z.den, z.ints) and scaled.coords == z.coords


# -- the Jacobi check


def criterion2_algebras():
    return [build_classical("sl", 2), build_classical("sl", 3), build_classical("sp", 4), build_g2(),
            build_classical("sl", 4)]


@pytest.mark.parametrize("index", range(5))
def test_jacobi_verdict_on_criterion2_algebras(index):
    g = criterion2_algebras()[index]
    assert dense_jacobi_verdict(g) is None
    assert sparse_jacobi_verdict(g.labels, g.table) is None


@pytest.mark.parametrize("make", [lambda: build_classical("sl", 3), build_g2, scaled_sl2])
def test_jacobi_verdict_on_tables_with_one_constant_changed(make):
    # one structure constant moved by a small rational, or one new term:
    # both checks fail on the same first triple, or both pass
    g = make()
    rng = random.Random(1)
    failures = 0
    for _ in range(25):
        table = {key: dict(terms) for key, terms in g.table.items()}
        key = rng.choice(sorted(table))
        k = rng.choice(sorted(table[key]) + [rng.randrange(g.dim)])
        table[key][k] = table[key].get(k, Fraction(0)) + rat(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
        alg = LieAlgebra(g.labels, table, check=False)
        verdict = dense_jacobi_verdict(alg)
        assert sparse_jacobi_verdict(g.labels, table) == verdict
        failures += verdict is not None
    assert failures >= 10  # the changes mostly break the identity


# -- the automorphism check


@pytest.mark.parametrize("index", range(7))
def test_automorphism_verdict_on_criterion2_pairs(index):
    # and on the scaled pair, whose involution has denominator 2
    pair = (criterion2_pairs() + [scaled_sl2_pair()])[index]
    assert dense_automorphism_verdict(pair.g, pair.theta) is None
    assert sparse_automorphism_verdict(pair.g, pair.theta) is None


@pytest.mark.parametrize("make", [lambda: square_of("sl2"), lambda: make_transpose_pair(3)])
def test_automorphism_verdict_on_signed_permutation_involutions(make):
    pair = make()
    rng = random.Random(20100705)
    failures = 0
    for _ in range(40):
        theta = signed_permutation_involution(pair.g.dim, rng)
        assert (theta * theta) == RationalMatrix.identity(pair.g.dim)
        verdict = dense_automorphism_verdict(pair.g, theta)
        assert sparse_automorphism_verdict(pair.g, theta) == verdict
        failures += verdict is not None
    assert failures >= 30  # the draws mostly fail, at many different pairs


def unitriangular_conjugation(pair, rng):
    """Conjugation of the realization by a rational unitriangular q, on
    the first factor only for a square: an automorphism of g outside K."""
    n = pair.g.realization[0].rows
    size = n // 2 if pair.name.startswith("square") else n
    q = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(size):
        for j in range(i + 1, size):
            q[i][j] = rat(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
    q = RationalMatrix(q)
    return conjugation_automorphism(pair, q, LinearSolver(q).inverse())


@pytest.mark.parametrize(
    "make", [lambda: square_of("sl2"), lambda: make_transpose_pair(3), scaled_sl2_pair]
)
def test_automorphism_verdict_on_dense_conjugates(make):
    # phi theta phi^-1 is a dense involutive automorphism for an automorphism
    # phi; a sparse sum that dropped a term would reject it
    pair = make()
    rng = random.Random(7)
    for _ in range(3):
        phi = unitriangular_conjugation(pair, rng)
        theta = phi * pair.theta * LinearSolver(phi).inverse()
        assert sum(1 for row in theta.entries for a in row if a) > pair.g.dim
        assert dense_automorphism_verdict(pair.g, theta) is None
        assert sparse_automorphism_verdict(pair.g, theta) is None
        # and a sign flip on one basis image makes it fail, at the same pair
        flip = RationalMatrix(
            [[-a if j == 0 else a for j, a in enumerate(row)] for row in theta.entries]
        )
        verdict = dense_automorphism_verdict(pair.g, flip)
        assert verdict is not None
        assert sparse_automorphism_verdict(pair.g, flip) == verdict


def test_automorphism_verdict_names_every_single_failing_pair():
    # a table with one nonzero bracket fails theta = -I on that pair alone,
    # so a check that skipped any basis pair would pass one of these
    dim = 5
    minus = RationalMatrix([[-1 if i == j else 0 for j in range(dim)] for i in range(dim)])
    rng = random.Random(3)
    for i in range(dim):
        for j in range(i + 1, dim):
            k = rng.randrange(dim)
            alg = LieAlgebra([f"x{a}" for a in range(dim)], {(i, j): {k: rat(2)}}, check=False)
            expected = f"involution is not an automorphism on basis pair ({i}, {j})"
            assert dense_automorphism_verdict(alg, minus) == expected
            assert sparse_automorphism_verdict(alg, minus) == expected


def test_automorphism_verdict_on_random_maps():
    # any linear map, not only involutions: the check compares both sides
    # of theta[e_i, e_j] = [theta e_i, theta e_j] term by term
    g = build_classical("sl", 2)
    rng = random.Random(11)
    for _ in range(30):
        theta = RationalMatrix([[rng.randint(-1, 1) for _ in range(g.dim)] for _ in range(g.dim)])
        assert sparse_automorphism_verdict(g, theta) == dense_automorphism_verdict(g, theta)


# -- the weight spaces of the restricted roots


@pytest.mark.parametrize("index", range(8))
def test_weight_spaces_match_the_fraction_bracket(index):
    # every Cartan basis element acts on each g_alpha by the scalar the
    # root records, checked by the dense bracket; the scaled pair has ad
    # matrices with denominators and roots ±2/3, the sheared one a weight
    # space whose integer echelon row leads with 2
    pair = (criterion2_pairs() + [scaled_sl2_pair(), sheared_sl2_pair()])[index]
    data = pair.roots()
    a_els = pair.cartan.basis_elements()
    assert sum(space.dim for space in data.g_alpha.values()) + data.m.dim + pair.rank == pair.g.dim
    for alpha, space in data.g_alpha.items():
        for v in space.basis_elements():
            for a, value in zip(a_els, alpha):
                assert dense_bracket(pair.g, a, v).coords == tuple(value * c for c in v.coords)
    if pair.name == "scaled":
        assert data.roots == [(Fraction(-2, 3),), (Fraction(2, 3),)]
    if pair.name == "sheared":
        assert data.roots == [(-2,), (2,)]
        assert data.g_alpha[(-2,)].basis.ints == ((2, 1, 0),)


# -- the realization check


@pytest.mark.parametrize(
    "make",
    [lambda: build_classical("sl", 3), lambda: build_classical("sp", 4), build_g2, scaled_sl2, halved_sl2],
)
def test_realization_verdict_on_criterion2_algebras(make):
    # the scaled and halved sl2 have table and realization denominators
    # L = F = 6 and L = 1, F = 2
    g = make()
    assert dense_realization_verdict(g, g.realization) is None
    assert sparse_realization_verdict(g, g.realization) is None


def test_realization_verdict_on_perturbed_realizations():
    g = build_classical("sl", 3)
    rng = random.Random(5)
    for _ in range(20):
        mats = list(g.realization)
        a, b = rng.sample(range(g.dim), 2)
        if rng.random() < 0.5:
            mats[a], mats[b] = mats[b], mats[a]
        else:
            mats[a] = mats[a] + mats[b] * rat(rng.choice((1, -1, 2)))
        verdict = dense_realization_verdict(g, mats)
        assert verdict is not None
        assert sparse_realization_verdict(g, mats) == verdict


def test_realization_verdict_names_every_single_failing_pair():
    # sl3's realization against its table with one bracket changed fails on
    # that basis pair alone
    g = build_classical("sl", 3)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            table = dict(g.table)
            bracket = dict(table.get((i, j), {}))
            bracket[(i + j) % g.dim] = bracket.get((i + j) % g.dim, 0) + 1
            table[(i, j)] = bracket
            alg = LieAlgebra(g.labels, table, check=False)
            expected = f"realization commutator mismatch on basis pair ({i}, {j})"
            assert dense_realization_verdict(alg, g.realization) == expected
            assert sparse_realization_verdict(alg, g.realization) == expected


# -- Cayley rotations through LinearSolver


def test_cayley_pairs_match_the_dense_inverse():
    rng = random.Random(42)
    for n in (2, 3, 4):
        eye = RationalMatrix.identity(n)
        for _ in range(5):
            entries_ = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    c = rat(rng.randint(-2, 2), rng.choice([1, 2, 3]))
                    entries_[i][j], entries_[j][i] = c, -c
            antisym = RationalMatrix(entries_)
            q, q_inv = cayley_orthogonal(n, antisym)
            assert q == (eye + antisym) * dense_inverse(eye - antisym)
            assert q_inv == (eye - antisym) * dense_inverse(eye + antisym)
            assert q * q_inv == eye


def test_linear_solver_inverse_rejects_singular_matrices():
    singular = RationalMatrix([[1, 2], [2, 4]])
    with pytest.raises(DomainError, match="matrix is singular"):
        dense_inverse(singular)
    with pytest.raises(DomainError, match="matrix is singular"):
        LinearSolver(singular).inverse()
    with pytest.raises(DomainError):
        LinearSolver(RationalMatrix([[1, 2, 3]])).inverse()
