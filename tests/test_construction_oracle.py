"""The construction checks against the dense code they replace.

``SymmetricPair._check_automorphism`` and ``LieAlgebra._check_realization``
run over the nonzeros of the structure table and of the matrices,
``LieAlgebra.bracket``, ``LieAlgebra.realize``,
``SymmetricPair.from_p_coords`` and ``centralizer_in`` over integer rows
with one common denominator, ``Subspace.coordinates_of`` reads the pivot
columns of the echelon basis, and ``exact.shifted`` subtracts a scalar on
the diagonal alone.  Each is run
here next to the dense reference it replaced, kept verbatim below: the same
verdict (the same first failing basis pair, the same message) on the
criterion-2 pairs, on seeded involutions that are not automorphisms, on
dense automorphisms, and on tables that fail on exactly one basis pair.
"""

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


def scaled_sl2_pair():
    """(sl2, so2) on the basis (e/2, f, h/3), theta(x) = -x^T: p is spanned
    by (1, 1/2, 0) and h/3, so its rows are not integer rows."""
    g = scaled_sl2()
    theta = RationalMatrix([[0, -2, 0], [Fraction(-1, 2), 0, 0], [0, 0, -1]])
    pair = SymmetricPair(g, theta, g.subspace([[0, 0, 1]]), name="scaled")
    assert pair.p.basis.entries[0] == (1, Fraction(1, 2), 0)
    return pair


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
    return Element._trusted(g, tuple(acc))


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
    aug = RationalMatrix._trusted(
        tuple(
            row + tuple(Fraction(1) if i == j else Fraction(0) for j in range(n))
            for i, row in enumerate(m.entries)
        )
    )
    red, pivots = rref(aug)
    if list(pivots) != list(range(n)):
        raise DomainError("matrix is singular")
    return RationalMatrix._trusted(tuple(row[n:] for row in red.entries[:n]))


# -- the sparse checks, run on any (g, theta) without building a pair


def sparse_automorphism_verdict(g, theta):
    probe = object.__new__(SymmetricPair)
    probe.g, probe.theta = g, theta
    try:
        probe._check_automorphism()
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


# -- the automorphism check


@pytest.mark.parametrize("index", range(6))
def test_automorphism_verdict_on_criterion2_pairs(index):
    pair = criterion2_pairs()[index]
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


@pytest.mark.parametrize("make", [lambda: square_of("sl2"), lambda: make_transpose_pair(3)])
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


# -- the realization check


@pytest.mark.parametrize(
    "make", [lambda: build_classical("sl", 3), lambda: build_classical("sp", 4), build_g2]
)
def test_realization_verdict_on_criterion2_algebras(make):
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
