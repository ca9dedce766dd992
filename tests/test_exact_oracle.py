"""The exact kernel against independent oracles.

The rational linear algebra (products, fraction-free elimination, the
vector-lcm minimal polynomial) is checked against sympy, which serves as an
oracle here and nowhere in the package.  The series products, which run
over integer coefficients, are checked against the schoolbook fold they
replace: equal val, coeffs and prec.  The fraction-free
valuation-adapted reduction is checked against the reduction by truncated
pivot inverses it replaced: the same pivots, valuations and leading
coefficients up to a scalar.  And every entry that comes
out of an internal constructor must be a ``Fraction``: an ``int`` would
compare and hash equal, yet turn ``1 / x`` into a float.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reductions.acceptance import _sample_curve
from reductions.degeneration import GroupCurve, _extend_basis, _restrict_to_p
from reductions.errors import DomainError, InternalCheckError, PrecisionError, RankDeficiencyError
from reductions.exact import (
    DEFAULT_BUDGET,
    ColumnReduction,
    LaurentSeries,
    LinearSolver,
    RationalMatrix,
    SeriesMatrix,
    _eliminate,
    _prepared,
    _sum_of_products,
    _sum_of_scaled,
    Polynomial,
    combine_rows,
    coordinates_in_row_space,
    eigenspaces,
    integer_squarefree_part,
    intersect_row_spaces,
    is_squarefree,
    matrix_polynomial,
    min_poly,
    nullspace,
    rank,
    rat,
    reduced_projection,
    rref,
    row_space,
    solve,
    valuation_adapted_reduce,
)
from reductions.pairs import k_nilpotent_elements, make_transpose_pair, square_of
from reductions.planes import PluckerVector

try:
    import sympy
except ImportError:  # the oracle tests need it; the rest of the file does not
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
entries = st.one_of(st.just(Fraction(0)), st.integers(-3, 3), small)


@st.composite
def matrices(draw, rows=None, cols=None, max_dim=5):
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim)) if cols is None else cols
    m = [[draw(entries) for _ in range(c)] for _ in range(r)]
    # zero rows and zero columns are common in the package's sparse inputs
    if r and draw(st.booleans()):
        m[draw(st.integers(0, r - 1))] = [0] * c
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in m:
            row[j] = 0
    return RationalMatrix(m)


@st.composite
def square_matrices(draw, max_dim=5):
    n = draw(st.integers(0, max_dim))
    return draw(matrices(rows=n, cols=n))


def to_sympy(m: RationalMatrix):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(a.numerator, a.denominator) for a in m.vec()])


def from_sympy(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def sympy_entries(m):
    return tuple(tuple(from_sympy(m[i, j]) for j in range(m.cols)) for i in range(m.rows))


def all_fractions(m: RationalMatrix) -> bool:
    return all(type(a) is Fraction for row in m.entries for a in row)


# -- sympy as oracle


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_product_matches_sympy(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    prod = a * b
    expected = to_sympy(a) * to_sympy(b)
    assert (prod.rows, prod.cols) == (expected.rows, expected.cols)
    assert prod.entries == sympy_entries(expected)
    assert all_fractions(prod)


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(m=matrices())
def test_rref_rank_nullspace_match_sympy(m):
    red, pivots = rref(m)
    s_red, s_pivots = to_sympy(m).rref()
    assert pivots == tuple(s_pivots)
    assert red.entries == sympy_entries(s_red)
    assert rank(m) == to_sympy(m).rank()
    ker = nullspace(m)
    s_ker = to_sympy(m).nullspace()
    assert ker.rows == len(s_ker)
    if s_ker:
        # both sides canonical: the RREF of sympy's kernel basis
        stacked = sympy.Matrix.hstack(*s_ker).T
        assert ker.entries == sympy_entries(stacked.rref()[0])
    for v in ker.entries:
        assert all(a == 0 for a in m.apply(v))
    assert all_fractions(red) and all_fractions(ker)


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(m=square_matrices())
def test_det_matches_sympy(m):
    d = m.det()
    assert type(d) is Fraction
    assert d == from_sympy(to_sympy(m).det())


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_solve_matches_sympy(data):
    m = data.draw(matrices(max_dim=4))
    rhs = [data.draw(entries) for _ in range(m.rows)]
    x = solve(m, rhs)
    sm = to_sympy(m)
    sb = sympy.Matrix(m.rows, 1, [sympy.Rational(Fraction(b).numerator, Fraction(b).denominator) for b in rhs])
    try:
        sm.gauss_jordan_solve(sb)
        consistent = True
    except ValueError:
        consistent = False
    assert (x is not None) == consistent
    if x is not None:
        assert all(type(a) is Fraction for a in x)
        image = sm * sympy.Matrix(len(x), 1, [sympy.Rational(a.numerator, a.denominator) for a in x])
        assert [from_sympy(v) for v in image] == [Fraction(b) for b in rhs]
        assert LinearSolver(m).solve(rhs) is not None


def _sympy_min_poly(m: RationalMatrix):
    """Least k with vec(M^k) in the span of vec(I), ..., vec(M^{k-1}),
    and the coefficients of that dependence, all in sympy."""
    sm = to_sympy(m)
    n = m.rows
    powers = [sympy.eye(n)]
    for k in range(n + 1):
        span = sympy.Matrix.hstack(*[p.reshape(n * n, 1) for p in powers[:k]]) if k else None
        target = powers[k].reshape(n * n, 1)
        if k == 0:
            if n == 0:
                return [Fraction(1)]
        else:
            try:
                sol, params = span.gauss_jordan_solve(target)
            except ValueError:
                sol = None
            if sol is not None:
                sol = sol.subs({p: 0 for p in params})
                return [-from_sympy(c) for c in sol] + [Fraction(1)]
        powers.append(powers[-1] * sm)
    raise AssertionError("Cayley-Hamilton fails")


@needs_sympy
@settings(max_examples=100, deadline=None)
@given(m=square_matrices(max_dim=4))
def test_min_poly_matches_sympy(m):
    p = min_poly(m)
    assert list(p.coeffs) == _sympy_min_poly(m)
    assert all(type(c) is Fraction for c in p.coeffs)


@needs_sympy
def test_min_poly_jordan_and_repeated_blocks():
    # a Jordan block next to a repeated eigenvalue: the unit vectors have
    # different minimal polynomials, and their lcm is the answer
    m = RationalMatrix([
        [2, 1, 0, 0, 0],
        [0, 2, 0, 0, 0],
        [0, 0, 2, 0, 0],
        [0, 0, 0, -1, 0],
        [0, 0, 0, 0, Fraction(1, 3)],
    ])
    assert list(min_poly(m).coeffs) == _sympy_min_poly(m)
    assert min_poly(m).degree == 4


@needs_sympy
@settings(max_examples=100, deadline=None)
@given(m=square_matrices(max_dim=4))
def test_eigenspaces_match_sympy(m):
    from reductions.errors import IrrationalSpectrumError

    sm = to_sympy(m)
    expected = sm.eigenvals()
    if all(ev.is_rational for ev in expected):
        got = list(eigenspaces(m))
        assert [lam for lam, _ in got] == sorted(from_sympy(ev) for ev in expected)
        for lam, basis in got:
            assert type(lam) is Fraction
            shift = sm - sympy.Rational(lam.numerator, lam.denominator) * sympy.eye(m.rows)
            assert basis.rows == len(shift.nullspace())  # the geometric multiplicity
            assert basis == row_space(basis)  # the canonical basis
            for v in basis.entries:
                assert m.apply(v) == tuple(lam * c for c in v)
    else:
        with pytest.raises(IrrationalSpectrumError):
            eigenspaces(m)


# -- the integer minimal polynomial, squarefree part and Jordan-Chevalley split


@needs_sympy
@settings(max_examples=100, deadline=None)
@given(m=square_matrices(max_dim=5))
def test_integer_min_poly_is_the_scaled_rational_one(m):
    den = m.den
    assert den == math.lcm(*[a.denominator for a in m.vec()])
    p = min_poly(m * den).coeffs
    deg = len(p) - 1
    assert p[-1] == 1 and all(c.denominator == 1 for c in p)
    assert list(p) == [c * den ** (deg - k) for k, c in enumerate(_sympy_min_poly(m))]


def test_integer_min_poly_on_edge_cases():
    assert min_poly(RationalMatrix.from_integers(1, [])).coeffs == (1,)
    assert min_poly(RationalMatrix([])).coeffs == (Fraction(1),)
    assert min_poly(RationalMatrix.from_integers(1, [[0, 0], [0, 0]])).coeffs == (0, 1)
    assert min_poly(RationalMatrix.from_integers(1, [[-3, 0, 0], [0, -3, 0], [0, 0, -3]])).coeffs == (3, 1)
    # a non-integer matrix: D = 6, and D·m has the minimal polynomial
    # (x - 3)(x + 2)^2
    m = RationalMatrix([[Fraction(1, 2), 0, 0], [0, Fraction(-1, 3), 1], [0, 0, Fraction(-1, 3)]])
    den, rows = m.den, m.ints
    assert den == 6 and rows == ((3, 0, 0), (0, -2, 6), (0, 0, -2))
    assert min_poly(RationalMatrix.from_integers(1, rows)).coeffs == (-12, -8, 1, 1)
    p = min_poly(m)
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.coeffs == (Fraction(-1, 18), Fraction(-2, 9), Fraction(1, 6), Fraction(1))


@st.composite
def integer_polynomials(draw):
    """Products of small integer factors, some repeated, some not monic."""
    p = [draw(st.sampled_from([1, -1, 2, -3]))]
    for _ in range(draw(st.integers(0, 4))):
        factor = [draw(st.integers(-3, 3)), draw(st.sampled_from([1, 1, 1, 2, -1]))]
        if draw(st.booleans()):
            factor = [draw(st.integers(-2, 2))] + factor
        for _ in range(draw(st.integers(1, 3))):
            p = [sum(p[i] * factor[k - i] for i in range(len(p)) if 0 <= k - i < len(factor))
                 for k in range(len(p) + len(factor) - 1)]
    return p


@needs_sympy
@settings(max_examples=200, deadline=None)
@given(p=integer_polynomials())
def test_integer_squarefree_part_matches_sympy(p):
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(p)), x, domain="ZZ")
    expected = poly.sqf_part().primitive()[1]
    if expected.LC() < 0:
        expected = -expected
    got = integer_squarefree_part(p)
    assert list(got) == [int(c) for c in reversed(expected.all_coeffs())]
    assert all(type(c) is int for c in got)
    assert is_squarefree(Polynomial(p)) == poly.is_sqf
    if p[-1] == 1:
        assert got[-1] == 1  # the squarefree part of a monic polynomial is monic


def _root_vectors(g):
    """(index, root) of each basis vector that every Cartan basis vector
    scales, root its list of scalars."""
    hs = [g.basis_element(i) for i in g.cartan_indices]
    out = []
    for j in range(g.dim):
        if j in g.cartan_indices:
            continue
        e = g.basis_element(j)
        root = [g.bracket(h, e).coords[j] for h in hs]
        if all(g.bracket(h, e) == e * a for h, a in zip(hs, root)) and any(root):
            out.append((j, root))
    return out


def _exp_nilpotent(n: RationalMatrix) -> RationalMatrix:
    out, term = RationalMatrix.identity(n.rows), RationalMatrix.identity(n.rows)
    for k in range(1, n.rows + 1):
        term = term * n * Fraction(1, k)
        out = out + term
    return out


def _jc_algebras():
    from reductions.liealg import build_classical
    from reductions.pairs import make_cartesian_square

    sl2 = build_classical("sl", 2)
    return {
        "sl3": build_classical("sl", 3),
        "square(sl2)": make_cartesian_square(sl2, "square(sl2)").g,
        "sp4": build_classical("sp", 4),
    }


@st.composite
def jc_instances(draw):
    """(algebra, a sparse element, a mixed element): the mixed one is
    h + c·e for a root vector e and a Cartan element h on the kernel of its
    root, moved by exp of a realized root vector, so that it is dense."""
    name = draw(st.sampled_from(sorted(_JC_ALGEBRAS)))
    g = _JC_ALGEBRAS[name]
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    sparse = [draw(coeff) if draw(st.integers(0, 2)) == 0 else 0 for _ in range(g.dim)]
    j, root = draw(st.sampled_from(_root_vectors(g)))
    # h on the kernel of the root: rank 2, so (root[1], -root[0]) spans it
    h = [Fraction(0)] * g.dim
    scale = draw(coeff.filter(bool))
    h[g.cartan_indices[0]] = root[1] * scale
    h[g.cartan_indices[1]] = -root[0] * scale
    h[j] = draw(coeff.filter(bool))
    k, _ = draw(st.sampled_from(_root_vectors(g)))
    n = g.realize(g.basis_element(k) * draw(coeff))
    move, back = _exp_nilpotent(n), _exp_nilpotent(-n)
    mixed = g.from_realization(move * g.realize(g.element(h)) * back)
    return g, g.element(sparse), mixed


_JC_ALGEBRAS = _jc_algebras()


def _check_split(x, s, n):
    from reductions.liealg import classify_element

    g = x.parent
    assert s + n == x
    assert g.bracket(s, n).is_zero()
    assert all(type(c) is Fraction for c in s.coords + n.coords)
    real_n = g.realize(n)
    power = RationalMatrix.identity(real_n.rows)
    for _ in range(real_n.rows):
        power = power * real_n
    assert power.is_zero()
    mp = sympy.Poly(list(reversed(_sympy_min_poly(g.realize(s)))), sympy.Symbol("x"))
    assert mp.is_sqf
    assert classify_element(s) in ("semisimple", "zero")
    sm = to_sympy(g.realize(x))
    if all(ev.is_rational for ev in sm.eigenvals()):
        p, j = sm.jordan_form()
        expected = p * sympy.diag(*[j[i, i] for i in range(j.rows)]) * p.inv()
        assert g.realize(s).entries == sympy_entries(expected)


@needs_sympy
@settings(max_examples=60, deadline=None)
@given(inst=jc_instances())
def test_jordan_chevalley_matches_sympy(inst):
    from reductions.liealg import classify_element, jordan_chevalley

    _, sparse, mixed = inst
    # the constructed element is mixed, so every example runs the Newton step
    assert classify_element(mixed) == "mixed"
    for x in (sparse, mixed):
        s, n = jordan_chevalley(x)
        _check_split(x, s, n)
    s, n = jordan_chevalley(mixed)
    assert not s.is_zero() and not n.is_zero()


# -- the integer kernels: Bareiss determinant, integer kernel, row space
# and Plücker vector


@st.composite
def shaped_matrices(draw, max_dim=5):
    """Like ``matrices``, but a matrix with no rows keeps its column count."""
    m = draw(matrices(max_dim=max_dim))
    if m.rows == 0:
        return RationalMatrix.zero(0, draw(st.integers(0, max_dim)))
    return m


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(m=square_matrices())
def test_integer_det_matches_sympy(m):
    den, rows = m.den, m.ints
    before = tuple(tuple(row) for row in rows)
    d = RationalMatrix.from_integers(1, rows).det()
    assert d.denominator == 1
    assert m.ints == before  # the argument is left as it is
    assert d == from_sympy(to_sympy(m).det() * den**m.rows)
    assert m.det() == from_sympy(to_sympy(m).det())


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(m=shaped_matrices())
def test_integer_kernel_matches_nullspace_and_sympy(m):
    canon = nullspace(m)
    ker = canon.ints
    s_ker = to_sympy(m).nullspace()
    assert len(ker) == len(s_ker) == m.cols - rank(m)
    pivots = rref(m)[1]
    free = [c for c in range(m.cols) if c not in pivots]
    # one kernel vector per free column: on the free columns they are independent
    on_free = RationalMatrix.from_integers(1, [[v[f] for f in free] for v in ker], len(free))
    assert rank(on_free) == len(free)
    for v in ker:
        assert all(type(a) is int for a in v) and len(v) == m.cols
        assert all(a == 0 for a in m.apply(v))
    assert canon == row_space(canon)
    if s_ker:
        stacked = sympy.Matrix.hstack(*s_ker).T
        assert canon.entries == sympy_entries(stacked.rref()[0])


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(m=shaped_matrices())
def test_row_space_matches_sympy_and_keeps_reduced_input(m):
    canon = row_space(m)
    s_red, s_pivots = to_sympy(m).rref()
    assert canon.entries == sympy_entries(s_red)[: len(s_pivots)]
    assert canon.cols == m.cols and all_fractions(canon)
    # reduced input with no zero row comes back as the same object
    assert row_space(canon) is canon
    # the same rows with a zero row, or out of order, are reduced again
    padded = RationalMatrix(canon.entries + ((Fraction(0),) * m.cols,))
    assert row_space(padded) is not padded and row_space(padded) == canon
    if canon.rows > 1:
        swapped = RationalMatrix(canon.entries[::-1])
        assert row_space(swapped) is not swapped and row_space(swapped) == canon


def test_row_space_reduces_input_that_is_not_reduced():
    # each condition of the reduced form fails once: a pivot that is not
    # one, a nonzero above a pivot, pivots out of order, a repeated pivot
    identity = RationalMatrix.identity(2)
    for entries in ([[2, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 0]]):
        m = RationalMatrix(entries)
        assert row_space(m) is not m and row_space(m) == identity
    assert row_space(RationalMatrix([[1, 0], [1, 0]])) == RationalMatrix([[1, 0]])


def _sympy_plucker(m: RationalMatrix):
    """Every nonzero maximal minor over the first nonzero one, or None."""
    sm = to_sympy(m)
    minors = {
        combo: sm.extract(list(range(m.rows)), list(combo)).det() if m.rows else sympy.Integer(1)
        for combo in itertools.combinations(range(m.cols), m.rows)
    }
    lead = next((v for v in minors.values() if v != 0), None)
    if lead is None:
        return None
    return {k: from_sympy(v / lead) for k, v in minors.items() if v != 0}


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_plucker_vector_matches_sympy_minors(data):
    n = data.draw(st.integers(0, 6))
    r = data.draw(st.integers(0, n))  # r = 0 and r = n included
    m = data.draw(matrices(rows=r, cols=n)) if r else RationalMatrix.zero(0, n)
    expected = _sympy_plucker(m)
    if expected is None:
        with pytest.raises(DomainError):
            PluckerVector.from_matrix(m)
        return
    pv = PluckerVector.from_matrix(m)
    assert (pv.n, pv.r) == (n, r)
    assert pv.coords == expected
    assert list(pv.coords) == sorted(expected)
    assert all(type(v) is Fraction for v in pv.coords.values())


# -- the stored form: integer rows over one canonical denominator


def _sized(draw, rows, cols):
    """A drawn matrix of the given shape; one with no rows keeps its width."""
    return draw(matrices(rows=rows, cols=cols)) if rows else RationalMatrix.zero(0, cols)


@settings(max_examples=200, deadline=None)
@given(m=shaped_matrices(), k=st.integers(-6, 6).filter(bool))
def test_stored_form_is_canonical(m, k):
    flat = [a for row in m.ints for a in row]
    assert all(type(a) is int for a in flat) and type(m.den) is int
    # den is the least common denominator, so no common factor is left
    assert m.den > 0 and m.den == math.lcm(*[a.denominator for a in m.vec()])
    assert math.gcd(m.den, *flat) == 1
    assert len(m.ints) == len(m.entries) == m.rows
    assert all(len(row) == m.cols for row in m.ints)
    assert m.entries == tuple(tuple(Fraction(a, m.den) for a in row) for row in m.ints)
    assert all_fractions(m)
    # any multiple of the pair, negative ones included, is the same matrix
    same = RationalMatrix.from_integers(k * m.den, [[k * a for a in row] for row in m.ints], m.cols)
    assert (same.den, same.ints, same.rows, same.cols) == (m.den, m.ints, m.rows, m.cols)
    assert same == m and hash(same) == hash(m)
    assert same.entries == m.entries and all_fractions(same)
    assert RationalMatrix(m.entries) == m


def test_from_integers_rejects_a_zero_denominator_and_ragged_rows():
    with pytest.raises(DomainError):
        RationalMatrix.from_integers(0, [[1]])
    with pytest.raises(DomainError):
        RationalMatrix.from_integers(2, [[1, 2], [3]])
    m = RationalMatrix.from_integers(-4, [[2, 0], [0, -6]])
    assert (m.den, m.ints) == (2, ((-1, 0), (0, 3)))
    assert m.entries == ((Fraction(-1, 2), 0), (0, Fraction(3, 2)))


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_stored_form_operations_match_sympy_on_every_shape(data):
    r, c, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b, other = _sized(data.draw, r, c), _sized(data.draw, r, c), _sized(data.draw, c, k)
    sa, sb, so = to_sympy(a), to_sympy(b), to_sympy(other)
    for got, expected in ((a + b, sa + sb), (a - b, sa - sb), (-a, -sa), (a * other, sa * so),
                          (a.transpose(), sa.T), (a * Fraction(-2, 3), sa * sympy.Rational(-2, 3))):
        assert (got.rows, got.cols) == (expected.rows, expected.cols)
        assert got.entries == sympy_entries(expected)
        assert all_fractions(got)
    v = [data.draw(entries) for _ in range(c)]
    sv = sympy.Matrix(c, 1, [sympy.Rational(Fraction(x).numerator, Fraction(x).denominator) for x in v])
    assert a.apply(v) == tuple(from_sympy(x) for x in sa * sv)
    red, pivots = sa.rref()
    canon = row_space(a)
    assert (canon.rows, canon.cols) == (len(pivots), c)
    assert canon.entries == sympy_entries(red)[: len(pivots)]
    ker, s_ker = nullspace(a), sa.nullspace()
    assert (ker.rows, ker.cols) == (len(s_ker), c)
    if s_ker:
        assert ker.entries == sympy_entries(sympy.Matrix.hstack(*s_ker).T.rref()[0])
    square = _sized(data.draw, r, r)
    sq = to_sympy(square)
    assert square.trace() == from_sympy(sq.trace()) and type(square.trace()) is Fraction
    assert square.det() == from_sympy(sq.det())
    assert list(min_poly(square).coeffs) == _sympy_min_poly(square)
    coeffs = data.draw(st.lists(entries, max_size=4))
    powers = [sympy.eye(r)]
    for _ in coeffs[1:]:
        powers.append(powers[-1] * sq)
    expected = sympy.zeros(r, r)
    for c, power in zip(coeffs, powers):
        expected += power * sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
    got = matrix_polynomial(Polynomial(coeffs), square)
    assert (got.rows, got.cols) == (r, r) and got.entries == sympy_entries(expected)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reduced_projection_is_membership_in_the_row_space(data):
    # the pivot coordinates and one combination decide membership as the
    # augmented elimination of coordinates_in_row_space does
    # on integers over a denominator, reduced or not
    basis = row_space(data.draw(shaped_matrices(max_dim=4)))
    coeffs = [data.draw(entries) for _ in range(basis.rows)]
    den, ints = combine_rows(coeffs, basis)
    inside = tuple(Fraction(a, den) for a in ints)
    at, rest = reduced_projection(basis, ints, den)
    assert at == tuple(Fraction(x) for x in coeffs) and not any(rest)
    assert at == coordinates_in_row_space(basis, inside)
    v = [data.draw(entries) for _ in range(basis.cols)]
    den = math.lcm(*[Fraction(x).denominator for x in v]) * data.draw(st.sampled_from([1, 2, -3]))
    at, rest = reduced_projection(basis, [int(x * den) for x in v], den)
    expected = coordinates_in_row_space(basis, v)
    assert (None if any(rest) else at) == expected
    assert all(type(x) is Fraction for x in at + rest) and len(rest) == basis.cols
    den, ints = combine_rows(at, basis)
    assert tuple(Fraction(x, den) + y for x, y in zip(ints, rest)) == tuple(map(Fraction, v))


def _ref_extend_basis(smaller, larger):
    """One rref per candidate row: the greedy loop ``_extend_basis`` replaced."""
    rows = list(smaller.entries)
    extra = []
    have = len(rows)
    for row in larger.entries:
        candidate = rows + [list(row)]
        if len(rref(RationalMatrix(candidate))[1]) > have:
            rows = candidate
            extra.append(tuple(row))
            have += 1
    if have != larger.rows:
        raise InternalCheckError("basis extension failed")
    return extra


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_extend_basis_matches_the_greedy_loop(data):
    # nested row spaces as the magnitude flag and its intersections with a
    # split give them: a level in canonical form and a canonical subspace of
    # it, of any dimension down to zero
    larger = row_space(data.draw(shaped_matrices(max_dim=5)))
    k = data.draw(st.integers(0, larger.rows))
    combos = data.draw(matrices(rows=k, cols=larger.rows)) if k else RationalMatrix.zero(0, larger.rows)
    smaller = row_space(combos * larger)
    got = _extend_basis(smaller, larger)
    assert got == _ref_extend_basis(smaller, larger)
    assert len(got) == larger.rows - smaller.rows
    assert row_space(RationalMatrix([*smaller.entries, *got] or [[0] * larger.cols])) == larger


# -- internal constructors return Fractions only


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_trusted_paths_return_fractions(data):
    a = data.draw(matrices())
    b = data.draw(matrices(rows=a.cols))
    results = [
        a * b, a + a, a - a, -a, a * 2, 2 * a, a * Fraction(1, 3), a.transpose(),
        row_space(a), nullspace(a), rref(a)[0],
        RationalMatrix.identity(a.rows), RationalMatrix.zero(a.rows, a.cols),
    ]
    if a.rows:
        results.append(intersect_row_spaces(a, a))
    solver = LinearSolver(a)
    results += [solver.reduced, solver.transform]
    for m in results:
        assert all_fractions(m)
    assert all(type(x) is Fraction for x in a.apply([1] * a.cols))
    if a.rows == a.cols:
        assert type(a.det()) is Fraction


def _ref_combine(coeffs, m: RationalMatrix):
    """sum c_r·row_r added one term at a time: the fold ``combine_rows``
    replaced."""
    vec = [Fraction(0)] * m.cols
    for c, row in zip(coeffs, m.entries):
        for i, e in enumerate(row):
            vec[i] += c * e
    return tuple(vec)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_combine_rows_matches_the_fraction_fold(data):
    # int, Fraction and zero coefficients, all-zero combinations, and 0-row
    # matrices of any width
    m = data.draw(matrices())
    coeffs = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    empty = RationalMatrix.zero(0, m.cols)
    cases = [(coeffs, m), ([Fraction(c) for c in coeffs], m), ([0] * m.rows, m), ([], empty)]
    for cs, mat in cases:
        den, ints = combine_rows(cs, mat)
        assert tuple(Fraction(a, den) for a in ints) == _ref_combine(cs, mat)
        assert len(ints) == mat.cols and den > 0
        assert all(type(x) is int for x in [den, *ints])
    assert combine_rows([], empty)[1] == [0] * m.cols


def test_trusted_elements_hold_fractions():
    from reductions.liealg import build_classical

    g = build_classical("sl", 2)
    x = g.element([1, 2, 3])
    y = g.basis_element(0)
    for z in (x + y, x - y, -x, x * 2, 3 * x, g.bracket(x, y), g.zero(), g.from_realization(g.realize(x))):
        assert all(type(c) is Fraction for c in z.coords)
    assert all_fractions(g.ad(x)) and all_fractions(g.realize(x))
    assert type(g.killing(x, y)) is Fraction


# -- series products: same val, coeffs and prec as the schoolbook fold


def _ref_mul(a, b):
    """The schoolbook product the integer path replaced."""
    precs = []
    if a.prec is not None:
        precs.append(a.prec + (b.val if not b.is_zero() else 0))
    if b.prec is not None:
        precs.append(b.prec + (a.val if not a.is_zero() else 0))
    prec = min(precs) if precs else None
    if a.is_zero() or b.is_zero():
        return LaurentSeries(0, [], prec)
    val = a.val + b.val
    width = len(a.coeffs) + len(b.coeffs) - 1
    if prec is not None:
        width = min(width, prec - val)
    out = [Fraction(0)] * max(width, 0)
    for i, x in enumerate(a.coeffs):
        for j in range(min(len(b.coeffs), width - i)):
            out[i + j] += x * b.coeffs[j]
    return LaurentSeries(val, out, prec)


def _ref_add(a, b):
    """The coefficient-by-coefficient sum the trusted path replaced."""
    ps = [p for p in (a.prec, b.prec) if p is not None]
    prec = min(ps) if ps else None
    live = [s for s in (a, b) if not s.is_zero()]
    if not live:
        return LaurentSeries(0, [], prec)
    lo = min(s.val for s in live)
    hi = max(s.val + len(s.coeffs) for s in live)
    if prec is not None:
        hi = min(hi, prec)
    out = [sum((s.coeff_at(k) for s in live if s.val <= k < s.val + len(s.coeffs)), Fraction(0))
           for k in range(lo, hi)]
    return LaurentSeries(lo, out, prec)


@st.composite
def series(draw):
    val = draw(st.integers(-3, 3))
    coeffs = draw(st.lists(st.one_of(st.just(0), small), max_size=6))
    prec = draw(st.one_of(st.none(), st.integers(val - 2, val + 8)))
    return LaurentSeries(val, coeffs, prec)


def _state(s):
    return (s.val, s.coeffs, s.prec, all(type(c) is Fraction for c in s.coeffs))


@settings(max_examples=200, deadline=None)
@given(a=series(), b=series())
def test_series_product_and_sum_match_reference(a, b):
    assert _state(a * b) == _state(_ref_mul(a, b))
    assert _state(a + b) == _state(_ref_add(a, b))
    assert _state(-a) == _state(LaurentSeries(a.val, [-c for c in a.coeffs], a.prec))
    assert _state(a.shift(2)) == _state(
        LaurentSeries(a.val + 2, a.coeffs, None if a.prec is None else a.prec + 2)
    )


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(series(), series()), min_size=1, max_size=4))
def test_series_matrix_product_matches_fold(rows):
    # a 1xk by kx1 product is one series dot product
    left = SeriesMatrix([[a for a, _ in rows]])
    right = SeriesMatrix([[b] for _, b in rows])
    acc = LaurentSeries.zero()
    for a, b in rows:
        if not (a.is_zero() and a.is_exact()) and not (b.is_zero() and b.is_exact()):
            acc = _ref_add(acc, _ref_mul(a, b))
    assert _state((left * right).entries[0][0]) == _state(acc)


# -- series kernels and SeriesMatrix methods: same val, coeffs and prec as
# the ``acc = acc + ...`` folds they replaced, which are kept here


def _exact_zero(s):
    return s.is_zero() and s.is_exact()


def _ref_scaled_sum(terms):
    acc = LaurentSeries.zero()
    for s, c in terms:
        acc = _ref_add(acc, LaurentSeries(s.val, [x * c for x in s.coeffs], s.prec))
    return acc


def _ref_product_sum(pairs):
    acc = LaurentSeries.zero()
    for a, b in pairs:
        acc = _ref_add(acc, _ref_mul(a, b))
    return acc


def _ref_matmul(left, right):
    """Series matrix product, one dot product per entry over the pairs with
    no exact zero."""
    return [
        [
            _ref_product_sum(
                [(a, b) for a, b in zip(row, col) if not _exact_zero(a) and not _exact_zero(b)]
            )
            for col in zip(*right)
        ]
        for row in left
    ]


def _ref_mul_rational(rows, m):
    return [
        [_ref_scaled_sum([(e, c) for e, c in zip(row, col) if c != 0]) for col in zip(*m.entries)]
        for row in rows
    ]


def _ref_rmul_rational(m, rows):
    return [
        [_ref_scaled_sum([(e, c) for c, e in zip(mrow, col) if c != 0]) for col in zip(*rows)]
        for mrow in m.entries
    ]


def _ref_minor(rows, row_idx, col_idx):
    """Laplace expansion along the first row."""
    if not row_idx:
        return LaurentSeries.constant(1)
    if len(row_idx) == 1:
        return rows[row_idx[0]][col_idx[0]]
    acc = LaurentSeries.zero()
    for pos, c in enumerate(col_idx):
        e = rows[row_idx[0]][c]
        if _exact_zero(e):
            continue
        term = _ref_mul(e, _ref_minor(rows, row_idx[1:], col_idx[:pos] + col_idx[pos + 1 :]))
        acc = _ref_add(acc, term if pos % 2 == 0 else -term)
    return acc


def _ref_inverse(rows, order=DEFAULT_BUDGET):
    """Gauss elimination with minimal-valuation pivoting, row by row."""
    n = len(rows)
    eye = SeriesMatrix.identity(n).entries
    m = [list(row) + list(eye[i]) for i, row in enumerate(rows)]
    for c in range(n):
        piv, pv = None, None
        for r in range(c, n):
            e = m[r][c]
            if e.is_zero():
                if not e.is_exact():
                    raise PrecisionError("pivot entry is zero so far")
                continue
            if pv is None or e.valuation() < pv:
                piv, pv = r, e.valuation()
        if piv is None:
            raise RankDeficiencyError("matrix is singular over the series field")
        m[c], m[piv] = m[piv], m[c]
        inv = m[c][c].inverse(order)
        m[c] = [_ref_mul(e, inv) for e in m[c]]
        for r in range(n):
            f = m[r][c]
            if r != c and not _exact_zero(f):
                m[r] = [_ref_add(a, -_ref_mul(f, b)) for a, b in zip(m[r], m[c])]
    return [row[n:] for row in m]


@st.composite
def kernel_series(draw):
    """Series with negative valuations, exact and tracked zeros."""
    val = draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["series", "series", "series", "exact zero", "tracked zero"]))
    if kind == "exact zero":
        return LaurentSeries(0, [])
    if kind == "tracked zero":
        return LaurentSeries(0, [], val + draw(st.integers(0, 6)))
    coeffs = draw(st.lists(st.one_of(st.just(0), small), min_size=1, max_size=5))
    prec = draw(st.one_of(st.none(), st.integers(val, val + 8)))
    return LaurentSeries(val, coeffs, prec)


def series_rows(draw, rows, cols):
    return [[draw(kernel_series()) for _ in range(cols)] for _ in range(rows)]


def _states(rows):
    return [[_state(e) for e in row] for row in rows]


@settings(max_examples=200, deadline=None)
@given(
    terms=st.lists(st.tuples(kernel_series(), entries), max_size=5),
    pairs=st.lists(st.tuples(kernel_series(), kernel_series()), max_size=4),
    update=st.tuples(
        kernel_series(), st.lists(st.tuples(kernel_series(), kernel_series()), max_size=3)
    ),
)
def test_kernels_match_folds(terms, pairs, update):
    scaled = _sum_of_scaled([(_prepared(s), c) for s, c in terms])
    assert _state(scaled) == _state(_ref_scaled_sum(terms))
    products = _sum_of_products([(_prepared(a), _prepared(b)) for a, b in pairs])
    assert _state(products) == _state(_ref_product_sum(pairs))
    # the elimination row update a - f * b
    f, row_pairs = update
    row, pivot_row = [a for a, _ in row_pairs], [b for _, b in row_pairs]
    got = _eliminate(row, f, [_prepared(b) for b in pivot_row])
    assert [_state(e) for e in got] == [
        _state(_ref_add(a, -_ref_mul(f, b))) for a, b in zip(row, pivot_row)
    ]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_series_matrix_products_match_folds(data):
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = series_rows(data.draw, r, k)
    b = series_rows(data.draw, k, c)
    q = data.draw(matrices(rows=k, cols=c))
    p = data.draw(matrices(rows=r, cols=k))
    v = data.draw(st.lists(entries, min_size=k, max_size=k))
    sa = SeriesMatrix(a)
    assert _states((sa * SeriesMatrix(b)).entries) == _states(_ref_matmul(a, b))
    assert _states(sa.mul_rational(q).entries) == _states(_ref_mul_rational(a, q))
    assert _states(SeriesMatrix(b).rmul_rational(p).entries) == _states(_ref_rmul_rational(p, b))
    # apply skips zero coordinates, as the mat-vec fold of the curves did
    assert [_state(e) for e in sa.apply(v)] == [
        _state(_ref_scaled_sum([(e, c) for e, c in zip(row, v) if c != 0])) for row in a
    ]
    with pytest.raises(DomainError):
        sa.apply(v + [Fraction(1)])


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (PrecisionError, RankDeficiencyError) as err:
        return "error", type(err)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_minor_and_inverse_match_folds(data):
    n = data.draw(st.integers(1, 3))
    order = data.draw(st.sampled_from([4, 8, DEFAULT_BUDGET, 32]))
    rows = series_rows(data.draw, n, n)
    m = SeriesMatrix(rows)
    for k in range(n + 1):
        for row_idx in itertools.combinations(range(n), k):
            for col_idx in itertools.combinations(range(n), k):
                ref = _ref_minor(rows, row_idx, col_idx)
                assert _state(m.minor(row_idx, col_idx)) == _state(ref)
    kind, got = _outcome(SeriesMatrix.inverse, m, order)
    ref_kind, ref = _outcome(_ref_inverse, rows, order)
    assert kind == ref_kind
    assert _states(got.entries) == _states(ref) if kind == "value" else got is ref


# -- the valuation-adapted reduction against the one by truncated pivot
# inverses it replaced


def _ref_adapted_reduce(matrix, order=DEFAULT_BUDGET):
    """Column reduction with minimal-valuation pivots (lowest row, then
    lowest column on ties), each pivot inverted to ``order`` terms and its
    multiples subtracted from the other columns."""
    work = [list(col) for col in zip(*matrix.entries)]  # list of columns
    ncols = len(work)
    nrows = matrix.rows
    if ncols == 0:
        empty = SeriesMatrix.identity(0)
        return ColumnReduction(empty, matrix, [], []), []
    transform = [list(col) for col in zip(*SeriesMatrix.identity(ncols).entries)]
    used_rows = set()
    pivot_rows = []
    pivot_vals = []
    for k in range(ncols):
        best = None  # (val, row, col)
        blocked = None
        for j in range(k, ncols):
            for r in range(nrows):
                if r in used_rows:
                    continue
                e = work[j][r]
                if e.is_zero():
                    if not e.is_exact():
                        blocked = max(blocked or e.prec, e.prec) if blocked else e.prec
                    continue
                key = (e.valuation(), r, j)
                if best is None or key < best:
                    best = key
        if best is None:
            if blocked is not None:
                raise PrecisionError("cannot locate a pivot: remaining entries are zero so far")
            raise RankDeficiencyError("matrix does not have full column rank")
        v, prow, pcol = best
        if blocked is not None and blocked <= v:
            raise PrecisionError(f"tracked zero below t^{blocked} could precede pivot t^{v}")
        if pcol != k:
            work[k], work[pcol] = work[pcol], work[k]
            transform[k], transform[pcol] = transform[pcol], transform[k]
        pinv = work[k][prow].inverse(order)
        pivot_col = [_prepared(b) for b in work[k]]
        pivot_transform = [_prepared(b) for b in transform[k]]
        for j in range(ncols):
            if j == k:
                continue
            e = work[j][prow]
            if e.is_zero() and e.is_exact():
                continue
            q = e * pinv
            work[j] = _eliminate(work[j], q, pivot_col)
            transform[j] = _eliminate(transform[j], q, pivot_transform)
        used_rows.add(prow)
        pivot_rows.append(prow)
        pivot_vals.append(v)
    reduced = SeriesMatrix._trusted(tuple(zip(*work)))
    tmat = SeriesMatrix._trusted(tuple(zip(*transform)))
    return ColumnReduction(tmat, reduced, pivot_rows, pivot_vals), list(pivot_vals)


def _leading_vectors(record, pivots):
    """Per reduced column, its coefficients at its pivot valuation."""
    red = record.reduced
    return [[red.entries[i][j].coeff_at(v) for i in range(red.rows)] for j, v in enumerate(pivots)]


def _ref_reduce_outcome(m):
    """The reference at orders doubled until it decides (the retry its
    callers made), as ("value", (pivot rows, valuations, leading vectors))
    or ("error", the error class)."""
    for order in (16, 32, 64, 128, 256):
        try:
            record, pivots = _ref_adapted_reduce(m, order)
            return "value", (record.pivot_rows, pivots, _leading_vectors(record, pivots))
        except RankDeficiencyError:
            return "error", RankDeficiencyError
        except PrecisionError:
            continue
    return "error", PrecisionError


def _rank_over_series_field(m):
    """Rank over Q((t)) of a Laurent-polynomial matrix: the largest rank of
    its values at t = 1, ..., 40.  A nonzero minor here is t^a times a
    polynomial of degree below 40, so it vanishes at fewer of these points."""
    best = 0
    for t in range(1, 41):
        value = RationalMatrix([
            [sum((c * Fraction(t) ** k for k, c in enumerate(e.coeffs, e.val)), Fraction(0))
             for e in row]
            for row in m.entries
        ])
        best = max(best, rank(value))
    return best


@st.composite
def laurent_polynomials(draw):
    if draw(st.integers(0, 3)) == 0:
        return LaurentSeries.zero()
    coeffs = draw(st.lists(st.one_of(st.just(0), small), min_size=1, max_size=3))
    return LaurentSeries(draw(st.integers(-3, 3)), coeffs)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fraction_free_reduce_matches_the_inverse_based_one(data):
    c = data.draw(st.integers(1, 3))
    r = data.draw(st.integers(max(1, c - 1), 4))
    cols = [[data.draw(laurent_polynomials()) for _ in range(r)] for _ in range(c)]
    if c > 1 and data.draw(st.booleans()):
        # a column that is a series multiple of another: rank deficient
        f = data.draw(laurent_polynomials())
        cols[-1] = [f * e for e in cols[0]]
    m = SeriesMatrix([list(row) for row in zip(*cols)])
    full_rank = _rank_over_series_field(m) == c
    ref_kind, ref = _ref_reduce_outcome(m)
    try:
        record, pivots = valuation_adapted_reduce(m)
    except RankDeficiencyError:
        assert not full_rank
        # truncated inverses leave tracked zeros where the columns depend,
        # so the reference may only report that it cannot decide
        assert ref_kind == "error"
        return
    assert full_rank and ref_kind == "value"
    ref_rows, ref_pivots, ref_leading = ref
    assert record.pivot_rows == ref_rows
    assert pivots == record.pivot_valuations == ref_pivots
    for got, want in zip(_leading_vectors(record, pivots), ref_leading):
        i = next(i for i, x in enumerate(want) if x)
        scale = got[i] / want[i]
        assert scale and got == [scale * x for x in want]
    assert record.transform.det().valuation() == 0
    assert all(e.is_exact() for row in record.reduced.entries for e in row)
    product = m * record.transform
    assert _states(product.entries) == _states(record.reduced.entries)


# Curves built through the folds: exponential and Cayley moves, composed by
# series products, conjugated through the realization and restricted to p.


def _ref_poly_exp(powers, exponent, sign):
    n = powers[0].rows
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for k, mat in enumerate(powers):
        if mat.is_zero():
            break
        coef = Fraction(sign**k, math.factorial(k))
        for i in range(n):
            for j in range(n):
                if mat.entries[i][j] != 0:
                    d = entries[i][j]
                    d[k * exponent] = d.get(k * exponent, 0) + coef * mat.entries[i][j]
    out = []
    for row in entries:
        out.append([])
        for d in row:
            d = {e: v for e, v in d.items() if v != 0}
            lo = min(d, default=0)
            coeffs = [d.get(e, 0) for e in range(lo, max(d, default=-1) + 1)]
            out[-1].append(LaurentSeries(lo, coeffs))
    return out


def _ref_exp_move(pair, y, exponent, order):
    ad = pair.g.ad(y)
    powers = [RationalMatrix.identity(pair.g.dim)]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * ad)
    return (_ref_poly_exp(powers, exponent, 1), _ref_poly_exp(powers, exponent, -1))


def _ref_conjugation(pair, q, q_inv):
    g = pair.g
    g.from_realization(g.realization[0])  # primes the realization solver
    solver = g._realization_solver
    cols = []
    for rho in g.realization:
        lifted = [[LaurentSeries.constant(c) for c in row] for row in rho.entries]
        rhs = [e for row in _ref_matmul(_ref_matmul(q, lifted), q_inv) for e in row]
        y = [
            _ref_scaled_sum([(b, c) for c, b in zip(row, rhs) if c != 0])
            for row in solver.transform.entries
        ]
        assert all(s.is_zero() for s in y[solver.rank :])
        x = [LaurentSeries.zero() for _ in range(solver.matrix.cols)]
        for r, p in enumerate(solver.pivots):
            x[p] = y[r]
        cols.append(x)
    return [list(row) for row in zip(*cols)]


def _ref_cayley_move(pair, y, exponent, order):
    real = pair.g.realize(y)
    n = real.rows
    scaled = SeriesMatrix(
        [
            [
                LaurentSeries.t_power(exponent, c) if c != 0 else LaurentSeries.zero()
                for c in row
            ]
            for row in real.entries
        ]
    )
    eye = SeriesMatrix.identity(n)
    q = _ref_matmul((eye + scaled).entries, _ref_inverse((eye - scaled).entries, order))
    q_inv = _ref_matmul((eye - scaled).entries, _ref_inverse((eye + scaled).entries, order))
    return _ref_conjugation(pair, q, q_inv), _ref_conjugation(pair, q_inv, q)


def _ref_torus_move(pair, weights, order):
    n = pair.g.realization[0].rows
    weights = tuple(weights) * (n // len(weights))  # a square repeats its torus

    def diag(sign):
        return [
            [LaurentSeries.t_power(sign * w) if i == j else LaurentSeries.zero()
             for j in range(n)]
            for i, w in enumerate(weights)
        ]

    return _ref_conjugation(pair, diag(1), diag(-1)), _ref_conjugation(pair, diag(-1), diag(1))


_REF_MOVES = {"exp": _ref_exp_move, "cayley": _ref_cayley_move, "torus": _ref_torus_move}


def _ref_restrict_to_p(pair, fwd):
    p_rows = pair.p.basis
    pivots = rref(p_rows)[1]
    images = [
        [_ref_scaled_sum([(e, c) for e, c in zip(frow, prow) if c != 0]) for frow in fwd]
        for prow in p_rows.entries
    ]
    return [[img[c] for img in images] for c in pivots]


def _ref_curve(pair, moves, order):
    """The g-level matrices, their restriction to p, and the product of the
    moves' p-blocks."""
    fwd = bwd = SeriesMatrix.identity(pair.g.dim).entries
    p_blocks = SeriesMatrix.identity(pair.p.dim).entries
    for kind, *args in moves:
        mf, mb = _REF_MOVES[kind](pair, *args, order)
        fwd = _ref_matmul(fwd, mf)
        bwd = _ref_matmul(mb, bwd)
        p_blocks = _ref_matmul(p_blocks, _ref_restrict_to_p(pair, mf))
    return fwd, bwd, _ref_restrict_to_p(pair, fwd), p_blocks


# weights of a one-parameter subgroup of each square factor's torus
_TORUS = {"square(sl2)": (1, -1), "square(sl3)": (2, 0, -1), "square(sp4)": (1, 2, -1, -2)}


def _curves(name):
    """The pair called ``name`` and curves on it, the two-move curve first:
    each move family alone and two-move mixtures."""
    if name.startswith("transpose"):
        pair = make_transpose_pair(int(name[len("transpose"):]))
        k0, k1, k2 = pair.k.basis_elements()[:3]
        cayley = [("cayley", k0 + k1 * rat(2), -1), ("cayley", k2, -2)]
        return pair, [cayley, cayley[:1], cayley[1:]]
    pair = square_of(name[len("square("):-1])
    gens = k_nilpotent_elements(pair, random.Random(3), count=2)
    exp = [("exp", y, e) for y, e in zip(gens, (-1, -2))]
    k_els = pair.k.basis_elements()
    cayley = ("cayley", k_els[0] + k_els[-1] * rat(2), -1)
    torus = ("torus", _TORUS[name])
    return pair, [exp, exp[:1], [cayley], [torus], [torus, exp[0]], [cayley, exp[0]],
                  [exp[0], torus], [cayley, torus]]


def _assert_scaled_fold(scale, got, ref):
    """``got`` is exact and w·ref - got is zero to the precision of the
    fold-built ``ref``, for the curve's scale w."""
    for got_row, ref_row in zip(got.entries, ref):
        for a, b in zip(got_row, ref_row):
            assert a.is_exact()
            diff = scale * b - a
            assert diff.is_zero() and diff.prec == b.prec


@pytest.mark.parametrize("order", [DEFAULT_BUDGET, 32])
@pytest.mark.parametrize(
    "name", ["square(sl3)", "transpose3", "square(sl2)", "square(sp4)", "transpose4"]
)
def test_curves_match_fold_built_curves(name, order):
    # the p-matrix is built before any g-level read, so it comes from the
    # p-only build: the product of the moves' p-blocks.  Past one Cayley move
    # the g-level product restricted to p tracks less precision, so there
    # only the product of the fold-built p-blocks is the reference.  Exp and
    # torus moves are built as the folds build them; a curve with a Cayley
    # move is built exact as w times the curve, w its scale, and the folds
    # truncate its inverses at ``order``.
    pair, curves = _curves(name)
    assert len(curves[0]) == 2
    for moves in curves:
        ref_fwd, ref_bwd, ref_restricted, ref_p = _ref_curve(pair, moves, order)
        if sum(kind == "cayley" for kind, *_ in moves) < 2:
            assert _states(ref_p) == _states(ref_restricted)
        for validate in (False, True):
            curve = GroupCurve(pair, moves, validate)
            p_matrix = curve.p_matrix()
            fwd, bwd = curve.matrices()
            if any(kind == "cayley" for kind, *_ in moves):
                scale = curve.scale()
                assert scale.is_exact() and scale.val == 0 and scale.coeffs[0] == 1
                for got, ref in ((p_matrix, ref_p), (fwd, ref_fwd), (bwd, ref_bwd)):
                    _assert_scaled_fold(scale, got, ref)
            else:
                assert _state(curve.scale()) == _state(LaurentSeries.constant(1))
                assert _states(p_matrix.entries) == _states(ref_p)
                assert _states(fwd.entries) == _states(ref_fwd)
                assert _states(bwd.entries) == _states(ref_bwd)


@pytest.mark.parametrize("name", ["square(sl2)", "square(sl3)", "transpose3", "square(sp4)"])
def test_sampled_curves_p_matrix_matches_restricted_g_matrix(name):
    pair = _curves(name)[0]
    rng = random.Random(17)
    built = 0
    for _ in range(6):
        curve = _sample_curve(pair, rng)
        if curve is None:
            continue
        oracle = _restrict_to_p(pair, curve.matrices()[0])
        assert _states(curve.p_matrix().entries) == _states(oracle.entries)
        built += 1
    assert built


def _cofactor_cayley_factor(real, exponent, sign):
    """(I + sign·sY)·adj(I - sign·sY) and det(I - sign·sY), s = t^exponent,
    each divided by the determinant's leading term, the adjugate taken from
    the cofactors: the Cramer's-rule factor and unit the curves use."""
    n = real.rows
    scaled = [[LaurentSeries.t_power(exponent, sign * c) if c else LaurentSeries.zero()
               for c in row] for row in real.entries]
    eye = SeriesMatrix.identity(n)
    a = SeriesMatrix(eye.entries) - SeriesMatrix(scaled)
    b = SeriesMatrix(eye.entries) + SeriesMatrix(scaled)
    idx = tuple(range(n))
    adj = [[a.minor(idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:]) * (-1) ** (i + j)
            for j in range(n)] for i in range(n)]
    d = a.det()
    norm = LaurentSeries.t_power(-d.valuation(), 1 / d.leading())
    return (b * SeriesMatrix(adj)) * norm, d * norm


@pytest.mark.parametrize("name", ["transpose3", "transpose4", "square(sl3)"])
def test_cayley_factors_follow_cramers_rule(name):
    # the Faddeev-LeVerrier adjugate against the cofactor one: equal exact
    # factors and units, each unit 1 + O(t), and u·q·(I - sY) = u·(I + sY)
    from reductions.degeneration import _cayley_factors

    pair = _curves(name)[0]
    k_els = pair.k.basis_elements()
    for y in (k_els[0] + k_els[-1] * rat(2), k_els[1], k_els[0] - k_els[1] * rat(1, 2)):
        real = pair.g.realize(y)
        for exponent in (-2, -1, 1):
            for sign, (factor, unit) in zip((1, -1), _cayley_factors(pair.g, y, exponent)):
                ref_factor, ref_unit = _cofactor_cayley_factor(real, exponent, sign)
                assert _states(factor.entries) == _states(ref_factor.entries)
                assert _state(unit) == _state(ref_unit)
                assert unit.is_exact() and unit.val == 0 and unit.coeffs[0] == 1
                scaled = SeriesMatrix([
                    [LaurentSeries.t_power(exponent, sign * c) if c else LaurentSeries.zero()
                     for c in row] for row in real.entries])
                eye = SeriesMatrix.identity(real.rows)
                lhs = factor * (eye - scaled)
                rhs = (eye + scaled) * unit
                assert all((x - z).is_zero() and x.is_exact()
                           for rx, rz in zip(lhs.entries, rhs.entries) for x, z in zip(rx, rz))


def _count_inverses(monkeypatch):
    """Count the calls of every series inverse, of matrices and of series."""
    calls = []
    for cls in (SeriesMatrix, LaurentSeries):
        original = cls.inverse

        def counting(self, *args, _original=original, **kwargs):
            calls.append(type(self).__name__)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "inverse", counting)
    return calls


def test_group_curve_builds_invert_no_series(monkeypatch):
    # the benchmark's seed-42 limits pool, drawn by its own generator, with
    # its limits and rigidity checks, obstructed instances included, and
    # acceptance-sampled curves on its four pairs, built and validated
    import os

    from reductions.degeneration import limit_computation, rigidity_check
    from reductions.liealg import Element
    from reductions.planes import plane_from_basis

    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    monkeypatch.syspath_prepend(bench)
    import gen

    pool = gen.gen_limits(42, gen.UNITS["limits"])
    calls = _count_inverses(monkeypatch)
    kinds = set()
    obstructed = rigidity = 0
    for op in pool:
        pair = gen.build_pair(op["pair"])
        spec = op["curve"]
        moves = [(spec["kind"], Element(pair.g, [Fraction(c) for c in coords]), e)
                 for coords, e in spec["gens"]]
        kinds.add(spec["kind"])
        curve = GroupCurve(pair, moves, validate=False)
        assert all(e.is_exact() for row in curve.p_matrix().entries for e in row)
        plane = plane_from_basis(pair, [[Fraction(c) for c in row] for row in op["plane"]])
        obstructed += not limit_computation(curve, plane).constant_frame_ok
        if op["rigidity"] is not None:
            cartan = plane_from_basis(pair, [[Fraction(c) for c in row] for row in op["rigidity"]])
            rigidity_check(curve, cartan)
            rigidity += 1
    assert kinds == {"exp", "cayley"} and len(pool) == 4 * gen.UNITS["limits"]
    assert obstructed and rigidity
    for name in gen.LIMIT_PAIRS:
        pair = gen.build_pair(name)
        rng = random.Random(5)
        for _ in range(3):
            curve = _sample_curve(pair, rng)
            if curve is None:
                continue
            for validate in (False, True):
                built = GroupCurve(pair, curve.moves, validate=validate)
                fwd, bwd = built.matrices()
                for m in (built.p_matrix(), fwd, bwd):
                    assert all(e.is_exact() for row in m.entries for e in row)
    assert calls == []
