import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reductions.errors import DomainError, InternalCheckError, PrecisionError, RankDeficiencyError
from reductions.exact import (
    ColumnReduction,
    LaurentSeries,
    LinearSolver,
    Polynomial,
    RationalMatrix,
    SeriesMatrix,
    _polynomial_columns,
    combine_rows,
    coordinates_in_row_space,
    eigenspaces,
    integer_roots,
    is_squarefree,
    min_poly,
    min_valuation,
    nullspace,
    rat,
    rref,
    series_valuation,
    solve,
    squarefree_part,
    valuation_adapted_reduce,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


# -- rationals (fractions.Fraction carries the contract)


def test_rational_examples():
    assert rat(1, 2) + rat(1, 3) == rat(5, 6)
    assert rat(2, 4) == rat(1, 2)  # lowest terms on construction
    assert rat(3, 7) / rat(3, 7) == 1


def test_rational_division_by_zero_signaled():
    with pytest.raises(ZeroDivisionError):
        rat(1) / rat(0)


@given(a=rationals, b=rationals)
def test_rational_round_trips(a, b):
    assert (a + b) - b == a
    if b != 0:
        assert (a * b) / b == a


def test_lowest_terms_invariant():
    f = rat(84, -126)
    assert f.denominator > 0
    assert f == rat(-2, 3)


# -- polynomials


def test_min_poly_identity():
    m = RationalMatrix.identity(2)
    assert min_poly(m) == Polynomial([-1, 1])


def test_min_poly_diag():
    m = RationalMatrix([[1, 0], [0, 2]])
    assert min_poly(m) == Polynomial([2, -3, 1])  # (x-1)(x-2)


def test_min_poly_jordan_block_oracle():
    # oracle: powers of m until linear dependence
    m = RationalMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    powers = [RationalMatrix.identity(3)]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * m)
    # m^3 = 0 and m^2 != 0, so x^3 is the least annihilator
    assert len(powers) == 4
    assert min_poly(m) == Polynomial([0, 0, 0, 1])


def test_min_poly_annihilates_and_is_minimal():
    rng = random.Random(7)
    for _ in range(10):
        m = RationalMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        p = min_poly(m)
        # P(m) = 0 exactly when D^deg·P(M / D) = sum p_k·D^(deg-k)·M^k
        # vanishes on the integer matrix M = D·m, evaluated by integer Horner
        den, rows = m.den, m.ints
        scaled = [c * den ** (p.degree - k) for k, c in enumerate(p.coeffs)]
        assert all(c.denominator == 1 for c in scaled)
        cols = _polynomial_columns([int(c) for c in scaled], rows)
        assert not any(any(col) for col in cols)
        # minimality: no monic polynomial of smaller degree annihilates
        for d in range(p.degree):
            # powers up to degree d are linearly independent as vectors
            rows = []
            acc = RationalMatrix.identity(3)
            for _ in range(d + 1):
                rows.append(list(acc.vec()))
                acc = acc * m
            red, piv = rref(RationalMatrix(rows))
            assert len(piv) == d + 1


def test_is_squarefree():
    assert is_squarefree(Polynomial([-1, 0, 1]))  # x^2 - 1
    assert not is_squarefree(Polynomial([0, 0, 1]))  # x^2
    p = Polynomial([-1, 1]) * Polynomial([-1, 1]) * Polynomial([2, 1])
    assert not is_squarefree(p)  # (x-1)^2 (x+2)
    with pytest.raises(DomainError):
        is_squarefree(Polynomial([]))


def test_polynomial_divmod_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        a = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        b = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_integer_roots():
    p = Polynomial([-6, 11, -6, 1])  # (x-1)(x-2)(x-3)
    assert integer_roots(p) == {1: 1, 2: 1, 3: 1}
    q = Polynomial([0, 0, 1]) * Polynomial([-5, 1])
    assert integer_roots(q) == {0: 2, 5: 1}
    half = Polynomial([rat(-1, 2), 1])  # x - 1/2
    assert integer_roots(half * half) == {rat(1, 2): 2}


# -- rational matrices


def test_eigenspaces_compare_the_two_semisimplicity_verdicts(monkeypatch):
    # a Jordan block: both verdicts say "not semisimple" and agree
    block = RationalMatrix([[1, 1], [0, 1]])
    assert [(lam, basis.rows) for lam, basis in eigenspaces(block)] == [(1, 1)]
    # a minimal polynomial cut to its squarefree part claims semisimplicity,
    # which the one eigenspace of dimension 1 contradicts
    monkeypatch.setattr("reductions.exact.min_poly", lambda m: squarefree_part(min_poly(m)))
    spaces = eigenspaces(block)
    assert next(spaces)[0] == 1
    with pytest.raises(InternalCheckError, match="disagree on semisimplicity"):
        next(spaces)


def test_rref_and_nullspace():
    m = RationalMatrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, piv = rref(m)
    assert piv == (0, 1)
    ker = nullspace(m)
    assert ker.rows == 1
    for row in ker.entries:
        assert all(v == 0 for v in m.apply(row))


def test_row_space_of_no_rows_is_zero():
    # a matrix with no rows keeps no width, so it must not pose zero
    # equations and accept every vector
    empty = RationalMatrix.zero(0, 3)
    assert coordinates_in_row_space(empty, (rat(0), rat(0), rat(0))) == ()
    assert coordinates_in_row_space(empty, (rat(0), rat(1), rat(0))) is None


def test_solve():
    m = RationalMatrix([[2, 1], [1, 3]])
    x = solve(m, (5, 10))
    assert x is not None
    assert m.apply(x) == (rat(5), rat(10))
    singular = RationalMatrix([[1, 1], [1, 1]])
    assert solve(singular, (0, 1)) is None


def test_det_matches_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(12):
        m = RationalMatrix([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
        e = m.entries
        cof = (
            e[0][0] * (e[1][1] * e[2][2] - e[1][2] * e[2][1])
            - e[0][1] * (e[1][0] * e[2][2] - e[1][2] * e[2][0])
            + e[0][2] * (e[1][0] * e[2][1] - e[1][1] * e[2][0])
        )
        assert m.det() == cof


# -- Laurent series


def test_series_valuation_examples():
    s = LaurentSeries(2, [1, 1])  # t^2 + t^3
    assert series_valuation(s) == 2
    assert series_valuation(LaurentSeries.constant(5)) == 0
    assert series_valuation(LaurentSeries(-1, [1, 1])) == -1  # t^-1 + 1


def test_zero_series_has_no_valuation():
    with pytest.raises(PrecisionError):
        series_valuation(LaurentSeries.zero())
    tracked = LaurentSeries(0, [1]) - LaurentSeries(0, [1]).truncate(5)
    assert tracked.is_zero() and not tracked.is_exact()
    with pytest.raises(PrecisionError):
        tracked.valuation()


@given(
    v1=st.integers(-3, 3),
    v2=st.integers(-3, 3),
    c1=st.lists(rationals, min_size=1, max_size=4),
    c2=st.lists(rationals, min_size=1, max_size=4),
)
@settings(max_examples=120)
def test_series_multiplication_valuation_additive(v1, v2, c1, c2):
    s = LaurentSeries(v1, [Fraction(1)] + c1)
    u = LaurentSeries(v2, [Fraction(1)] + c2)
    assert series_valuation(s * u) == series_valuation(s) + series_valuation(u)


def test_series_mul_prec_tracking():
    s = LaurentSeries(0, [1, 1], prec=4)  # 1 + t + O(t^4)
    u = LaurentSeries(2, [1])  # t^2 exact
    prod = s * u
    assert prod.val == 2 and prod.prec == 6


def test_series_addition_cancellation_tracks_zero():
    a = LaurentSeries(0, [1, 2], prec=3)
    b = LaurentSeries(0, [-1, -2], prec=5)
    z = a + b
    assert z.is_zero() and z.prec == 3


def test_series_inverse_roundtrip():
    s = LaurentSeries(1, [2, 1, 3])  # 2t + t^2 + 3t^3
    prod = s * s.inverse()
    assert prod.coeff_at(0) == 1
    for k in range(1, 10):
        assert prod.coeff_at(k) == 0


def test_series_inverse_of_monomial_exact():
    s = LaurentSeries.t_power(3, rat(2))
    inv = s.inverse()
    assert inv.is_exact() and inv.val == -3 and inv.coeffs == (rat(1, 2),)


def test_series_constructor_coerces_int_coefficients():
    # an int coefficient must not survive into a series, where 1 / c would
    # be a float
    s = LaurentSeries(-1, [3, 0, 2])
    assert s.coeffs == (3, 0, 2)
    assert all(type(c) is Fraction for c in s.coeffs)


def test_min_valuation_guards_tracked_zero():
    good = LaurentSeries(2, [1])
    tracked = LaurentSeries(0, [], prec=1)
    with pytest.raises(PrecisionError):
        min_valuation([good, tracked])
    deep_tracked = LaurentSeries(0, [], prec=9)
    assert min_valuation([good, deep_tracked]) == 2


# -- valuation-adapted reduction


def _wedge_valuation(m: SeriesMatrix) -> int:
    """Oracle: least valuation over all maximal minors of the column family."""
    k = m.cols
    vals = []
    for rows in itertools.combinations(range(m.rows), k):
        d = m.minor(rows, tuple(range(k)))
        if not d.is_zero():
            vals.append(d.valuation())
    return min(vals)


def _series_mat(cols, rows):
    return SeriesMatrix([[cols[j][i] for j in range(len(cols))] for i in range(rows)])


def test_reduce_already_diagonal():
    one = LaurentSeries.constant(1)
    t = LaurentSeries.t_power(1)
    zero = LaurentSeries.zero()
    m = SeriesMatrix([[one, zero], [zero, t]])
    _, pivots = valuation_adapted_reduce(m)
    assert pivots == [0, 1]


def test_reduce_permutation_case():
    one = LaurentSeries.constant(1)
    t = LaurentSeries.t_power(1)
    zero = LaurentSeries.zero()
    m = SeriesMatrix([[t, zero], [zero, one]])
    _, pivots = valuation_adapted_reduce(m)
    assert pivots == [0, 1]


def test_reduce_spec_example_with_minor_oracle():
    one = LaurentSeries.constant(1)
    t = LaurentSeries.t_power(1)
    t2 = LaurentSeries.t_power(2)
    zero = LaurentSeries.zero()
    # columns (1, t, 0) and (0, t, t^2) in Q((t))^3
    m = _series_mat([[one, t, zero], [zero, t, t2]], 3)
    red, pivots = valuation_adapted_reduce(m)
    assert pivots == [0, 1]
    # oracle: valuations of the 1x1 / 2x2 minor gcd-analogues
    assert _wedge_valuation(m) == sum(pivots)


def test_reduce_rank_deficiency():
    t = LaurentSeries.t_power(1)
    m = _series_mat([[t, t], [t, t]], 2)
    with pytest.raises(RankDeficiencyError):
        valuation_adapted_reduce(m)


def test_reduce_rejects_truncated_entries():
    one = LaurentSeries.constant(1)
    m = SeriesMatrix([[one, LaurentSeries(0, [1, 2], prec=3)], [one.shift(1), one]])
    with pytest.raises(DomainError):
        valuation_adapted_reduce(m)


def test_reduce_pivot_sum_matches_wedge_oracle_random():
    rng = random.Random(42)
    for _ in range(25):
        rows, cols = 4, rng.choice([1, 2, 3])
        m = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                support = [
                    (rng.randint(-2, 3), rng.randint(-2, 2)) for _ in range(rng.randint(0, 2))
                ]
                s = LaurentSeries.zero()
                for v, c in support:
                    s = s + LaurentSeries.t_power(v, c)
                row.append(s)
            m.append(row)
        mat = SeriesMatrix(m)
        try:
            record, pivots = valuation_adapted_reduce(mat)
        except RankDeficiencyError:
            continue
        assert isinstance(record, ColumnReduction)
        assert sum(pivots) == _wedge_valuation(mat)
        assert pivots == sorted(pivots)
        # the transform stays invertible over the local ring
        assert record.transform.det().valuation() == 0


def test_zero_matrix_with_no_rows_keeps_its_width():
    z = RationalMatrix.zero(0, 4)
    assert (z.rows, z.cols) == (0, 4)
    assert (z.transpose().rows, z.transpose().cols) == (4, 0)
    assert ((-z).cols, (z + z).cols, (z * 3).cols) == (4, 4, 4)
    assert (z * RationalMatrix.zero(4, 2)).cols == 2
    assert rref(z)[0].cols == 4


def test_nullspace_of_an_injective_matrix_is_empty_with_the_width():
    m = RationalMatrix([[1, 0, 2], [0, 1, -1], [1, 1, 1], [2, 0, 0]])
    kernel = nullspace(m)
    assert (kernel.rows, kernel.cols) == (0, 3)
    assert coordinates_in_row_space(kernel, [0, 0, 0]) == ()
    assert coordinates_in_row_space(kernel, [1, 0, 0]) is None


@pytest.mark.parametrize("length", [0, 2, 4])
def test_vectors_of_the_wrong_length_are_rejected(length):
    # a short vector must not be padded with zeros, nor a long one cut
    m = RationalMatrix([[1, 2, 0], [0, 1, 3], [1, 0, 1]])
    vector = tuple(range(1, length + 1))
    calls = [
        lambda: m.apply(vector),
        lambda: combine_rows(vector, m),
        lambda: solve(m, vector),
        lambda: LinearSolver(m).solve(vector),
        lambda: coordinates_in_row_space(m, vector),
        lambda: coordinates_in_row_space(RationalMatrix.zero(0, 3), vector),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()
    assert RationalMatrix.identity(3).apply((1, 2, 3)) == (1, 2, 3)


def test_matrix_entries_refuse_floats():
    # a float would be stored as its binary fraction, 0.1 as 3602879701896397/2^55
    for bad in ([[0.1]], [[1, 0], [0, 2.0]]):
        with pytest.raises(DomainError):
            RationalMatrix(bad)
    assert RationalMatrix([["1/10", 2]]) == RationalMatrix([[Fraction(1, 10), Fraction(2)]])
