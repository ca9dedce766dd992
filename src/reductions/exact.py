"""Exact scalars, polynomials, truncated Laurent series and linear algebra.

Rationals are ``fractions.Fraction`` throughout: arbitrary precision, always
in lowest terms, positive denominator.  Everything downstream is built on the
four value types in this module:

* ``Polynomial``        dense univariate polynomials over Q
* ``LaurentSeries``     Laurent series in one parameter t, either exact
                        (finite support, no unknown tail) or truncated with a
                        recorded precision bound
* ``RationalMatrix``    immutable matrices over Q, stored as integer rows
* ``SeriesMatrix``      immutable matrices over LaurentSeries

A truncated series knows the exponent below which its coefficients are
reliable (``prec``); arithmetic propagates that bound instead of silently
pretending full accuracy.  That is the only precision a series carries.  Only
the two operations that have to cut an infinite expansion short,
``LaurentSeries.inverse`` and ``SeriesMatrix.inverse``, take the number of
terms to keep, as an explicit ``order``; reading past a bound raises
``PrecisionError``.  Nothing in the degeneration layer inverts a series: its
curves are exact Laurent-polynomial matrices and ``valuation_adapted_reduce``
eliminates fraction-free, so its limits need no truncation order.

Invariant: series coefficients, matrix ``entries`` and element ``coords``
(in ``liealg``) are always ``Fraction``, never ``int``, so that ``1 / x``
stays exact; the kernels read the integer forms (``ints`` over ``den``).  The public constructors coerce
every value with ``Fraction`` and check shapes; those of matrices and
elements coerce with ``as_rational``, which refuses a float.
``SeriesMatrix._trusted`` and ``LaurentSeries._trusted`` take coefficients
that are already ``Fraction`` and skip the coercion and the ragged-shape
check; ``LaurentSeries._trusted`` still trims and shifts exactly as the
public constructor does.

A ``RationalMatrix`` has one stored form: ``den``, the least common
denominator of its entries, and ``ints``, the integer rows den·m.  The pair
is canonical, so equality and hashing compare integers, and ``entries``
(``Fraction`` rows) is built on first read; ``liealg.Element`` stores its
coordinates the same way.  Every operation on matrices
(products, sums, ``apply``, ``det``, elimination, kernels, minimal
polynomials, eigenspaces) runs on the integer rows and returns a matrix
through ``RationalMatrix.from_integers``, which reduces a denominator and
integer rows to the canonical pair; a ``Fraction`` is made only where a
caller reads one.  The integer kernels behind them (Gauss-Jordan in
``_reduced_rows``, Bareiss in ``_det``, Krylov in ``_vector_min_poly``,
Horner in ``_polynomial_columns``) are private.  ``min_poly`` runs on D·m,
whose minimal polynomial is monic integer, and divides the result back.
``eigenspaces`` decomposes a matrix once: the integer roots of that
polynomial, found by integer Horner and synthetic division
(``integer_roots``), and one kernel per root, yielded lazily.
Every rational linear combination of matrix rows, sum c_r·row_r, runs
through ``combine_rows``, one integer combination over a common
denominator, returned as that denominator and the integers; membership of
an integer vector over a denominator in a row space given in reduced
echelon form reads the pivot coordinates and checks them with one such
combination (``reduced_projection``).

Every linear combination of series (sums, products, matrix products,
mat-vecs, minors, elimination updates) runs through one kernel:
``_sum_of_products`` (Σ a·b) and ``_sum_of_scaled`` (Σ s·c, c rational) take
each series prepared once per call as an integer row and accumulate over one
common denominator.  Each result equals in val, coeffs and prec the fold
``acc = acc + a * b`` from ``LaurentSeries.zero()`` it replaces; tests keep
the folds as the reference.  The products with a rational matrix
or vector (``SeriesMatrix.mul_rational``, ``rmul_rational`` and ``apply``,
the one series mat-vec) skip its zero entries.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DomainError,
    InternalCheckError,
    IrrationalSpectrumError,
    PrecisionError,
    RankDeficiencyError,
)

DEFAULT_BUDGET = 16

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(p, q=1) -> Fraction:
    """Rational constructor shorthand."""
    return Fraction(p, q)


def as_rational(x) -> Fraction:
    """x as a Fraction.  A float is refused: its binary expansion is not the
    decimal it was written as, so 0.1 would become 3602879701896397/2^55."""
    if isinstance(x, float):
        raise DomainError(f"{x!r} is a float; pass an int, a Fraction or a rational string")
    return Fraction(x)


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Univariate polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        return Polynomial(_polynomial_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem = _long_division(self.coeffs, other.coeffs, operator.truediv)
        return Polynomial(quot), Polynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate at a Fraction (Horner)."""
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Polynomial(" + " + ".join(terms) + ")"


def is_squarefree(p: Polynomial) -> bool:
    """True iff gcd(p, p') is constant.  Rejects the zero polynomial."""
    return squarefree_part(p).degree == p.degree


def squarefree_part(p: Polynomial) -> Polynomial:
    """The monic p / gcd(p, p') of a nonzero p."""
    if p.is_zero():
        raise DomainError("zero polynomial")
    q = integer_squarefree_part(_integer_row(p.coeffs)[1])
    return Polynomial(q) if q[-1] == 1 else Polynomial(q) * Fraction(1, q[-1])


def integer_squarefree_part(p) -> tuple[int, ...]:
    """p / gcd(p, p') for a nonzero integer polynomial p, as a primitive
    integer polynomial with positive leading coefficient.

    The gcd comes from a primitive remainder sequence (Knuth, TAOCP vol. 2,
    4.6.1).  By Gauss's lemma the quotient of p by a primitive divisor is
    again integer, and a primitive divisor of a monic p has leading
    coefficient 1: the squarefree part of a monic p is monic.
    """
    a, b = _primitive(p), [i * c for i, c in enumerate(p)][1:]
    while b:
        b = _primitive(b)
        # the pseudo-remainder: a scaled so that every quotient is exact
        scale = b[-1] ** (len(a) - len(b) + 1)
        a, b = b, _long_division([scale * c for c in a], b, operator.floordiv)[1]
    return tuple(_primitive(_long_division(p, a, operator.floordiv)[0]))


def _primitive(p) -> list[int]:
    """p over its content, with positive leading coefficient."""
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return [c // g for c in p]


def _long_division(a, b, divide):
    """(quotient, remainder) of a by b, coefficients lowest degree first,
    the remainder trimmed of zeros; ``divide`` divides a coefficient by the
    leading one of b."""
    rem = list(a)
    lead, db = b[-1], len(b) - 1
    quot = [0] * max(0, len(a) - db)
    for k in range(len(quot) - 1, -1, -1):
        f = quot[k] = divide(rem[k + db], lead)
        if f:
            for i, c in enumerate(b):
                rem[k + i] -= f * c
    del rem[db:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def _polynomial_product(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def integer_roots(p: Polynomial, bound=None) -> dict[Fraction, int]:
    """All rational roots of p, with multiplicities, in increasing order,
    found by exact scan over integers.

    On the primitive integer form a_0 + ... + a_d·x^d of p, a root num/q in
    lowest terms has q dividing a_d and num dividing the lowest nonzero
    coefficient (the rational root theorem).  Candidates with |num| inside
    ``bound``·q (default: the Cauchy root bound) that pass this test are
    evaluated by integer Horner, q^d·p(num/q), and each root is divided
    out exactly by q·x - num (synthetic division).
    """
    if p.is_zero():
        raise DomainError("zero polynomial has every root")
    work = _primitive(_integer_row(p.coeffs)[1])
    lead = work[-1]
    if bound is None:
        bound = 1 + max(abs(c) for c in work) // lead + 1
    roots: dict[Fraction, int] = {}
    zeros = next(i for i, c in enumerate(work) if c)
    if zeros:
        roots[_ZERO] = zeros
        work = work[zeros:]
    for q in _divisors(lead):
        for num in range(-int(bound) * q, int(bound) * q + 1):
            if len(work) == 1:
                break
            if not num or work[0] % num or gcd(num, q) != 1:
                continue
            mult = 0
            while len(work) > 1 and not _scaled_value(work, num, q):
                work = _long_division(work, (-num, q), operator.floordiv)[0]
                mult += 1
            if mult:
                roots[Fraction(num, q)] = mult
    return dict(sorted(roots.items()))


def _scaled_value(p, num, q) -> int:
    """q^d·p(num/q) for the integer polynomial p of degree d, by Horner."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= q
    return acc


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


# ---------------------------------------------------------------------------
# rational matrices


class RationalMatrix:
    """Immutable rectangular matrix over Q, stored as integer rows over one
    denominator.

    ``den`` is the least common denominator of the entries and ``ints`` the
    integer matrix den·m as a tuple of int tuples.  The pair is canonical
    (den > 0 and gcd(den, *ints) == 1), so equality and hashing compare
    integers.  ``entries``, the tuple of ``Fraction`` rows, is built on its
    first read and kept.  The public constructor coerces every entry with
    ``Fraction`` and rejects ragged rows; ``from_integers`` takes a
    denominator and integer rows and brings them to the canonical pair.
    """

    __slots__ = ("den", "ints", "rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(
            tuple([x if type(x) is Fraction else as_rational(x) for x in row]) for row in entries
        )
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(row) != self.cols for row in rows):
            raise DomainError("ragged matrix")
        self.den = den = lcm(*[a.denominator for row in rows for a in row])
        self.ints = tuple(
            tuple([a.numerator * (den // a.denominator) for a in row]) for row in rows
        )
        self.entries = rows

    @classmethod
    def from_integers(cls, den, rows, cols=0):
        """The matrix ``rows`` / ``den`` for a nonzero integer ``den`` and
        equal-length integer rows; ``cols`` is the width of a matrix with no
        rows."""
        if not den:
            raise DomainError("zero denominator")
        g = gcd(den, *itertools.chain.from_iterable(rows)) if den != 1 else 1
        if den < 0:
            g = -g
        ints = tuple(map(tuple, rows)) if g == 1 else tuple(
            tuple([a // g for a in row]) for row in rows
        )
        if ints:
            cols = len(ints[0])
            if any(len(row) != cols for row in ints):
                raise DomainError("ragged matrix")
        m = object.__new__(cls)
        m.den, m.ints, m.rows, m.cols = den // g, ints, len(ints), cols
        return m

    def __getattr__(self, name):
        # ``entries`` is the only slot left unset, by ``from_integers``
        if name != "entries":
            raise AttributeError(name)
        self.entries = tuple(_fractions(row, self.den) for row in self.ints)
        return self.entries

    @staticmethod
    def identity(n):
        return RationalMatrix.from_integers(
            1, [[int(i == j) for j in range(n)] for i in range(n)], n
        )

    @staticmethod
    def zero(r, c):
        return RationalMatrix.from_integers(1, ((0,) * c,) * r, c)

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix)
            and self.den == other.den
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.den, self.ints))

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("shape mismatch")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return RationalMatrix.from_integers(
            den,
            [[fa * a + fb * b for a, b in zip(ra, rb)] for ra, rb in zip(self.ints, other.ints)],
            self.cols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalMatrix.from_integers(
            self.den, [[-a for a in row] for row in self.ints], self.cols
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            g = gcd(other.numerator, self.den)
            num = other.numerator // g
            rows = self.ints if num == 1 else [[num * a for a in row] for row in self.ints]
            return RationalMatrix.from_integers(self.den // g * other.denominator, rows, self.cols)
        if self.cols != other.rows:
            raise DomainError("shape mismatch")
        # each output row accumulates, over the nonzeros a = self[i][k], the
        # nonzeros of row k of the right factor
        sparse = [[(j, b) for j, b in enumerate(row) if b] for row in other.ints]
        width = other.cols
        out = []
        for row in self.ints:
            acc = [0] * width
            for k, a in enumerate(row):
                if a:
                    for j, b in sparse[k]:
                        acc[j] += a * b
            out.append(acc)
        return RationalMatrix.from_integers(self.den * other.den, out, width)

    __rmul__ = __mul__

    def transpose(self):
        return RationalMatrix.from_integers(
            self.den, list(zip(*self.ints)) if self.rows else ((),) * self.cols, self.rows
        )

    def trace(self) -> Fraction:
        return Fraction(sum(self.ints[i][i] for i in range(min(self.rows, self.cols))), self.den)

    def is_zero(self):
        return not any(map(any, self.ints))

    def apply(self, vector):
        """Matrix times coordinate vector (ints or Fractions), as Fractions."""
        if len(vector) != self.cols:
            raise DomainError("shape mismatch")
        den, ints = _integer_row(vector)
        live = [(j, v) for j, v in enumerate(ints) if v]
        return _fractions([sum([row[j] * v for j, v in live]) for row in self.ints], den * self.den)

    def vec(self):
        return tuple(a for row in self.entries for a in row)

    def det(self) -> Fraction:
        """Determinant by fraction-free (Bareiss) elimination over the integer rows."""
        if self.rows != self.cols:
            raise DomainError("determinant of non-square matrix")
        return Fraction(_det(self.ints), self.den**self.rows)

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, r)) for r in self.entries]})"


def shifted(m: RationalMatrix, lam) -> RationalMatrix:
    """m - lam·I, formed on the diagonal alone; m must be square."""
    if m.rows != m.cols:
        raise DomainError("shape mismatch")
    lam = Fraction(lam)
    den = lcm(m.den, lam.denominator)
    scale, shift = den // m.den, lam.numerator * (den // lam.denominator)
    rows = [[scale * a for a in row] for row in m.ints]
    for i, row in enumerate(rows):
        row[i] -= shift
    return RationalMatrix.from_integers(den, rows, m.cols)


def _det(rows) -> int:
    """Determinant of the square integer matrix ``rows`` by fraction-free
    (Bareiss) elimination; ``rows`` is left as it is."""
    m = list(rows)
    n = len(m)
    sign = 1
    prev = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        pr = m[c]
        p = pr[c]
        for r in range(c + 1, n):
            row = m[r]
            f = row[c]
            # Sylvester's identity makes every quotient exact
            m[r] = [(p * a - f * b) // prev for a, b in zip(row, pr)]
        prev = p
    return sign * prev


def maximal_minors(matrix: RationalMatrix) -> dict[tuple[int, ...], int]:
    """The r×r minors of the integer matrix den·matrix, r its number of
    rows, keyed by their column indices in lexicographic order."""
    rows = matrix.ints
    return {
        combo: _det([[row[j] for j in combo] for row in rows])
        for combo in itertools.combinations(range(matrix.cols), matrix.rows)
    }


def _integer_row(row):
    """(d, ints) with ints = d * row, d the least common denominator."""
    dens = [a.denominator for a in row]
    den = lcm(*dens)
    if den == 1:
        return 1, [a.numerator for a in row]
    return den, [a.numerator * (den // d) for a, d in zip(row, dens)]


def _fractions(ints, den):
    """The tuple of Fractions v / den for v in ints, zeros as Fraction(0)."""
    if den == 1:
        return tuple([Fraction(v) if v else _ZERO for v in ints])
    return tuple([Fraction(v, den) if v else _ZERO for v in ints])


def combine_rows(coeffs, matrix: RationalMatrix) -> tuple[int, list[int]]:
    """sum c_r·row_r over the rows of ``matrix`` as (d, ints), the integer
    vector ints over the denominator d, not reduced; ``coeffs`` are ints or
    Fractions, one per row, and only the rows with a nonzero coefficient
    are read."""
    if len(coeffs) != matrix.rows:
        raise DomainError("shape mismatch")
    den, ints = _integer_row(coeffs)
    acc = [0] * matrix.cols
    for c, row in zip(ints, matrix.ints):
        if c:
            acc = [a + c * e for a, e in zip(acc, row)]
    return den * matrix.den, acc


def reduced_projection(basis: RationalMatrix, ints, den=1):
    """(the entries of the vector v = ints / den at the pivot columns of
    ``basis``, v less the combination of the basis rows they weight), for
    integers ``ints`` and ``basis`` in reduced echelon form with no zero
    row; both parts are Fractions.  The remainder is zero exactly when v
    lies in the row space, and the entries are then its coordinates over
    the rows."""
    if len(ints) != basis.cols:
        raise DomainError("shape mismatch")
    rest = [basis.den * v for v in ints]
    pivots = []
    for row in basis.ints:
        # the pivot is the first entry equal to den: all before it are zero
        c = row.index(basis.den)
        pivots.append(c)
        f = ints[c]
        if f:
            rest = [a - f * e for a, e in zip(rest, row)]
    return _fractions([ints[c] for c in pivots], den), _fractions(rest, den * basis.den)


def _reduced_rows(rows, cols):
    """Gauss-Jordan elimination over integer rows.

    ``rows`` is a sequence of integer rows of length ``cols``; it is left
    as it is.  Returns the nonzero rows of the reduced echelon form, each still an
    integer multiple of its normalized form, and the pivot columns.  Every
    row stays a nonzero multiple of the corresponding row of the rational
    elimination, so pivots are found in the same places.
    """
    m = list(rows)
    count = len(m)
    pivots = []
    r = 0
    for c in range(cols):
        if r == count:
            break
        piv = next((i for i in range(r, count) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r]
        p = pr[c]
        for i in range(count):
            if i != r:
                row = m[i]
                f = row[c]
                if f:
                    new = [p * a - f * b for a, b in zip(row, pr)]
                    g = gcd(*new)
                    m[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _echelon(rows, pivots, cols, zero_rows=0) -> RationalMatrix:
    """The rows of ``_reduced_rows`` over their pivot entries, followed by
    ``zero_rows`` zero rows."""
    den = lcm(*[row[c] for row, c in zip(rows, pivots)])
    out = [[a * (den // row[c]) for a in row] for row, c in zip(rows, pivots)]
    return RationalMatrix.from_integers(den, out + [[0] * cols] * zero_rows, cols)


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    rows, pivots = _reduced_rows(matrix.ints, matrix.cols)
    return _echelon(rows, pivots, matrix.cols, matrix.rows - len(pivots)), tuple(pivots)


def row_space(matrix: RationalMatrix) -> RationalMatrix:
    """Canonical basis (RREF, zero rows dropped) of the row space.  The
    reduced echelon form of a row space is unique, so a matrix already in
    that form with no zero row is returned as it is."""
    if _is_reduced(matrix):
        return matrix
    return _echelon(*_reduced_rows(matrix.ints, matrix.cols), matrix.cols)


def _is_reduced(matrix: RationalMatrix) -> bool:
    """True when ``matrix`` is in reduced echelon form with no zero row."""
    ints, last = matrix.ints, -1
    for row in ints:
        c = next((j for j, a in enumerate(row) if a), None)
        if c is None or c <= last or row[c] != matrix.den or sum(1 for o in ints if o[c]) != 1:
            return False
        last = c
    return True


def rank(matrix: RationalMatrix) -> int:
    return len(_reduced_rows(matrix.ints, matrix.cols)[1])


def nullspace(matrix: RationalMatrix) -> RationalMatrix:
    """Rows form the canonical kernel basis of matrix · x = 0.

    Per free column f of the reduced echelon form, the kernel vector with 1
    at f and 0 at the other free columns is taken times the lcm of the pivot
    entries it divides by, so that every entry is an integer; one more
    elimination brings these vectors to the canonical basis."""
    cols = matrix.cols
    red, pivots = _reduced_rows(matrix.ints, cols)
    taken = set(pivots)
    kernel = []
    for f in range(cols):
        if f in taken:
            continue
        terms = [(p, row[p], row[f]) for row, p in zip(red, pivots) if row[f]]
        scale = lcm(*[lead for _, lead, _ in terms])
        v = [0] * cols
        v[f] = scale
        for p, lead, a in terms:
            v[p] = -a * (scale // lead)
        kernel.append(v)
    return _echelon(*_reduced_rows(kernel, cols), cols)


def solve(matrix: RationalMatrix, rhs) -> tuple[Fraction, ...] | None:
    """One solution of matrix · x = rhs, or None."""
    if len(rhs) != matrix.rows:
        raise DomainError("shape mismatch")
    rden, rints = _integer_row(rhs)
    den = lcm(matrix.den, rden)
    fm, fr = den // matrix.den, den // rden
    aug = [[fm * a for a in row] + [fr * b] for row, b in zip(matrix.ints, rints)]
    red, pivots = _reduced_rows(aug, matrix.cols + 1)
    if matrix.cols in pivots:
        return None
    x = [_ZERO] * matrix.cols
    for row, p in zip(red, pivots):
        x[p] = Fraction(row[-1], row[p])
    return tuple(x)


class LinearSolver:
    """Solves A·x = b repeatedly for a fixed A, via one recorded elimination."""

    def __init__(self, matrix: RationalMatrix):
        self.matrix = matrix
        n, cols, den = matrix.rows, matrix.cols, matrix.den
        # [A | I], over the denominator of A
        aug = [row + (0,) * i + (den,) + (0,) * (n - i - 1) for i, row in enumerate(matrix.ints)]
        red, pivots = rref(RationalMatrix.from_integers(den, aug, cols + n))
        self.reduced = RationalMatrix.from_integers(red.den, [row[:cols] for row in red.ints], cols)
        self.transform = RationalMatrix.from_integers(red.den, [row[cols:] for row in red.ints], n)
        self.pivots = [p for p in pivots if p < cols]
        self.rank = len(self.pivots)

    def inverse(self) -> RationalMatrix:
        """A^-1 of a square invertible A: the recorded transform, since the
        elimination reduces A to the identity."""
        if self.matrix.rows != self.matrix.cols:
            raise DomainError("shape mismatch")
        if self.rank < self.matrix.rows:
            raise DomainError("matrix is singular")
        return self.transform

    def solve(self, rhs, den=1):
        """One solution of A·x = rhs / den, or None when inconsistent;
        ``rhs`` holds ints or Fractions and ``den`` is a nonzero int.  The
        recorded transform runs on the integer rows, and each nonzero
        coordinate is one Fraction over the product of the denominators."""
        t = self.transform
        if len(rhs) != t.cols:
            raise DomainError("shape mismatch")
        rden, ints = _integer_row(rhs)
        live = [(j, v) for j, v in enumerate(ints) if v]
        y = [sum([row[j] * v for j, v in live]) for row in t.ints]
        if any(y[self.rank:]):
            return None
        x = [0] * self.matrix.cols
        for r, p in enumerate(self.pivots):
            x[p] = y[r]
        # validity needs the non-pivot coordinates of the reduced rows to
        # vanish against x, which holds since free variables are set to zero
        return _fractions(x, rden * t.den * den)


def coordinates_in_row_space(matrix, vector):
    """Coefficients expressing vector over the rows of matrix, or None."""
    if matrix.rows == 0:
        if len(vector) != matrix.cols:
            raise DomainError("shape mismatch")
        return None if any(vector) else ()  # the row space is {0}
    return solve(matrix.transpose(), vector)


def _stacked(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """The rows of a followed by the rows of b."""
    if a.cols != b.cols:
        raise DomainError("ragged matrix")
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    return RationalMatrix.from_integers(
        den, [[fa * x for x in row] for row in a.ints] + [[fb * x for x in row] for row in b.ints], a.cols
    )


def intersect_row_spaces(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Canonical basis of (row space of a) ∩ (row space of b)."""
    if a.rows == 0 or b.rows == 0:
        return RationalMatrix.zero(0, a.cols)
    # kernel vectors (x, y) with x·a + y·b = 0  =>  x·a = -y·b lies in both
    ker = nullspace(_stacked(a, b).transpose())
    if not ker.rows:
        return RationalMatrix.zero(0, a.cols)
    left = RationalMatrix.from_integers(ker.den, [row[: a.rows] for row in ker.ints], a.rows)
    return row_space(left * a)


def sum_row_spaces(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return row_space(_stacked(a, b))


def min_poly(m: RationalMatrix) -> Polynomial:
    """Monic annihilating polynomial of least degree: with D = m.den and P
    the minimal polynomial of the integer matrix D·m, the coefficient of x^k
    is P_k / D^(deg P - k).

    P is the lcm of the minimal polynomials of the unit vectors, built one
    vector at a time: with p the lcm so far, lcm(p, μ_e) = p · μ_w for
    w = p(D·m)·e, so only the part of e that p leaves alive costs a Krylov
    sequence.  Each μ_w is a monic divisor of the characteristic polynomial,
    hence integer by Gauss's lemma.
    """
    if m.rows != m.cols:
        raise DomainError("minimal polynomial needs a square matrix")
    n = m.rows
    sparse = [[(j, a) for j, a in enumerate(row) if a] for row in m.ints]
    p = [1]
    for i in range(n):
        w = [0] * n
        w[i] = 1
        for c in reversed(p[:-1]):
            w = _sparse_apply(sparse, w)
            w[i] += c
        if any(w):
            p = _polynomial_product(p, _vector_min_poly(sparse, w))
    if m.den == 1:
        return Polynomial(p)
    deg = len(p) - 1
    return Polynomial([Fraction(c, m.den ** (deg - k)) for k, c in enumerate(p)])


def _sparse_apply(sparse, v):
    return [sum([a * v[j] for j, a in row if v[j]]) for row in sparse]


def _vector_min_poly(sparse, w) -> list[int]:
    """Monic q of least degree with q(M)·w = 0, by fraction-free Krylov
    elimination: each reduced row is kept with its combination over the
    powers M^j·w, the two divided by their common content."""
    reduced = []  # (pivot, row, combination over the powers)
    v = w
    for k in range(len(w) + 1):
        row = v
        comb = [0] * k + [1]
        for pc, r, rc in reduced:
            f = row[pc]
            if f:
                p = r[pc]
                row = [p * a - f * b for a, b in zip(row, r)]
                comb = [p * a for a in comb]
                for j, b in enumerate(rc):
                    comb[j] -= f * b
        pivot = next((c for c, a in enumerate(row) if a), None)
        if pivot is None:
            lead = comb[-1]
            return [a // lead for a in comb]
        g = gcd(*row, *comb)
        reduced.append((pivot, [a // g for a in row], [a // g for a in comb]))
        v = _sparse_apply(sparse, v)
    raise RankDeficiencyError("no dependence found; impossible for square matrix")


def _polynomial_columns(p, rows) -> list[list[int]]:
    """The columns of p(M), by Horner, for an integer polynomial p and the
    square integer matrix M given as ``rows``."""
    sparse = [[(j, a) for j, a in enumerate(row) if a] for row in rows]
    lead = p[-1] if p else 0
    cols = [[lead if j == i else 0 for j in range(len(rows))] for i in range(len(rows))]
    for c in reversed(p[:-1]):
        cols = [_sparse_apply(sparse, col) for col in cols]
        for i, col in enumerate(cols):
            col[i] += c
    return cols


def matrix_polynomial(p: Polynomial, m: RationalMatrix) -> RationalMatrix:
    """p(m) for a square m, by integer Horner on M = D·m (D = m.den):
    p(m) = Σ c_k·D^(deg-k)·M^k / D^deg."""
    if m.rows != m.cols:
        raise DomainError("shape mismatch")
    deg = max(p.degree, 0)
    den, ints = _integer_row([c * m.den ** (deg - k) for k, c in enumerate(p.coeffs)])
    cols = _polynomial_columns(ints, m.ints)
    return RationalMatrix.from_integers(den * m.den**deg, list(zip(*cols)), m.cols)


def eigenspaces(m: RationalMatrix):
    """The eigenvalues λ of a square m, in increasing order, each with the
    canonical basis of its eigenspace (the rows of ``nullspace(m - λ)``);
    all must be rational.

    The minimal polynomial P of the integer matrix M = D·m (D = m.den) is
    monic integer, so its rational roots are integers within the Gershgorin
    radius of M (``integer_roots``).  An eigenvalue λ of M is λ/D of m with
    the same eigenspace, one ``nullspace(shifted(M, λ))``.  Raises
    IrrationalSpectrumError, before any elimination, when a nonlinear
    factor of P survives.  The pairs are yielded lazily, so a caller that
    stops early pays for no more eliminations.

    m is semisimple exactly when P is squarefree and exactly when the
    eigenspace dimensions sum to the size of m.  Once the last eigenspace
    is yielded the two verdicts are compared: InternalCheckError when they
    differ.
    """
    scaled = m * m.den
    p = min_poly(scaled)
    gersh = max((sum(map(abs, row)) for row in scaled.ints), default=0)
    roots = integer_roots(p, bound=gersh + 1)
    if sum(roots.values()) < p.degree:
        raise IrrationalSpectrumError(
            "matrix has a minimal-polynomial factor with no rational root"
        )

    def spaces():
        total = 0
        for lam in roots:
            basis = nullspace(shifted(scaled, lam))
            total += basis.rows
            yield lam / m.den, basis
        if (total == scaled.rows) != (len(roots) == p.degree):
            raise InternalCheckError(
                "the minimal polynomial and the eigenspaces disagree on semisimplicity"
            )

    return spaces()


# ---------------------------------------------------------------------------
# Laurent series


class LaurentSeries:
    """Laurent series over Q in a parameter t.

    ``val`` is the valuation, ``coeffs`` the known coefficients starting at
    t^val with coeffs[0] != 0, and ``prec`` the absolute exponent below which
    coefficients are reliable (None means the series is exactly the stored
    Laurent polynomial).  The zero series stores empty coeffs; with finite
    prec it is a "tracked zero": zero as far as is known, with no certified
    valuation.
    """

    __slots__ = ("val", "coeffs", "prec")

    def __init__(self, val, coeffs, prec=None):
        self._normalize(val, [Fraction(c) for c in coeffs], prec)

    @classmethod
    def _trusted(cls, val, coeffs, prec):
        """Series over ``coeffs``, a sequence of Fraction, trimmed and
        shifted exactly as the public constructor does."""
        s = object.__new__(cls)
        s._normalize(val, coeffs, prec)
        return s

    def _normalize(self, val, cs, prec):
        if prec is not None:
            cs = cs[: max(0, prec - val)]
        lo, hi = 0, len(cs)
        while lo < hi and not cs[lo]:
            lo += 1
        while hi > lo and not cs[hi - 1]:
            hi -= 1
        if lo == hi:
            self.val = 0
            self.coeffs = ()
        else:
            self.val = val + lo
            self.coeffs = tuple(cs[lo:hi])
        self.prec = prec

    # -- constructors

    @staticmethod
    def constant(c):
        return LaurentSeries(0, [c])

    @staticmethod
    def t_power(k, coeff=1):
        return LaurentSeries(k, [coeff])

    @staticmethod
    def zero():
        return LaurentSeries(0, [])

    # -- predicates and accessors

    def is_zero(self):
        """True when no nonzero coefficient is known (exact or tracked)."""
        return not self.coeffs

    def is_exact(self):
        return self.prec is None

    def valuation(self) -> int:
        if self.is_zero():
            raise PrecisionError(
                "zero-so-far series has no valuation"
                + ("" if self.is_exact() else f" (known zero below t^{self.prec})"),
                needed=self.prec,
            )
        return self.val

    def leading(self) -> Fraction:
        self.valuation()
        return self.coeffs[0]

    def coeff_at(self, k) -> Fraction:
        """Coefficient of t^k; PrecisionError when k is past the known range."""
        if self.prec is not None and k >= self.prec:
            raise PrecisionError(f"coefficient of t^{k} unknown (prec {self.prec})", needed=k)
        if self.is_zero() or k < self.val or k >= self.val + len(self.coeffs):
            return _ZERO
        return self.coeffs[k - self.val]

    def at_zero(self) -> Fraction:
        """Value at t = 0; requires nonnegative valuation."""
        if not self.is_zero() and self.val < 0:
            raise DomainError("series has a pole at t = 0")
        return self.coeff_at(0)

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.constant(other)
        return _sum_of_scaled(((_prepared(self), _ONE), (_prepared(other), _ONE)))

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries._trusted(self.val, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentSeries._trusted(self.val, [c * other for c in self.coeffs], self.prec)
        return _sum_of_products(((_prepared(self), _prepared(other)),))

    __rmul__ = __mul__

    def shift(self, k):
        """Multiply by t^k."""
        return LaurentSeries._trusted(
            self.val + k, self.coeffs, None if self.prec is None else self.prec + k
        )

    def inverse(self, order=DEFAULT_BUDGET):
        """Multiplicative inverse to ``order`` terms, fewer when the known
        coefficients of the series support fewer."""
        if self.is_zero():
            if self.is_exact():
                raise ZeroDivisionError("inverse of the zero series")
            raise PrecisionError("inverse of a zero-so-far series", needed=self.prec)
        n = order
        if self.prec is not None:
            n = min(n, self.prec - self.val)
        c0 = self.coeffs[0]
        inv0 = 1 / c0
        out = [inv0] + [_ZERO] * (n - 1)
        for k in range(1, n):
            acc = _ZERO
            for j in range(1, min(k, len(self.coeffs) - 1) + 1):
                acc += self.coeffs[j] * out[k - j]
            out[k] = -acc * inv0
        exact_and_short = self.is_exact() and len(self.coeffs) == 1
        prec = None if exact_and_short else -self.val + n
        return LaurentSeries._trusted(-self.val, out, prec)

    def truncate(self, prec):
        """Forget coefficients at exponents >= prec."""
        newp = prec if self.prec is None else min(prec, self.prec)
        return LaurentSeries._trusted(self.val, self.coeffs, newp)

    # -- comparison

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and (self.val == other.val or not self.coeffs)
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.val if self.coeffs else 0, self.coeffs, self.prec))

    def __repr__(self):
        if self.is_zero():
            body = "0"
        else:
            parts = []
            for i, c in enumerate(self.coeffs):
                if c:
                    k = self.val + i
                    parts.append(f"{c}" if k == 0 else f"{c}*t^{k}")
            body = " + ".join(parts)
        tail = "" if self.prec is None else f" + O(t^{self.prec})"
        return f"LaurentSeries({body}{tail})"


_EXACT_ONE = LaurentSeries._trusted(0, (_ONE,), None)


def series_valuation(s: LaurentSeries) -> int:
    """Least exponent with nonzero coefficient; errors on a zero-so-far series."""
    return s.valuation()


def min_valuation(series_list) -> int:
    """min of valuations over a family, with sound handling of tracked zeros.

    An inexact zero whose known-zero range does not already exceed the
    candidate minimum could hide a smaller valuation: that is a precision
    failure, not a value.
    """
    best = None
    for s in series_list:
        if not s.is_zero():
            v = s.valuation()
            best = v if best is None or v < best else best
    if best is None:
        inexact = [s for s in series_list if not s.is_exact()]
        if inexact:
            raise PrecisionError("all entries are zero so far; valuation unknown")
        raise DomainError("zero vector has no valuation")
    for s in series_list:
        if s.is_zero() and not s.is_exact() and s.prec <= best:
            raise PrecisionError(
                f"tracked zero known only below t^{s.prec} cannot be ruled out "
                f"as smaller than t^{best}",
                needed=s.prec,
            )
    return best


# ---------------------------------------------------------------------------
# series matrices


class SeriesMatrix:
    """Immutable rectangular matrix over LaurentSeries."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries):
        self.entries = tuple(tuple(e for e in row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise DomainError("ragged matrix")

    @classmethod
    def _trusted(cls, entries):
        """Matrix over ``entries``, a tuple of equal-length tuples of series."""
        m = object.__new__(cls)
        m.entries = entries
        m.rows = len(entries)
        m.cols = len(entries[0]) if entries else 0
        return m

    @staticmethod
    def identity(n):
        zero = LaurentSeries.zero()
        return SeriesMatrix._trusted(
            tuple(tuple(_EXACT_ONE if i == j else zero for j in range(n)) for i in range(n))
        )

    def __mul__(self, other):
        if not isinstance(other, SeriesMatrix):
            return SeriesMatrix._trusted(tuple(tuple([e * other for e in r]) for r in self.entries))
        if self.cols != other.rows:
            raise DomainError("shape mismatch")
        # each entry is prepared once; exact zeros drop out of the dot products
        left = [[(k, _prepared(a)) for k, a in enumerate(row) if a.coeffs or a.prec is not None]
                for row in self.entries]
        right = [[_prepared(b) if b.coeffs or b.prec is not None else None for b in row]
                 for row in other.entries]
        return SeriesMatrix._trusted(tuple(
            tuple([
                _sum_of_products([(a, right[k][j]) for k, a in row if right[k][j]])
                for j in range(other.cols)
            ])
            for row in left
        ))

    def mul_rational(self, m: RationalMatrix) -> "SeriesMatrix":
        """self · m for a rational m, over its integer rows; zero entries of m
        are skipped."""
        if self.cols != m.rows:
            raise DomainError("shape mismatch")
        cols = [[(k, c) for k, c in enumerate(col) if c] for col in zip(*m.ints)]
        used = {k for col in cols for k, _ in col}
        rows = [[_prepared(e) if k in used else None for k, e in enumerate(row)]
                for row in self.entries]
        return SeriesMatrix._trusted(tuple(
            tuple([_sum_of_scaled([(row[k], c) for k, c in col], m.den) for col in cols])
            for row in rows
        ))

    def rmul_rational(self, m: RationalMatrix) -> "SeriesMatrix":
        """m · self for a rational m; zero entries of m are skipped."""
        return self.transpose().mul_rational(m.transpose()).transpose()

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("shape mismatch")
        return SeriesMatrix._trusted(
            tuple(
                tuple([a + b for a, b in zip(ra, rb)])
                for ra, rb in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other):
        return self + (other * Fraction(-1))

    def apply(self, vector):
        """Matrix times a rational vector; zero coordinates are skipped."""
        if len(vector) != self.cols:
            raise DomainError("shape mismatch")
        live = [(k, c) for k, c in enumerate(vector) if c]
        return tuple(
            _sum_of_scaled([(_prepared(row[k]), c) for k, c in live])
            for row in self.entries
        )

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def transpose(self):
        return SeriesMatrix._trusted(tuple(zip(*self.entries)))

    def minor(self, row_idx, col_idx) -> LaurentSeries:
        """Determinant of the square submatrix on the given indices."""
        k = len(row_idx)
        if k == 0:
            return LaurentSeries.constant(1)
        if k == 1:
            return self.entries[row_idx[0]][col_idx[0]]
        top = row_idx[0]
        rest = row_idx[1:]
        pairs = []
        for pos, c in enumerate(col_idx):
            e = self.entries[top][c]
            if e.is_zero() and e.is_exact():
                continue
            sub = self.minor(rest, col_idx[:pos] + col_idx[pos + 1 :])
            pe = _prepared(e)
            pairs.append((_negated(pe) if pos % 2 else pe, _prepared(sub)))
        return _sum_of_products(pairs)

    def det(self) -> LaurentSeries:
        if self.rows != self.cols:
            raise DomainError("determinant of non-square matrix")
        return self.minor(tuple(range(self.rows)), tuple(range(self.cols)))

    def inverse(self, order=DEFAULT_BUDGET) -> "SeriesMatrix":
        """Inverse by Gauss elimination with minimal-valuation pivoting; each
        pivot is inverted to ``order`` terms."""
        if self.rows != self.cols:
            raise DomainError("inverse of non-square matrix")
        n = self.rows
        eye = SeriesMatrix.identity(n).entries
        m = [list(row) + list(eye[i]) for i, row in enumerate(self.entries)]
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
            inv = _prepared(m[c][c].inverse(order))
            m[c] = [_sum_of_products(((_prepared(e), inv),)) for e in m[c]]
            pivot_row = [_prepared(b) for b in m[c]]
            for r in range(n):
                f = m[r][c]
                if r != c and not (f.is_zero() and f.is_exact()):
                    m[r] = _eliminate(m[r], f, pivot_row)
        return SeriesMatrix._trusted(tuple(tuple(row[n:]) for row in m))

    def __repr__(self):
        return f"SeriesMatrix({self.rows}x{self.cols})"


def _prepared(s):
    """(s, (d, ints)) with ints = d * s.coeffs, the form the series kernels
    take: values from the integer row, val and prec from s."""
    return s, _integer_row(s.coeffs)


def _negated(prepared):
    s, (d, ints) = prepared
    return s, (d, [-x for x in ints])


_PREPARED_ONE = _prepared(_EXACT_ONE)


def _eliminate(row, f, pivot_row, unit=_PREPARED_ONE):
    """[u * a - f * b for a, b in zip(row, pivot_row)] with pivot_row and
    the unit u prepared, each entry the sum of products a·u + (-f)·b."""
    minus_f = _negated(_prepared(f))
    return [
        _sum_of_products(((_prepared(a), unit), (minus_f, b)))
        for a, b in zip(row, pivot_row)
    ]


def _sum_of_products(pairs) -> LaurentSeries:
    """Σ a·b over pairs of prepared series, on one common denominator.

    Equal in val, coeffs and prec to folding ``acc = acc + a * b`` from
    ``LaurentSeries.zero()``: the precision is the least product precision,
    where each factor's unknown tail is shifted by the other factor's
    valuation (a zero series has val 0).
    """
    prec = None
    live = []
    for (a, (da, xs)), (b, (db, ys)) in pairs:
        for p in (
            None if a.prec is None else a.prec + b.val,
            None if b.prec is None else b.prec + a.val,
        ):
            if p is not None and (prec is None or p < prec):
                prec = p
        if xs and ys:
            live.append((a.val + b.val, da * db, xs, ys))
    return _integer_sum(live, prec)


def _sum_of_scaled(terms, den=1) -> LaurentSeries:
    """Σ s·c / den over terms (prepared series s, rational c), on one
    denominator.

    Equal in val, coeffs and prec to folding ``acc = acc + s * (c / den)``
    from ``LaurentSeries.zero()``: s·c keeps the precision of s, so every term
    counts toward it, c == 0 and zero s included.
    """
    prec = None
    live = []
    for (s, (d, xs)), c in terms:
        if s.prec is not None and (prec is None or s.prec < prec):
            prec = s.prec
        if xs and c:
            live.append((s.val, d * c.denominator * den, xs, (c.numerator,)))
    return _integer_sum(live, prec)


def _integer_sum(live, prec) -> LaurentSeries:
    """The series Σ t^v · (xs ⊛ ys) / d over live terms (v, d, xs, ys) of
    integer rows, truncated at prec."""
    if not live:
        return LaurentSeries._trusted(0, (), prec)
    lo = min(v for v, _, _, _ in live)
    hi = max(v + len(xs) + len(ys) - 1 for v, _, xs, ys in live)
    if prec is not None:
        hi = min(hi, prec)
    den = lcm(*[d for _, d, _, _ in live])
    width = max(hi - lo, 0)
    out = [0] * width
    for v, d, xs, ys in live:
        scale = den // d
        for i, x in enumerate(xs, v - lo):
            if i >= width:
                break
            if x:
                x *= scale
                k = i
                for y in ys[: width - i]:
                    if y:
                        out[k] += x * y
                    k += 1
    return LaurentSeries._trusted(
        lo, [Fraction(c, den) if c else _ZERO for c in out], prec
    )


# ---------------------------------------------------------------------------
# valuation-adapted column reduction


class ColumnReduction:
    """Result of valuation_adapted_reduce.

    ``transform`` is invertible over the local ring (valuation-0 determinant)
    and ``reduced = matrix · transform`` has one pivot row per column whose
    other entries vanish; ``pivot_valuations`` ascend.
    """

    __slots__ = ("transform", "reduced", "pivot_rows", "pivot_valuations")

    def __init__(self, transform, reduced, pivot_rows, pivot_valuations):
        self.transform = transform
        self.reduced = reduced
        self.pivot_rows = pivot_rows
        self.pivot_valuations = pivot_valuations


def valuation_adapted_reduce(matrix: SeriesMatrix) -> tuple[ColumnReduction, list[int]]:
    """Column-reduce over the local ring, exposing the invariant-factor
    valuations of the column module inside the ambient free module.

    Pivots are chosen by lowest valuation, ties broken by lowest row index
    (then lowest column index).  Elimination is fraction-free over the
    discrete valuation ring, in the manner of Bareiss: for the pivot
    p = t^v·u, u a unit, each other column becomes u·col_j − (e·t^(−v))·col_k
    with e its entry in the pivot row.  e·t^(−v) is again a Laurent
    polynomial, no series is inverted, and each column ends up a unit
    multiple of the one an elimination by p^(−1) gives, with the same pivots
    and valuations.  Requires exact entries and full column rank over the
    series field; rank deficiency is an error.
    """
    if any(e.prec is not None for row in matrix.entries for e in row):
        raise DomainError("valuation-adapted reduction needs exact series entries")
    work = [list(col) for col in zip(*matrix.entries)]  # list of columns
    ncols = len(work)
    nrows = matrix.rows
    if ncols == 0:
        empty = SeriesMatrix.identity(0)
        return ColumnReduction(empty, matrix, [], []), []
    transform = [list(col) for col in zip(*SeriesMatrix.identity(ncols).entries)]
    used_rows: set[int] = set()
    pivot_rows = []
    pivot_vals = []
    for k in range(ncols):
        best = None  # (val, row, col)
        for j in range(k, ncols):
            for r in range(nrows):
                e = work[j][r]
                if e.coeffs and r not in used_rows:
                    key = (e.val, r, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            raise RankDeficiencyError("matrix does not have full column rank")
        v, prow, pcol = best
        if pcol != k:
            work[k], work[pcol] = work[pcol], work[k]
            transform[k], transform[pcol] = transform[pcol], transform[k]
        unit = _prepared(work[k][prow].shift(-v))
        pivot_col = [_prepared(b) for b in work[k]]
        pivot_transform = [_prepared(b) for b in transform[k]]
        for j in range(ncols):
            e = work[j][prow]
            if j == k or not e.coeffs:
                continue
            q = e.shift(-v)
            work[j] = _eliminate(work[j], q, pivot_col, unit)
            transform[j] = _eliminate(transform[j], q, pivot_transform, unit)
        used_rows.add(prow)
        pivot_rows.append(prow)
        pivot_vals.append(v)
    if pivot_vals != sorted(pivot_vals):
        raise RankDeficiencyError("pivot valuations are not ascending; internal error")
    reduced = SeriesMatrix._trusted(tuple(zip(*work)))
    tmat = SeriesMatrix._trusted(tuple(zip(*transform)))
    return ColumnReduction(tmat, reduced, pivot_rows, pivot_vals), list(pivot_vals)
