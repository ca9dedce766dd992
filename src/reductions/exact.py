"""Exact scalars, polynomials, truncated Laurent series and linear algebra.

Rationals are ``fractions.Fraction`` throughout: arbitrary precision, always
in lowest terms, positive denominator.  Everything downstream is built on the
four value types in this module:

* ``Polynomial``        dense univariate polynomials over Q
* ``LaurentSeries``     Laurent series in one parameter t, either exact
                        (finite support, no unknown tail) or truncated with a
                        recorded precision bound
* ``RationalMatrix``    immutable matrices over Q
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

Invariant: matrix entries, series coefficients and (in ``liealg``) element
coordinates are always ``Fraction``, never ``int``, so that ``1 / x`` stays
exact.  The public constructors coerce every value with ``Fraction`` and
check shapes.  The ``_trusted`` constructors (``RationalMatrix._trusted``,
``SeriesMatrix._trusted``, ``LaurentSeries._trusted`` and
``Element._trusted``) take values that are already ``Fraction`` and skip the
coercion and the ragged-shape check; the package's own operations return
through them.  ``LaurentSeries._trusted`` still trims and shifts exactly as
the public constructor does.  Elimination (``rref``, ``rank``, ``det``) works
over integer rows inside one call and hands back ``Fraction`` values.

Every rational linear combination of matrix rows, sum c_r·row_r, runs
through ``combine_rows``: the rows with a nonzero coefficient are taken as
integer rows and summed over one common denominator.  Callers that combine
the same rows many times prepare them once with ``_integer_rows`` and call
its kernel ``_combination`` directly.

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

from fractions import Fraction
from math import gcd, lcm

from .errors import DomainError, PrecisionError, RankDeficiencyError

DEFAULT_BUDGET = 16

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(p, q=1) -> Fraction:
    """Rational constructor shorthand."""
    return Fraction(p, q)


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

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        lead = self.leading()
        return Polynomial([c / lead for c in self.coeffs])

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
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot = [_ZERO] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        rem = list(self.coeffs)
        dlead = other.leading()
        dd = other.degree
        while len(rem) - 1 >= dd and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dd:
                break
            k = len(rem) - 1 - dd
            f = rem[-1] / dlead
            quot[k] = f
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= f * c
        return Polynomial(quot), Polynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def gcd(self, other) -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def squarefree_part(self) -> "Polynomial":
        g = self.gcd(self.derivative())
        if g.is_constant():
            return self.monic()
        return (self // g).monic()

    def __call__(self, x):
        """Evaluate at a Fraction or a RationalMatrix (Horner)."""
        if isinstance(x, RationalMatrix):
            acc = RationalMatrix.zero(x.rows, x.cols)
            for c in reversed(self.coeffs):
                acc = shifted(acc * x, -c)
            return acc
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
    if p.is_zero():
        raise DomainError("zero polynomial")
    return p.gcd(p.derivative()).is_constant()


def integer_roots(p: Polynomial, bound=None) -> dict[Fraction, int]:
    """All rational roots of p, with multiplicities, found by exact scan.

    Candidates are rationals whose denominator divides the leading
    coefficient of the primitive integer form of p, with numerator inside
    ``bound`` (default: the Cauchy root bound).  Roots are verified by exact
    evaluation and deflation.
    """
    if p.is_zero():
        raise DomainError("zero polynomial has every root")
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // _gcd_int(den, c.denominator)
    ics = [int(c * den) for c in p.coeffs]
    while ics and ics[-1] == 0:
        ics.pop()
    lead = abs(ics[-1])
    if bound is None:
        bound = 1 + max(abs(c) for c in ics) // lead + 1
    roots: dict[Fraction, int] = {}
    candidates = set()
    for q in _divisors(lead):
        for num in range(-int(bound) * q, int(bound) * q + 1):
            candidates.add(Fraction(num, q))
    work = p
    for cand in sorted(candidates):
        if work.is_constant():
            break
        mult = 0
        while not work.is_constant() and work(cand) == 0:
            work = work // Polynomial([-cand, 1])
            mult += 1
        if mult:
            roots[cand] = mult
    return roots


def _gcd_int(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


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
    """Immutable rectangular matrix over Q.

    The public constructor coerces every entry with ``Fraction`` and rejects
    ragged rows.  ``_trusted`` builds from a tuple of tuples of ``Fraction``
    as given; the module's own operations return through it.
    """

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, entries):
        self.entries = tuple(tuple(Fraction(x) for x in row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        if any(len(row) != self.cols for row in self.entries):
            raise DomainError("ragged matrix")

    @classmethod
    def _trusted(cls, entries, cols=0):
        """Matrix over ``entries``, a tuple of equal-length tuples of Fraction;
        ``cols`` is the width of a matrix with no rows."""
        m = object.__new__(cls)
        m.entries = entries
        m.rows = len(entries)
        m.cols = len(entries[0]) if entries else cols
        return m

    @staticmethod
    def identity(n):
        return RationalMatrix._trusted(
            tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))
        )

    @staticmethod
    def zero(r, c):
        return RationalMatrix._trusted(((_ZERO,) * c,) * r, c)

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DomainError("shape mismatch")
        return RationalMatrix._trusted(
            tuple(
                tuple([a + b for a, b in zip(ra, rb)])
                for ra, rb in zip(self.entries, other.entries)
            ),
            self.cols,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RationalMatrix._trusted(
            tuple(tuple([-a for a in row]) for row in self.entries), self.cols
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalMatrix._trusted(
                tuple(tuple([a * other for a in row]) for row in self.entries), self.cols
            )
        if self.cols != other.rows:
            raise DomainError("shape mismatch")
        # each output row accumulates, over the nonzeros a = self[i][k], the
        # nonzeros of row k of the right factor
        sparse = [[(j, b) for j, b in enumerate(row) if b] for row in other.entries]
        width = other.cols
        out = []
        for row in self.entries:
            acc = [_ZERO] * width
            for k, a in enumerate(row):
                if a:
                    for j, b in sparse[k]:
                        acc[j] += a * b
            out.append(tuple(acc))
        return RationalMatrix._trusted(tuple(out), width)

    __rmul__ = __mul__

    def transpose(self):
        if not self.rows:
            return RationalMatrix._trusted(((),) * self.cols)
        return RationalMatrix._trusted(tuple(zip(*self.entries)), self.rows)

    def trace(self):
        return sum(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def is_zero(self):
        return not any(a for row in self.entries for a in row)

    def apply(self, vector):
        """Matrix times coordinate vector (tuple of Fractions)."""
        return tuple(_dot(row, vector) for row in self.entries)

    def vec(self):
        return tuple(a for row in self.entries for a in row)

    def det(self) -> Fraction:
        """Determinant by fraction-free (Bareiss) elimination over integer rows."""
        if self.rows != self.cols:
            raise DomainError("determinant of non-square matrix")
        n = self.rows
        scale = 1
        m = []
        for row in self.entries:
            den, ints = _integer_row(row)
            scale *= den
            m.append(ints)
        sign = 1
        prev = 1
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c]), None)
            if piv is None:
                return _ZERO
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
        return Fraction(sign * prev, scale)

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, r)) for r in self.entries]})"


def shifted(m: RationalMatrix, lam) -> RationalMatrix:
    """m - lam·I, formed on the diagonal alone; m must be square."""
    if m.rows != m.cols:
        raise DomainError("shape mismatch")
    return RationalMatrix._trusted(
        tuple(row[:i] + (row[i] - lam,) + row[i + 1 :] for i, row in enumerate(m.entries))
    )


def _dot(u, v):
    acc = _ZERO
    for a, b in zip(u, v):
        if a:
            acc += a * b
    return acc


def _integer_row(row):
    """(d, ints) with ints = d * row, d the least common denominator."""
    dens = [a.denominator for a in row]
    den = lcm(*dens)
    if den == 1:
        return 1, [a.numerator for a in row]
    return den, [a.numerator * (den // d) for a, d in zip(row, dens)]


def _integer_rows(rows):
    """Each row as (d, integer nonzeros (i, d·row_i)), d its least common
    denominator."""
    out = []
    for row in rows:
        d, ints = _integer_row(row)
        out.append((d, tuple((i, e) for i, e in enumerate(ints) if e)))
    return out


def _combination(coeffs, rows, dim):
    """sum c_r·row_r as dim Fractions over one common denominator, for rows
    in the form of ``_integer_rows``."""
    terms = [(c, d, row) for c, (d, row) in zip(coeffs, rows) if c]
    den = lcm(*[c.denominator * d for c, d, _ in terms])
    acc = [0] * dim
    for c, d, row in terms:
        f = c.numerator * (den // (c.denominator * d))
        for i, e in row:
            acc[i] += f * e
    return _fractions(acc, den)


def _fractions(ints, den):
    """The tuple of Fractions v / den for v in ints, zeros as Fraction(0)."""
    if den == 1:
        return tuple([Fraction(v) if v else _ZERO for v in ints])
    return tuple([Fraction(v, den) if v else _ZERO for v in ints])


def combine_rows(coeffs, matrix: RationalMatrix) -> tuple[Fraction, ...]:
    """sum c_r·row_r over the rows of ``matrix``, as a tuple of Fractions;
    ``coeffs`` are ints or Fractions, and only the rows with a nonzero
    coefficient are read."""
    live = [(c, row) for c, row in zip(coeffs, matrix.entries) if c]
    return _combination(
        [c for c, _ in live], _integer_rows([row for _, row in live]), matrix.cols
    )


def _reduced_rows(matrix: RationalMatrix):
    """Gauss-Jordan elimination over primitive integer rows.

    Returns the nonzero rows of the reduced echelon form, each still an
    integer multiple of its normalized form, and the pivot columns.  Every
    row stays a nonzero multiple of the corresponding row of the rational
    elimination, so pivots are found in the same places.
    """
    m = [_integer_row(row)[1] for row in matrix.entries]
    rows = matrix.rows
    pivots = []
    r = 0
    for c in range(matrix.cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r]
        p = pr[c]
        for i in range(rows):
            if i != r:
                row = m[i]
                f = row[c]
                if f:
                    new = [p * a - f * b for a, b in zip(row, pr)]
                    g = gcd(*new)
                    m[i] = [a // g for a in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m[:r], pivots


def rref(matrix: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices."""
    ints, pivots = _reduced_rows(matrix)
    out = [
        tuple([Fraction(a, row[c]) if a else _ZERO for a in row])
        for row, c in zip(ints, pivots)
    ]
    out.extend([(_ZERO,) * matrix.cols] * (matrix.rows - len(out)))
    return RationalMatrix._trusted(tuple(out), matrix.cols), tuple(pivots)


def row_space(matrix: RationalMatrix) -> RationalMatrix:
    """Canonical basis (RREF, zero rows dropped) of the row space."""
    red, piv = rref(matrix)
    return RationalMatrix._trusted(red.entries[: len(piv)]) if piv else RationalMatrix.zero(0, matrix.cols)


def rank(matrix: RationalMatrix) -> int:
    return len(_reduced_rows(matrix)[1])


def nullspace(matrix: RationalMatrix) -> RationalMatrix:
    """Rows form the canonical kernel basis of matrix · x = 0."""
    red, pivots = rref(matrix)
    cols = matrix.cols
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [_ZERO] * cols
        v[f] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    if not basis:
        return RationalMatrix.zero(0, cols)
    return row_space(RationalMatrix._trusted(tuple(basis)))


def solve(matrix: RationalMatrix, rhs) -> tuple[Fraction, ...] | None:
    """One solution of matrix · x = rhs, or None."""
    aug = RationalMatrix._trusted(
        tuple(row + (Fraction(b),) for row, b in zip(matrix.entries, rhs))
    )
    red, pivots = rref(aug)
    if matrix.cols in pivots:
        return None
    x = [_ZERO] * matrix.cols
    for r, p in enumerate(pivots):
        x[p] = red.entries[r][matrix.cols]
    return tuple(x)


class LinearSolver:
    """Solves A·x = b repeatedly for a fixed A, via one recorded elimination."""

    def __init__(self, matrix: RationalMatrix):
        self.matrix = matrix
        n = matrix.rows
        aug = RationalMatrix._trusted(
            tuple(
                row + tuple(_ONE if i == j else _ZERO for j in range(n))
                for i, row in enumerate(matrix.entries)
            )
        )
        red, pivots = rref(aug)
        self.reduced = RationalMatrix._trusted(tuple(row[: matrix.cols] for row in red.entries))
        self.transform = RationalMatrix._trusted(tuple(row[matrix.cols :] for row in red.entries))
        self.pivots = [p for p in pivots if p < matrix.cols]
        self.rank = len(self.pivots)

    def inverse(self) -> RationalMatrix:
        """A^-1 of a square invertible A: the recorded transform, since the
        elimination reduces A to the identity."""
        if self.matrix.rows != self.matrix.cols:
            raise DomainError("shape mismatch")
        if self.rank < self.matrix.rows:
            raise DomainError("matrix is singular")
        return self.transform

    def solve(self, rhs):
        """One solution of A·x = rhs, or None when inconsistent."""
        y = self.transform.apply(rhs)
        for r in range(self.rank, self.matrix.rows):
            if y[r] != 0:
                return None
        x = [_ZERO] * self.matrix.cols
        for r, p in enumerate(self.pivots):
            x[p] = y[r]
        # validity needs the non-pivot coordinates of the reduced rows to
        # vanish against x, which holds since free variables are set to zero
        return tuple(x)


def in_row_space(matrix: RationalMatrix, vector) -> bool:
    return coordinates_in_row_space(matrix, vector) is not None


def coordinates_in_row_space(matrix, vector):
    """Coefficients expressing vector over the rows of matrix, or None."""
    if matrix.rows == 0:
        return None if any(vector) else ()  # the row space is {0}
    return solve(matrix.transpose(), vector)


def intersect_row_spaces(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Canonical basis of (row space of a) ∩ (row space of b)."""
    if a.rows == 0 or b.rows == 0:
        return RationalMatrix.zero(0, a.cols)
    if a.cols != b.cols:
        raise DomainError("ragged matrix")
    stacked = RationalMatrix._trusted(a.entries + b.entries).transpose()
    # kernel vectors (x, y) with x·a + y·b = 0  =>  x·a = -y·b lies in both
    ker = nullspace(stacked)
    vecs = [combine_rows(krow[: a.rows], a) for krow in ker.entries]
    if not vecs:
        return RationalMatrix.zero(0, a.cols)
    return row_space(RationalMatrix._trusted(tuple(vecs)))


def sum_row_spaces(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return row_space(RationalMatrix(list(a.entries) + list(b.entries)))


def min_poly(m: RationalMatrix) -> Polynomial:
    """Monic annihilating polynomial of least degree.

    The lcm of the minimal polynomials of the unit vectors, built one vector
    at a time: with p the lcm so far, lcm(p, μ_e) = p · μ_w for w = p(m)·e,
    so only the part of e that p leaves alive costs a Krylov sequence.
    """
    if m.rows != m.cols:
        raise DomainError("minimal polynomial needs a square matrix")
    n = m.rows
    sparse = [[(j, a) for j, a in enumerate(row) if a] for row in m.entries]
    p = Polynomial([_ONE])
    for i in range(n):
        w = [_ZERO] * n
        w[i] = _ONE
        for c in reversed(p.coeffs[:-1]):
            w = _sparse_apply(sparse, w)
            w[i] += c
        if any(w):
            p = p * _vector_min_poly(sparse, w)
    return p


def _sparse_apply(sparse, v):
    out = []
    for row in sparse:
        acc = _ZERO
        for j, a in row:
            if v[j]:
                acc += a * v[j]
        out.append(acc)
    return out


def _vector_min_poly(sparse, w) -> Polynomial:
    """Monic q of least degree with q(m)·w = 0, by Krylov elimination."""
    reduced = []  # (pivot, row with row[pivot] = 1, combination over the powers)
    v = w
    for k in range(len(w) + 1):
        row = list(v)
        comb = [_ZERO] * k + [_ONE]
        for pc, r, rc in reduced:
            f = row[pc]
            if f:
                row = [a - f * b for a, b in zip(row, r)]
                for j, b in enumerate(rc):
                    comb[j] -= f * b
        pivot = next((c for c, a in enumerate(row) if a), None)
        if pivot is None:
            return Polynomial(comb)
        inv = 1 / row[pivot]
        reduced.append((pivot, [a * inv for a in row], [a * inv for a in comb]))
        v = _sparse_apply(sparse, v)
    raise RankDeficiencyError("no dependence found; impossible for square matrix")


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
        """self · m for a rational m; zero entries of m are skipped."""
        if self.cols != m.rows:
            raise DomainError("shape mismatch")
        cols = [[(k, c) for k, c in enumerate(col) if c] for col in zip(*m.entries)]
        used = {k for col in cols for k, _ in col}
        rows = [[_prepared(e) if k in used else None for k, e in enumerate(row)]
                for row in self.entries]
        return SeriesMatrix._trusted(tuple(
            tuple([_sum_of_scaled([(row[k], c) for k, c in col]) for col in cols])
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


def _sum_of_scaled(terms) -> LaurentSeries:
    """Σ s·c over terms (prepared series s, rational c), on one denominator.

    Equal in val, coeffs and prec to folding ``acc = acc + s * c`` from
    ``LaurentSeries.zero()``: s·c keeps the precision of s, so every term
    counts toward it, c == 0 and zero s included.
    """
    prec = None
    live = []
    for (s, (d, xs)), c in terms:
        if s.prec is not None and (prec is None or s.prec < prec):
            prec = s.prec
        if xs and c:
            live.append((s.val, d * c.denominator, xs, (c.numerator,)))
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
