"""Lie algebras by structure constants, with faithful matrix realizations.

An algebra stores a sparse bracket table over a labeled basis plus, when
available, one realization matrix per basis vector; consistency of the table
with the realization and the Jacobi identity are verified at construction.
Jordan-Chevalley decompositions are computed on the realization as an
integer matrix, from its integer minimal polynomial and that polynomial's
squarefree part, then pulled back to coordinates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import DomainError, InternalCheckError
from .exact import (
    LinearSolver,
    Polynomial,
    RationalMatrix,
    _fractions,
    _integer_row,
    as_rational,
    eigenspaces,
    is_squarefree,
    intersect_row_spaces,
    matrix_polynomial,
    min_poly,
    nullspace,
    rank,
    reduced_projection,
    row_space,
    squarefree_part,
    sum_row_spaces,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    ``table[(i, j)]`` maps basis pair (i < j) to a sparse dict {k: c} with
    [e_i, e_j] = sum c * e_k.  ``realization`` is an optional list of matrices
    (one per basis vector) with commutators matching the table.

    Brackets, ``ad`` and ``realize`` run over integers: at construction the
    table is copied once as integer rows of both orders,
    (i, j) -> ((k, L·c), ...) and (j, i) -> the negated entries, with L the
    least common denominator of all structure constants; ``realize``
    combines the integer rows of the flattened realization matrices.  They
    read the stored integers of their arguments (``Element.ints`` over
    ``Element.den``), accumulate as integers and return an element or a
    matrix over the product of the denominators, with no ``Fraction`` made.
    The Killing form is one integer bilinear form over the integer Gram
    matrix.
    """

    def __init__(self, labels, table, realization=None, cartan_indices=None, check=True):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.table = {k: dict(v) for k, v in table.items() if v}
        self.realization = tuple(realization) if realization is not None else None
        self.cartan_indices = tuple(cartan_indices) if cartan_indices is not None else None
        self._ad_cache: dict[int, RationalMatrix] = {}
        self._killing = None
        self._flat = None  # the realization matrices flattened into rows
        self._realization_solver = None
        self._int_den, self._int_rows = _integer_table(self.dim, self.table)
        if check:
            self._check_antisymmetry()
            self._check_jacobi()
            if self.realization is not None:
                self._check_realization()

    # -- construction checks

    def _check_antisymmetry(self):
        for (i, j) in self.table:
            if i >= j:
                raise InternalCheckError("bracket table must be stored with i < j")

    def _check_jacobi(self):
        """[[e_a, e_b], e_c] summed over the three cyclic orders of every
        basis triple vanishes, on the integer table: the sum is L² times
        the rational one, L the table's common denominator."""
        rows = self._int_rows
        for i, j, k in itertools.combinations(range(self.dim), 3):
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, cm in rows[a].get(b, ()):
                    for l, cl in rows[m].get(c, ()):
                        acc[l] = acc.get(l, 0) + cm * cl
            if any(acc.values()):
                raise InternalCheckError(
                    f"Jacobi identity fails on basis triple ({i}, {j}, {k})"
                )

    def _check_realization(self):
        """m_i·m_j - m_j·m_i against the realization of [e_i, e_j] for every
        basis pair i < j, on integers: with F the common denominator of the
        realization and L the table's, L·[F·m_i, F·m_j] against F times the
        combination of the F·m_k at the integer table terms (k, L·c)."""
        if len(self.realization) != self.dim:
            raise DomainError("realization size mismatch")
        flat = self._flat_realization()
        if rank(flat) < self.dim:
            raise DomainError("realization is not faithful")
        size = self.realization[0].rows
        positions = range(size * size)
        # the nonzeros (column, entry) of each row of each F·m_i
        sparse = [
            [[(c, a) for c, a in enumerate(row[r:r + size]) if a] for r in range(0, size * size, size)]
            for row in flat.ints
        ]
        scale, den = self._int_den, flat.den
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                comm = [
                    a - b
                    for a, b in zip(
                        _integer_product(sparse[i], sparse[j], size),
                        _integer_product(sparse[j], sparse[i], size),
                    )
                ]
                image = [0] * (size * size)
                for k, c in self._int_rows[i].get(j, ()):
                    row = flat.ints[k]
                    for pos in itertools.compress(positions, row):  # its nonzeros
                        image[pos] += c * row[pos]
                if any(scale * a != den * b for a, b in zip(comm, image)):
                    raise InternalCheckError(
                        f"realization commutator mismatch on basis pair ({i}, {j})"
                    )

    # -- bracket machinery

    def _basis_bracket(self, i, j):
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def basis_element(self, i) -> "Element":
        ints = [0] * self.dim
        ints[i] = 1
        return Element.from_integers(self, 1, ints)

    def zero(self) -> "Element":
        return Element.from_integers(self, 1, (0,) * self.dim)

    def bracket(self, x: "Element", y: "Element") -> "Element":
        if x.parent is not self or y.parent is not self:
            raise DomainError("bracket of elements with different parents")
        return Element.from_integers(
            self, x.den * y.den * self._int_den, self._integer_bracket(x.nonzeros(), y.nonzeros())
        )

    def _integer_bracket(self, xs, ys) -> list[int]:
        """L·[x, y] as integers, for x and y given as their integer nonzeros
        (i, c_i) and L the table's common denominator."""
        acc = [0] * self.dim
        rows = self._int_rows
        for i, a in xs:
            row = rows[i]
            for j, b in ys:
                terms = row.get(j)
                if terms:
                    ab = a * b
                    for k, c in terms:
                        acc[k] += ab * c
        return acc

    def ad(self, x: "Element") -> RationalMatrix:
        """Matrix of ad(x) on the algebra's own basis (columns = images)."""
        xs = x.nonzeros()
        cols = [self._integer_bracket(xs, ((j, 1),)) for j in range(self.dim)]
        return RationalMatrix.from_integers(x.den * self._int_den, list(zip(*cols)), self.dim)

    def ad_basis(self, i) -> RationalMatrix:
        if i not in self._ad_cache:
            self._ad_cache[i] = self.ad(self.basis_element(i))
        return self._ad_cache[i]

    def killing_matrix(self) -> RationalMatrix:
        """Gram matrix of the Killing form on the basis, from the integer
        rows of the ad matrices: trace(ad e_i · ad e_j) over D², with D the
        common denominator of the ad matrices."""
        if self._killing is None:
            ads = [self.ad_basis(i) for i in range(self.dim)]
            den = lcm(*[m.den for m in ads])
            mats = [[[a * (den // m.den) for a in row] for row in m.ints] for m in ads]
            gram = []
            for mi in mats:
                # over the nonzeros of ad e_i
                nz = [(a, b, v) for a, row in enumerate(mi) for b, v in enumerate(row) if v]
                gram.append([sum([v * mj[b][a] for a, b, v in nz]) for mj in mats])
            self._killing = RationalMatrix.from_integers(den * den, gram, self.dim)
        return self._killing

    def killing(self, x: "Element", y: "Element") -> Fraction:
        """x·K·y over the integer Gram matrix K, one Fraction at the end."""
        if x.parent is not self or y.parent is not self:
            raise DomainError("Killing form of elements with different parents")
        km = self.killing_matrix()
        ys = y.nonzeros()
        rows = km.ints
        acc = 0
        for i, a in x.nonzeros():
            row = rows[i]
            acc += a * sum([row[j] * b for j, b in ys])
        return Fraction(acc, x.den * y.den * km.den)

    # -- realization helpers

    def _flat_realization(self) -> RationalMatrix:
        """Row i is the realization matrix of e_i, flattened."""
        if self._flat is None:
            self._flat = _flattened(self.realization)
        return self._flat

    def realize(self, x: "Element") -> RationalMatrix:
        """The realization of x: the integer combination of the flattened
        realization matrices at the integer nonzeros of x."""
        if self.realization is None:
            raise DomainError("algebra has no matrix realization")
        size = self.realization[0].rows
        flat = self._flat_realization()
        positions = range(size * size)
        acc = [0] * (size * size)
        for i, a in x.nonzeros():
            row = flat.ints[i]
            for pos in itertools.compress(positions, row):  # its nonzeros
                acc[pos] += a * row[pos]
        return RationalMatrix.from_integers(
            x.den * flat.den, [acc[r:r + size] for r in range(0, size * size, size)], size
        )

    def from_realization(self, mat: RationalMatrix) -> "Element":
        """Element whose realization is mat; error when mat is outside."""
        if self._realization_solver is None:
            self._realization_solver = LinearSolver(self._flat_realization().transpose())
        coords = self._realization_solver.solve([a for row in mat.ints for a in row], mat.den)
        if coords is None:
            raise InternalCheckError("matrix does not lie in the realized algebra")
        return Element(self, coords)

    def subspace(self, vectors) -> "Subspace":
        rows = [v.coords if isinstance(v, Element) else v for v in vectors]
        if not rows:
            return Subspace(self, RationalMatrix.zero(0, self.dim))
        return Subspace(self, row_space(RationalMatrix(rows)))

    def full_subspace(self) -> "Subspace":
        return Subspace(self, RationalMatrix.identity(self.dim))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"


def _integer_table(dim, table):
    """(L, rows): L the least common denominator of the structure constants
    and rows[i][j] the terms (k, L·c) of [e_i, e_j], for both orders of
    every basis pair i < j of the table."""
    den = lcm(*(c.denominator for v in table.values() for c in v.values()))
    rows = [{} for _ in range(dim)]
    for (i, j), v in table.items():
        if i < j:
            terms = tuple((k, c.numerator * (den // c.denominator)) for k, c in v.items() if c)
            if terms:
                rows[i][j] = terms
                rows[j][i] = tuple((k, -c) for k, c in terms)
    return den, rows


def _flattened(mats) -> RationalMatrix:
    """The matrix whose row i is mats[i] flattened, over one denominator."""
    den = lcm(*[m.den for m in mats])
    return RationalMatrix.from_integers(
        den, [[a * (den // m.den) for row in m.ints for a in row] for m in mats]
    )


def _integer_product(a, b, size) -> list[int]:
    """The product of two square integer matrices, each given as the
    nonzeros (column, entry) of its rows, flattened row by row."""
    out = [0] * (size * size)
    for r, row in enumerate(a):
        base = r * size
        for k, x in row:
            for c, y in b[k]:
                out[base + c] += x * y
    return out


class Element:
    """Vector of coordinates over its parent algebra's basis, stored as
    integers over one denominator.

    ``den`` is the least common denominator of the coordinates and ``ints``
    the tuple of integers den·coords.  The pair is canonical (den > 0 and
    gcd(den, *ints) == 1), so equality and hashing compare integers.
    ``coords``, the tuple of ``Fraction`` coordinates, is built on its first
    read and kept.  The public constructor coerces the coordinates (a float
    is refused) and checks their number; ``from_integers`` takes a
    denominator and integers and brings them to the canonical pair.
    """

    __slots__ = ("parent", "den", "ints", "coords")

    def __init__(self, parent: LieAlgebra, coords):
        coords = tuple([c if type(c) is Fraction else as_rational(c) for c in coords])
        if len(coords) != parent.dim:
            raise DomainError("coordinate length does not match algebra dimension")
        self.parent = parent
        self.den, ints = _integer_row(coords)  # coprime, as the coordinates are in lowest terms
        self.ints = tuple(ints)
        self.coords = coords

    @classmethod
    def from_integers(cls, parent: LieAlgebra, den, ints) -> "Element":
        """The element with coordinates ``ints`` / ``den``, for a nonzero
        integer ``den`` and ``parent.dim`` integers."""
        if not den:
            raise DomainError("zero denominator")
        if len(ints) != parent.dim:
            raise DomainError("coordinate length does not match algebra dimension")
        g = gcd(den, *ints) if den != 1 else 1
        if den < 0:
            g = -g
        x = object.__new__(cls)
        x.parent = parent
        x.den = den // g
        x.ints = tuple(ints) if g == 1 else tuple([a // g for a in ints])
        return x

    def __getattr__(self, name):
        # ``coords`` is the only slot left unset, by ``from_integers``
        if name != "coords":
            raise AttributeError(name)
        self.coords = _fractions(self.ints, self.den)
        return self.coords

    def nonzeros(self):
        """The pairs (i, ints[i]) for the nonzero integer coordinates."""
        return [(i, a) for i, a in enumerate(self.ints) if a]

    def __add__(self, other):
        if other.parent is not self.parent:
            raise DomainError("mixed parents")
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return Element.from_integers(
            self.parent, den, [fa * a + fb * b for a, b in zip(self.ints, other.ints)]
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element.from_integers(self.parent, self.den, [-a for a in self.ints])

    def __mul__(self, scalar):
        s = scalar if isinstance(scalar, (int, Fraction)) else as_rational(scalar)
        return Element.from_integers(
            self.parent, self.den * s.denominator, [s.numerator * a for a in self.ints]
        )

    __rmul__ = __mul__

    def is_zero(self):
        return not any(self.ints)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.parent is self.parent
            and other.den == self.den
            and other.ints == self.ints
        )

    def __hash__(self):
        return hash((id(self.parent), self.den, self.ints))

    def __repr__(self):
        terms = [
            f"{c}*{self.parent.labels[i]}" for i, c in enumerate(self.coords) if c != 0
        ]
        return "Element(" + (" + ".join(terms) if terms else "0") + ")"


class Subspace:
    """Subspace of a Lie algebra in canonical reduced row echelon form."""

    __slots__ = ("parent", "basis")

    def __init__(self, parent: LieAlgebra, basis: RationalMatrix):
        canon = row_space(basis) if basis.rows else basis
        self.parent = parent
        self.basis = canon

    @property
    def dim(self):
        return self.basis.rows

    def basis_elements(self):
        return [Element.from_integers(self.parent, self.basis.den, row) for row in self.basis.ints]

    def contains(self, x) -> bool:
        return self.coordinates_of(x) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(x) for x in other.basis_elements())

    def coordinates_of(self, x):
        """Coordinates of x over the basis rows, or None when x lies outside."""
        at, rest = self._projection(x)
        return None if any(rest) else at

    def residual(self, x):
        """x less the combination of the basis rows at its pivot entries:
        zero exactly when x lies inside."""
        return self._projection(x)[1]

    def _projection(self, x):
        """``reduced_projection`` of x, an Element or a coordinate vector."""
        den, ints = (x.den, x.ints) if isinstance(x, Element) else _integer_row(x)
        return reduced_projection(self.basis, ints, den)

    def intersect(self, other: "Subspace") -> "Subspace":
        return Subspace(self.parent, intersect_row_spaces(self.basis, other.basis))

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(self.parent, sum_row_spaces(self.basis, other.basis))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.parent is self.parent
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((id(self.parent), self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.parent.dim})"


# ---------------------------------------------------------------------------
# classical algebras


def _sl_basis_labels(n):
    labels = []
    mats = []
    for i in range(n):
        for j in range(n):
            if i != j:
                labels.append(f"e{i + 1}{j + 1}")
                m = [[_ZERO] * n for _ in range(n)]
                m[i][j] = _ONE
                mats.append(RationalMatrix(m))
    for i in range(n - 1):
        labels.append(f"h{i + 1}")
        m = [[_ZERO] * n for _ in range(n)]
        m[i][i] = _ONE
        m[i + 1][i + 1] = -_ONE
        mats.append(RationalMatrix(m))
    return labels, mats


def _so_basis_labels(n):
    labels = []
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            labels.append(f"a{i + 1}{j + 1}")
            m = [[_ZERO] * n for _ in range(n)]
            m[i][j] = _ONE
            m[j][i] = -_ONE
            mats.append(RationalMatrix(m))
    return labels, mats


def _sp_basis_labels(n):
    # standard form J = [[0, I], [-I, 0]]; X = [[A, B], [C, -A^T]], B, C symmetric
    m_half = n // 2
    labels = []
    mats = []

    def blank():
        return [[_ZERO] * n for _ in range(n)]

    for i in range(m_half):
        for j in range(m_half):
            mm = blank()
            mm[i][j] = _ONE
            mm[m_half + j][m_half + i] = -_ONE
            labels.append(f"a{i + 1}{j + 1}")
            mats.append(RationalMatrix(mm))
    for i in range(m_half):
        for j in range(i, m_half):
            mm = blank()
            mm[i][m_half + j] = _ONE
            mm[j][m_half + i] = _ONE
            labels.append(f"b{i + 1}{j + 1}")
            mats.append(RationalMatrix(mm))
    for i in range(m_half):
        for j in range(i, m_half):
            mm = blank()
            mm[m_half + i][j] = _ONE
            mm[m_half + j][i] = _ONE
            labels.append(f"c{i + 1}{j + 1}")
            mats.append(RationalMatrix(mm))
    return labels, mats


def algebra_from_matrices(labels, mats, cartan_indices=None, check=True) -> LieAlgebra:
    """Structure constants computed from commutators of the given matrices."""
    solver = LinearSolver(_flattened(mats).transpose())
    table = {}
    dim = len(mats)
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = mats[i] * mats[j] - mats[j] * mats[i]
            coords = solver.solve([a for row in comm.ints for a in row], comm.den)
            if coords is None:
                raise DomainError("matrix family is not closed under commutators")
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                table[(i, j)] = entry
    return LieAlgebra(labels, table, realization=mats, cartan_indices=cartan_indices, check=check)


@lru_cache(maxsize=None)
def build_classical(kind: str, n: int) -> LieAlgebra:
    """sl_n, so_n or sp_n (n even) with its defining matrix realization."""
    if kind == "sl":
        if n < 2:
            raise DomainError("sl_n needs n >= 2")
        labels, mats = _sl_basis_labels(n)
        cartan = tuple(range(n * (n - 1), n * (n - 1) + n - 1))
    elif kind == "so":
        if n < 3:
            raise DomainError("so_n needs n >= 3")
        labels, mats = _so_basis_labels(n)
        cartan = None
    elif kind == "sp":
        if n < 2 or n % 2:
            raise DomainError("sp_n needs even n >= 2")
        labels, mats = _sp_basis_labels(n)
        m_half = n // 2
        cartan = tuple(i * m_half + i for i in range(m_half))  # the a_ii diagonal block
    else:
        raise DomainError(f"unknown classical kind {kind!r}")
    return algebra_from_matrices(labels, mats, cartan_indices=cartan)


# -- the 14-dimensional exceptional algebra

_G2_CARTAN = ((2, -3), (-1, 2))  # C[i][j] = <alpha_j, alpha_i^vee>, alpha_1 short
_G2_POSITIVE = ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))


def _g2_norm2(root):
    # (a, a) = 2, (b, b) = 6, (a, b) = -3 for short simple a, long simple b
    c1, c2 = root
    return 2 * c1 * c1 + 6 * c2 * c2 - 6 * c1 * c2


def _g2_roots():
    pos = [tuple(r) for r in _G2_POSITIVE]
    return pos + [(-a, -b) for (a, b) in pos]


def _g2_structure(sign):
    """Chevalley structure constants for the rank-2, 12-root algebra.

    Base signs are fixed on one pair per decomposable positive root; the one
    remaining free sign is the argument, and the Jacobi check at build time
    arbitrates it.
    """
    roots = _g2_roots()
    rootset = set(roots)

    def is_root(r):
        return r in rootset

    def add(x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(x):
        return (-x[0], -x[1])

    def pstr(alpha, beta):
        # longest k with beta - k*alpha a root
        k = 0
        cur = beta
        while True:
            cur = (cur[0] - alpha[0], cur[1] - alpha[1])
            if is_root(cur):
                k += 1
            else:
                return k

    a, b = (1, 0), (0, 1)
    base = {
        (a, b): 1,
        (a, (1, 1)): 1,
        (a, (2, 1)): 1,
        (b, (3, 1)): 1,
        ((1, 1), (2, 1)): sign,
    }
    n_table = {}
    for (al, be), s in base.items():
        n_table[(al, be)] = s * (pstr(al, be) + 1)
        n_table[(be, al)] = -n_table[(al, be)]
    for (al, be), v in list(n_table.items()):
        n_table[(neg(al), neg(be))] = -v

    def lookup(al, be):
        if (al, be) in n_table:
            return n_table[(al, be)]
        ga = neg(add(al, be))
        # one cyclic pair of (al, be, ga) has both members of equal sign
        if (be, ga) in n_table:
            val = Fraction(n_table[(be, ga)] * _g2_norm2(ga), _g2_norm2(al))
        elif (ga, al) in n_table:
            val = Fraction(n_table[(ga, al)] * _g2_norm2(ga), _g2_norm2(be))
        else:
            raise InternalCheckError("structure constant relations do not close")
        if val.denominator != 1:
            raise InternalCheckError("non-integral structure constant")
        n_table[(al, be)] = int(val)
        n_table[(be, al)] = -int(val)
        n_table[(neg(al), neg(be))] = -int(val)
        n_table[(neg(be), neg(al))] = int(val)
        return n_table[(al, be)]

    labels = ["h1", "h2"] + [
        ("x" if r in _G2_POSITIVE else "y") + f"{roots.index(r) % 6 + 1}" for r in roots
    ]
    index_of_root = {r: 2 + i for i, r in enumerate(roots)}

    def pairing(root, i):
        # <root, alpha_i^vee>
        return sum(root[j] * _G2_CARTAN[i][j] for j in range(2))

    def coroot_coords(root):
        # root^vee over (alpha_1^vee, alpha_2^vee)
        return tuple(
            Fraction(root[j] * _g2_norm2((1, 0) if j == 0 else (0, 1)), _g2_norm2(root))
            for j in range(2)
        )

    table = {}

    def put(i, j, data):
        if i == j or not data:
            return
        if i < j:
            table[(i, j)] = {k: v for k, v in data.items() if v != 0}
        else:
            table[(j, i)] = {k: -v for k, v in data.items() if v != 0}

    for i in range(2):
        for r in roots:
            put(i, index_of_root[r], {index_of_root[r]: Fraction(pairing(r, i))})
    for r in roots:
        for s in roots:
            ir, js = index_of_root[r], index_of_root[s]
            if ir >= js:
                continue
            total = add(r, s)
            if total == (0, 0):
                cr = coroot_coords(r)
                put(ir, js, {0: cr[0], 1: cr[1]})
            elif is_root(total):
                put(ir, js, {index_of_root[total]: Fraction(lookup(r, s))})
    return labels, table


@lru_cache(maxsize=None)
def build_g2() -> LieAlgebra:
    """The 14-dimensional simple algebra with 12 roots and rank 2.

    Built from its root system with Chevalley-normalized constants; the sign
    choice left open by the normalization is resolved by the exhaustive
    Jacobi check, and the root-space decomposition is re-derived from the
    adjoint action as an independent validation.  The adjoint representation
    serves as the faithful matrix realization.
    """
    last_error = None
    for sign in (1, -1):
        labels, table = _g2_structure(sign)
        try:
            no_real = LieAlgebra(labels, table, realization=None, cartan_indices=(0, 1))
        except InternalCheckError as exc:
            last_error = exc
            continue
        ads = [no_real.ad_basis(i) for i in range(14)]
        algebra = LieAlgebra(labels, table, realization=ads, cartan_indices=(0, 1))
        _validate_g2(algebra)
        return algebra
    raise InternalCheckError(f"no consistent sign assignment found: {last_error}")


def _validate_g2(g):
    for c1, c2 in ((3, 2), (1, 2), (2, 7)):
        dims = {lam: basis.rows for lam, basis in eigenspaces(g.ad(g.element([c1, c2] + [0] * 12)))}
        # 12 distinct root values and a 2-dimensional kernel fill the 14
        # dimensions: the adjoint action is semisimple
        if len(dims) == 13 and dims.get(0) == 2 and sum(dims.values()) == 14:
            return
    raise InternalCheckError("root-space decomposition of the built algebra is wrong")


@lru_cache(maxsize=None)
def build_product(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """Direct sum with blockwise bracket and block-diagonal realization."""
    d1 = g1.dim
    labels = [f"L.{l}" for l in g1.labels] + [f"R.{l}" for l in g2.labels]
    table = {}
    for (i, j), data in g1.table.items():
        table[(i, j)] = dict(data)
    for (i, j), data in g2.table.items():
        table[(d1 + i, d1 + j)] = {d1 + k: c for k, c in data.items()}
    realization = None
    if g1.realization is not None and g2.realization is not None:
        s1 = g1.realization[0].rows
        s2 = g2.realization[0].rows
        # the factors' integer rows, padded with zeros
        pad1, pad2 = (0,) * s1, (0,) * s2
        blank = (pad1 + pad2,)
        realization = [
            RationalMatrix.from_integers(m.den, tuple(r + pad2 for r in m.ints) + blank * s2)
            for m in g1.realization
        ] + [
            RationalMatrix.from_integers(m.den, blank * s1 + tuple(pad1 + r for r in m.ints))
            for m in g2.realization
        ]
    cartan = None
    if g1.cartan_indices is not None and g2.cartan_indices is not None:
        cartan = tuple(g1.cartan_indices) + tuple(d1 + i for i in g2.cartan_indices)
    # factors were Jacobi-checked; cross-factor brackets vanish structurally
    return LieAlgebra(labels, table, realization=realization, cartan_indices=cartan, check=False)


# ---------------------------------------------------------------------------
# Jordan-Chevalley decomposition and classification


def jordan_chevalley(x: Element) -> tuple[Element, Element]:
    """Split x = s + n with s semisimple, n nilpotent, [s, n] = 0.

    On the integer matrix M = D·realize(x), with P its minimal polynomial
    and q the squarefree part of P (both monic integer), x is semisimple
    when q = P.  Otherwise the Newton iteration y <- y - q(y) u(y), with
    u q' = 1 mod q, runs in Q[x]/(P) from y = x to S, and s is S(M) / D.
    No eigenvalues are extracted.
    """
    g = x.parent
    if g.realization is None:
        raise DomainError("Jordan-Chevalley split needs a matrix realization")
    real = g.realize(x)
    m = real * real.den
    p = min_poly(m)
    q = squarefree_part(p)
    if q == p:  # q divides p, so q(M) = 0 exactly when q = p
        return x, g.zero()
    u = _inverse_mod(q.derivative(), q)
    y = Polynomial([0, 1])
    for _ in range(len(bin(p.degree)) + 2):
        qy = _compose_mod(q, y, p)
        if qy.is_zero():
            break
        y = (y - qy * _compose_mod(u, y, p)) % p
    else:
        raise InternalCheckError("Newton iteration for the semisimple part did not converge")
    s = g.from_realization(matrix_polynomial(y, m) * Fraction(1, real.den))
    return s, x - s


def _compose_mod(f: Polynomial, y: Polynomial, modulus: Polynomial) -> Polynomial:
    """f(y) mod modulus, by Horner."""
    acc = Polynomial([])
    for c in reversed(f.coeffs):
        acc = (acc * y + Polynomial([c])) % modulus
    return acc


def _inverse_mod(f: Polynomial, modulus: Polynomial) -> Polynomial:
    """u with u*f = 1 mod modulus, for coprime f, modulus."""
    r0, r1 = modulus, f % modulus
    s0, s1 = Polynomial([]), Polynomial([1])
    while not r1.is_zero():
        quot, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quot * s1
    if r0.degree != 0:
        raise InternalCheckError("polynomials are not coprime")
    return s0 * (1 / r0.leading()) % modulus


def classify_element(x: Element) -> str:
    """'zero', 'nilpotent', 'semisimple' or 'mixed', from the realization."""
    if x.is_zero():
        return "zero"
    g = x.parent
    if g.realization is None:
        raise DomainError("classification needs a matrix realization")
    p = min_poly(g.realize(x))
    if not any(p.coeffs[:-1]):
        return "nilpotent"
    if is_squarefree(p):
        return "semisimple"
    return "mixed"


def centralizer_in(x: Element, v: Subspace) -> Subspace:
    """{y in v | [x, y] = 0} as a canonical subspace."""
    g = x.parent
    if v.parent is not g:
        raise DomainError("element and subspace live in different algebras")
    if v.dim == 0:
        return v
    # the kernel K of the brackets of x with the integer basis rows gives the
    # centralizer as K·basis, which is in reduced echelon form as K and the
    # basis are
    xs = x.nonzeros()
    images = [
        g._integer_bracket(xs, [(i, e) for i, e in enumerate(row) if e]) for row in v.basis.ints
    ]
    ker = nullspace(RationalMatrix.from_integers(1, [col for col in zip(*images) if any(col)], v.dim))
    return Subspace(g, ker * v.basis)


def centralizer_of_subspace(w: Subspace, v: Subspace) -> Subspace:
    """{y in v | [x, y] = 0 for all x in w}."""
    out = v
    for x in w.basis_elements():
        out = centralizer_in(x, out)
    return out


def normalizer_dimension(sub: Subspace, elements) -> int:
    """dim{y in span(elements) : [y, sub] ⊆ sub} for independent
    ``elements``: their number less the rank of the residuals of their
    brackets with the basis of ``sub``."""
    g = sub.parent
    basis = sub.basis_elements()
    rows = [
        list(itertools.chain.from_iterable(sub.residual(g.bracket(y, b)) for b in basis))
        for y in elements
    ]
    return len(rows) - rank(RationalMatrix(rows))
