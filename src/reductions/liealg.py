"""Lie algebras by structure constants, with faithful matrix realizations.

An algebra stores a sparse bracket table over a labeled basis plus, when
available, one realization matrix per basis vector; consistency of the table
with the realization and the Jacobi identity are verified at construction.
Jordan-Chevalley decompositions are computed in the realization by the exact
Newton iteration on the squarefree part of the minimal polynomial, then
pulled back to coordinates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (
    DomainError,
    InternalCheckError,
    IrrationalSpectrumError,
)
from .exact import (
    LinearSolver,
    Polynomial,
    RationalMatrix,
    _combination,
    _fractions,
    _gcd_int,
    _integer_rows,
    integer_roots,
    intersect_row_spaces,
    is_squarefree,
    min_poly,
    nullspace,
    row_space,
    rref,
    shifted,
    sum_row_spaces,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    ``table[(i, j)]`` maps basis pair (i < j) to a sparse dict {k: c} with
    [e_i, e_j] = sum c * e_k.  ``realization`` is an optional list of matrices
    (one per basis vector) with commutators matching the table.

    Brackets and realizations run over integers: at construction the table
    is copied once as integer rows of both orders, (i, j) -> ((k, L·c), ...)
    and (j, i) -> the negated entries, with L the least common denominator
    of all structure constants; the first ``realize`` copies each
    realization matrix as its integer nonzeros over one common denominator.  An argument is scaled once to
    (den, integer nonzeros), the products accumulate as integers, and each
    nonzero output coordinate is one ``Fraction`` over the product of the
    denominators.  ``SymmetricPair.from_p_coords`` and ``centralizer_in``
    combine integer rows (of p, of the subspace) the same way.  Results are
    tuples of ``Fraction`` as before.
    """

    def __init__(self, labels, table, realization=None, cartan_indices=None, check=True):
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        self.table = {k: dict(v) for k, v in table.items() if v}
        self.realization = tuple(realization) if realization is not None else None
        self.cartan_indices = tuple(cartan_indices) if cartan_indices is not None else None
        self._ad_cache: dict[int, RationalMatrix] = {}
        self._killing = None
        self._realization_solver = None
        self._int_den, self._int_rows = _integer_table(self.dim, self.table)
        self._int_realization = None  # built by the first realize
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
        for i, j, k in itertools.combinations(range(self.dim), 3):
            acc = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self._basis_bracket(a, b)
                for m, cm in inner.items():
                    for l, cl in self._basis_bracket_list(m, c):
                        acc[l] = acc.get(l, _ZERO) + cm * cl
            if any(v != 0 for v in acc.values()):
                raise InternalCheckError(
                    f"Jacobi identity fails on basis triple ({i}, {j}, {k})"
                )

    def _check_realization(self):
        if len(self.realization) != self.dim:
            raise DomainError("realization size mismatch")
        flat = RationalMatrix([list(m.vec()) for m in self.realization])
        if len(rref(flat)[1]) < self.dim:
            raise DomainError("realization is not faithful")
        # each matrix as its nonzeros (a, b, v)
        nonzeros = [
            [(a, b, v) for a, row in enumerate(m.entries) for b, v in enumerate(row) if v]
            for m in self.realization
        ]
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                mi, mj = self.realization[i], self.realization[j]
                # m_i m_j - m_j m_i - sum_k c_ij^k m_k in one buffer, subtracting
                # over the nonzeros of m_j m_i and of each m_k
                comm = [list(row) for row in (mi * mj).entries]
                for a, row in enumerate((mj * mi).entries):
                    for b, v in enumerate(row):
                        if v:
                            comm[a][b] -= v
                for k, c in self.table.get((i, j), {}).items():
                    for a, b, v in nonzeros[k]:
                        comm[a][b] -= c * v
                if any(any(row) for row in comm):
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

    def _basis_bracket_list(self, i, j):
        return self._basis_bracket(i, j).items()

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def basis_element(self, i) -> "Element":
        coords = [_ZERO] * self.dim
        coords[i] = _ONE
        return Element._trusted(self, tuple(coords))

    def zero(self) -> "Element":
        return Element._trusted(self, (_ZERO,) * self.dim)

    def bracket(self, x: "Element", y: "Element") -> "Element":
        if x.parent is not self or y.parent is not self:
            raise DomainError("bracket of elements with different parents")
        return Element._trusted(self, self._bracket_scaled(_scaled_nonzeros(x.coords), y.coords))

    def _bracket_scaled(self, scaled_x, y_coords):
        """Coordinates of [x, y], x given once scaled by ``_scaled_nonzeros``."""
        dx, xs = scaled_x
        dy, ys = _scaled_nonzeros(y_coords)
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
        return _fractions(acc, dx * dy * self._int_den)

    def ad(self, x: "Element") -> RationalMatrix:
        """Matrix of ad(x) on the algebra's own basis (columns = images)."""
        cols = []
        for j in range(self.dim):
            img = self.bracket(x, self.basis_element(j))
            cols.append(img.coords)
        return RationalMatrix._trusted(tuple(zip(*cols)))

    def ad_basis(self, i) -> RationalMatrix:
        if i not in self._ad_cache:
            self._ad_cache[i] = self.ad(self.basis_element(i))
        return self._ad_cache[i]

    def killing_matrix(self) -> RationalMatrix:
        """Gram matrix of the Killing form on the basis, from the ad action."""
        if self._killing is None:
            ads = [self.ad_basis(i).entries for i in range(self.dim)]
            n = self.dim
            rows = []
            for i in range(n):
                # trace(ad e_i · ad e_j) over the nonzeros of ad e_i
                nz = [(a, b, v) for a, row in enumerate(ads[i]) for b, v in enumerate(row) if v]
                row = []
                for j in range(n):
                    aj = ads[j]
                    acc = _ZERO
                    for a, b, v in nz:
                        w = aj[b][a]
                        if w:
                            acc += v * w
                    row.append(acc)
                rows.append(row)
            self._killing = RationalMatrix(rows)
        return self._killing

    def killing(self, x: "Element", y: "Element") -> Fraction:
        if x.parent is not self or y.parent is not self:
            raise DomainError("Killing form of elements with different parents")
        km = self.killing_matrix().entries
        ys = [(j, yj) for j, yj in enumerate(y.coords) if yj]
        acc = _ZERO
        for i, xi in enumerate(x.coords):
            if xi:
                row = km[i]
                for j, yj in ys:
                    k = row[j]
                    if k:
                        acc += xi * k * yj
        return acc

    # -- realization helpers

    def realize(self, x: "Element") -> RationalMatrix:
        if self.realization is None:
            raise DomainError("algebra has no matrix realization")
        size = self.realization[0].rows
        if self._int_realization is None:
            self._int_realization = _integer_matrices(self.realization)
        rden, mats = self._int_realization
        dx, xs = _scaled_nonzeros(x.coords)
        acc = [0] * (size * size)
        for i, a in xs:
            for pos, e in mats[i]:
                acc[pos] += a * e
        flat = _fractions(acc, dx * rden)
        return RationalMatrix._trusted(tuple(flat[r:r + size] for r in range(0, size * size, size)))

    def from_realization(self, mat: RationalMatrix) -> "Element":
        """Element whose realization is mat; error when mat is outside."""
        if self._realization_solver is None:
            flat = RationalMatrix([list(m.vec()) for m in self.realization])
            self._realization_solver = LinearSolver(flat.transpose())
        coords = self._realization_solver.solve(mat.vec())
        if coords is None:
            raise InternalCheckError("matrix does not lie in the realized algebra")
        return Element._trusted(self, coords)

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


def _integer_matrices(mats):
    """(L, per matrix its nonzeros (flat position, L·e)), L the least common
    denominator of all entries."""
    nonzeros = [
        [(a * m.cols + b, e) for a, row in enumerate(m.entries) for b, e in enumerate(row) if e]
        for m in mats
    ]
    den = lcm(*(e.denominator for nz in nonzeros for _, e in nz))
    return den, [tuple((pos, e.numerator * (den // e.denominator)) for pos, e in nz) for nz in nonzeros]


def _scaled_nonzeros(coords):
    """(d, [(i, d·c_i) for every nonzero c_i]), d the least common
    denominator of the nonzero coordinates."""
    nz = [(i, c) for i, c in enumerate(coords) if c]
    den = lcm(*[c.denominator for _, c in nz])
    if den == 1:
        return 1, [(i, c.numerator) for i, c in nz]
    return den, [(i, c.numerator * (den // c.denominator)) for i, c in nz]


class Element:
    """Vector of coordinates over its parent algebra's basis.

    The public constructor coerces the coordinates with ``Fraction`` and
    checks their number; ``_trusted`` takes a tuple of ``parent.dim``
    Fractions as it is, for the results of the operations below.
    """

    __slots__ = ("parent", "coords")

    def __init__(self, parent: LieAlgebra, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != parent.dim:
            raise DomainError("coordinate length does not match algebra dimension")
        self.parent = parent
        self.coords = coords

    @classmethod
    def _trusted(cls, parent: LieAlgebra, coords: tuple) -> "Element":
        x = object.__new__(cls)
        x.parent = parent
        x.coords = coords
        return x

    def __add__(self, other):
        if other.parent is not self.parent:
            raise DomainError("mixed parents")
        return Element._trusted(self.parent, tuple([a + b for a, b in zip(self.coords, other.coords)]))

    def __sub__(self, other):
        if other.parent is not self.parent:
            raise DomainError("mixed parents")
        return Element._trusted(self.parent, tuple([a - b for a, b in zip(self.coords, other.coords)]))

    def __neg__(self):
        return Element._trusted(self.parent, tuple([-a for a in self.coords]))

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            return Element._trusted(self.parent, tuple([a * scalar for a in self.coords]))
        return Element(self.parent, [a * scalar for a in self.coords])

    __rmul__ = __mul__

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and other.parent is self.parent
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((id(self.parent), self.coords))

    def __repr__(self):
        terms = [
            f"{c}*{self.parent.labels[i]}" for i, c in enumerate(self.coords) if c != 0
        ]
        return "Element(" + (" + ".join(terms) if terms else "0") + ")"


class Subspace:
    """Subspace of a Lie algebra in canonical reduced row echelon form."""

    __slots__ = ("parent", "basis", "_echelon")

    def __init__(self, parent: LieAlgebra, basis: RationalMatrix):
        canon = row_space(basis) if basis.rows else basis
        self.parent = parent
        self.basis = canon
        self._echelon = None  # (pivot columns, integer rows), on first use

    @property
    def dim(self):
        return self.basis.rows

    def basis_elements(self):
        return [Element._trusted(self.parent, row) for row in self.basis.entries]

    def contains(self, x) -> bool:
        return self.coordinates_of(x) is not None

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis.entries)

    def coordinates_of(self, x):
        """Coordinates of x over the basis rows, or None when x lies outside.
        The basis is in reduced echelon form, so they are the entries of x at
        its pivot columns, and x lies inside when they combine back to x."""
        coords = x.coords if isinstance(x, Element) else x
        if self._echelon is None:
            pivots = [next(j for j, c in enumerate(row) if c) for row in self.basis.entries]
            self._echelon = pivots, _integer_rows(self.basis.entries)
        pivots, rows = self._echelon
        out = tuple(Fraction(coords[c]) for c in pivots)
        if _combination(out, rows, self.basis.cols) != tuple(coords):
            return None
        return out

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
    solver = LinearSolver(RationalMatrix([list(m.vec()) for m in mats]).transpose())
    table = {}
    dim = len(mats)
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = mats[i] * mats[j] - mats[j] * mats[i]
            coords = solver.solve(comm.vec())
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
        h = g.element([c1, c2] + [0] * 12)
        ad = g.ad(h)
        eig = rational_eigenvalues(ad)
        nonzero = {k: v for k, v in eig.items() if k != 0}
        if len(nonzero) == 12 and all(v == 1 for v in nonzero.values()) and eig.get(0) == 2:
            if is_squarefree(min_poly(ad)):
                return  # 12 distinct root values, squarefree adjoint action
    raise InternalCheckError("root-space decomposition of the built algebra is wrong")


@lru_cache(maxsize=None)
def build_product(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """Direct sum with blockwise bracket and block-diagonal realization."""
    d1, d2 = g1.dim, g2.dim
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
        # the factors' rows are already tuples of Fraction: pad, don't coerce
        pad1, pad2 = (_ZERO,) * s1, (_ZERO,) * s2
        blank = (pad1 + pad2,)
        realization = [
            RationalMatrix._trusted(tuple(r + pad2 for r in m.entries) + blank * s2)
            for m in g1.realization
        ] + [
            RationalMatrix._trusted(blank * s1 + tuple(pad1 + r for r in m.entries))
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

    Computed in the matrix realization: Newton iteration y <- y - q(y) u(y)
    with q the squarefree part of the minimal polynomial and u q' = 1 mod q,
    then pulled back to algebra coordinates.  Entirely rational; no
    eigenvalues are extracted.
    """
    g = x.parent
    if g.realization is None:
        raise DomainError("Jordan-Chevalley split needs a matrix realization")
    m = g.realize(x)
    p = min_poly(m)
    q = p.squarefree_part()
    if q == p:  # q divides p, so q(m) = 0 exactly when q = p
        return x, g.zero()
    u = _inverse_mod(q.derivative(), q)
    y = m
    for _ in range(len(bin(p.degree)) + 2):
        qy = q(y)
        if qy.is_zero():
            break
        y = y - qy * u(y)
    else:
        raise InternalCheckError("Newton iteration for the semisimple part did not converge")
    s = g.from_realization(y)
    n = x - s
    return s, n


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
    if all(c == 0 for c in p.coeffs[:-1]):
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
    scaled_x = _scaled_nonzeros(x.coords)  # once for all the rows of v
    images = tuple(g._bracket_scaled(scaled_x, row) for row in v.basis.entries)
    ker = nullspace(RationalMatrix._trusted(images).transpose())
    if not ker.rows:
        return Subspace(g, RationalMatrix.zero(0, g.dim))
    basis = _integer_rows(v.basis.entries)
    return Subspace(g, RationalMatrix._trusted(
        tuple(_combination(combo, basis, g.dim) for combo in ker.entries)
    ))


def centralizer_of_subspace(w: Subspace, v: Subspace) -> Subspace:
    """{y in v | [x, y] = 0 for all x in w}."""
    out = v
    for x in w.basis_elements():
        out = centralizer_in(x, out)
    return out


def rational_eigenvalues(m: RationalMatrix) -> dict[Fraction, int]:
    """Eigenvalues with algebraic multiplicities; all must be rational.

    The matrix is scaled to integer entries, so roots of the (monic integer)
    minimal polynomial are integers within the Gershgorin radius; the scan is
    exact.  Raises IrrationalSpectrumError when a nonlinear factor survives.
    """
    den = 1
    for row in m.entries:
        for e in row:
            d = e.denominator
            den = den * d // _gcd_int(den, d)
    scaled = m if den == 1 else m * den
    gersh = max(
        (sum(abs(e) for e in row) for row in scaled.entries), default=Fraction(0)
    )
    p = min_poly(scaled)
    roots = integer_roots(p, bound=gersh + 1)
    if sum(roots.values()) < p.degree:
        raise IrrationalSpectrumError(
            "matrix has a minimal-polynomial factor with no rational root"
        )
    out = {}
    for lam, mult in roots.items():
        shift = shifted(scaled, lam)
        power = shift
        for _ in range(mult - 1):
            power = power * shift
        out[Fraction(lam, den)] = nullspace(power).rows
    if sum(out.values()) != m.rows:
        raise InternalCheckError("eigenvalue multiplicities do not sum to the dimension")
    return out
