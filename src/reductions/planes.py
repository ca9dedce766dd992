"""Planes in the anisotropic space: Plücker coordinates, the abelian-
subalgebra membership test, the exterior Killing quadric, and the pinched
linear families of the plane Grassmannian.

A plane is stored in reduced row echelon form over the canonical basis of p,
so two planes are equal exactly when their matrices are.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .errors import DomainError, InternalCheckError
from .exact import RationalMatrix, combine_rows, in_row_space, nullspace, rank, row_space
from .liealg import Element, Subspace, jordan_chevalley
from .pairs import SymmetricPair, singular_kernels

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Plane:
    """Subspace of p in canonical form, with Plücker vector on demand."""

    __slots__ = ("pair", "matrix", "_plucker")

    def __init__(self, pair: SymmetricPair, matrix: RationalMatrix):
        canon = row_space(matrix)
        if canon.rows != matrix.rows:
            raise DomainError("plane basis rows are dependent")
        self.pair = pair
        self.matrix = canon
        self._plucker = None

    @property
    def dim(self):
        return self.matrix.rows

    def basis_elements(self):
        return [self.pair.from_p_coords(row) for row in self.matrix.entries]

    def to_subspace(self) -> Subspace:
        return self.pair.g.subspace(self.basis_elements())

    def contains(self, x: Element) -> bool:
        try:
            coords = self.pair.to_p_coords(x)
        except DomainError:
            return False
        return in_row_space(self.matrix, coords)

    def contains_subspace(self, sub: Subspace) -> bool:
        return all(self.contains(e) for e in sub.basis_elements())

    def plucker(self) -> "PluckerVector":
        if self._plucker is None:
            self._plucker = PluckerVector.from_matrix(self.matrix)
        return self._plucker

    def __eq__(self, other):
        return (
            isinstance(other, Plane)
            and other.pair is self.pair
            and other.matrix == self.matrix
        )

    def __hash__(self):
        return hash((id(self.pair), self.matrix))

    def __repr__(self):
        return f"Plane(dim={self.dim} in p^{self.pair.p.dim})"


class PluckerVector:
    """Maximal minors of a plane basis, scaled so the first nonzero
    coordinate (in lexicographic index order) is one."""

    __slots__ = ("n", "r", "coords")

    def __init__(self, n, r, coords):
        self.n = n
        self.r = r
        items = sorted(coords.items())
        lead = next((v for _, v in items if v != 0), None)
        if lead is None:
            raise DomainError("zero Plücker vector")
        self.coords = {k: v / lead for k, v in items if v != 0}

    @staticmethod
    def from_matrix(matrix: RationalMatrix) -> "PluckerVector":
        r, n = matrix.rows, matrix.cols
        coords = {}
        for combo in itertools.combinations(range(n), r):
            sub = RationalMatrix([[matrix.entries[i][j] for j in combo] for i in range(r)])
            coords[combo] = sub.det()
        return PluckerVector(n, r, coords)

    def proportional_to(self, other: "PluckerVector") -> bool:
        return self.n == other.n and self.r == other.r and self.coords == other.coords

    def __eq__(self, other):
        return isinstance(other, PluckerVector) and self.proportional_to(other)

    def __repr__(self):
        return f"PluckerVector(G({self.r},{self.n}), {len(self.coords)} nonzero)"


def plane_from_basis(pair: SymmetricPair, vectors) -> Plane:
    """Canonical plane through the given independent elements of p."""
    rows = []
    for v in vectors:
        if isinstance(v, Element):
            rows.append(list(pair.to_p_coords(v)))
        else:
            rows.append(list(v))
    return Plane(pair, RationalMatrix(rows))


def plane_from_subspace(pair: SymmetricPair, sub: Subspace) -> Plane:
    return plane_from_basis(pair, sub.basis_elements())


def cartan_plane(pair: SymmetricPair) -> Plane:
    return plane_from_subspace(pair, pair.cartan)


def is_anisotropic_subalgebra(u: Plane) -> bool:
    """True iff all pairwise brackets of a basis vanish: membership of the
    decomposable point in the kernel section cutting out abelian subalgebras."""
    els = u.basis_elements()
    g = u.pair.g
    return all(
        g.bracket(x, y).is_zero() for x, y in itertools.combinations(els, 2)
    )


def exterior_killing_value(u: Plane) -> Fraction:
    """Determinant of the Killing Gram matrix of the canonical basis.

    Changes by a nonzero square under base change, so vanishing is
    basis-independent: this is the quadric cutting out degenerate planes."""
    els = u.basis_elements()
    g = u.pair.g
    gram = RationalMatrix([[g.killing(x, y) for y in els] for x in els])
    return gram.det()


def semisimple_part_matrix(u: Plane) -> RationalMatrix:
    """Rows are the semisimple parts of the canonical basis, in g coordinates.

    On an abelian plane the Chevalley-Jordan split is linear, so this matrix
    represents the semisimple-part map; its kernel is the nilpotent part."""
    if not is_anisotropic_subalgebra(u):
        raise DomainError("semisimple-part map is linear only on abelian planes")
    rows = []
    for x in u.basis_elements():
        s, _ = jordan_chevalley(x)
        rows.append(list(s.coords))
    return RationalMatrix(rows)


def _kernel_dim(mat: RationalMatrix) -> int:
    return mat.rows - rank(mat)


def semisimple_nilpotent_split(u: Plane) -> tuple[Subspace, Subspace]:
    """(span of semisimple parts, nilpotent elements of u) for abelian u.

    The first subspace lies inside u exactly when u is closed under the
    Chevalley-Jordan decomposition."""
    g = u.pair.g
    smat = semisimple_part_matrix(u)
    s_span = g.subspace([row for row in smat.entries if any(row)])
    nil_rows = [
        u.pair.from_p_coords(combine_rows(combo, u.matrix))
        for combo in nullspace(smat.transpose()).entries
    ]
    n_span = g.subspace(nil_rows) if nil_rows else Subspace(g, RationalMatrix.zero(0, g.dim))
    return s_span, n_span


def is_cj_closed(u: Plane) -> bool:
    """Does u contain the semisimple (hence nilpotent) part of each element?"""
    sub = u.to_subspace()
    smat = semisimple_part_matrix(u)
    return all(sub.contains(row) for row in smat.entries)


def is_special_reduction(u: Plane, known_in_r: bool) -> bool:
    """Killing-quadric membership for a plane known to be a limit of Cartan
    subspaces, cross-checked against the contains-a-nilpotent test.

    The two criteria must agree on every abelian plane; disagreement would
    falsify the structure theory and is a hard error.  Membership of an
    arbitrary plane in the closure is not decidable here, hence the flag.
    """
    if not known_in_r:
        raise DomainError(
            "caller must certify membership in the closure of the Cartan-subspace "
            "family; no general membership test exists"
        )
    gram_zero = exterior_killing_value(u) == 0
    nilp = _kernel_dim(semisimple_part_matrix(u)) > 0
    if gram_zero != nilp:
        raise InternalCheckError(
            "Killing-quadric and nilpotent-element tests disagree on a plane in the closure"
        )
    return gram_zero


class GammaFamily:
    """Planes pinched between two fixed subspaces: {u | v ⊂ u ⊂ w}.

    The family has dimension dim(u/v)·dim(w/u) and is a linear subspace of
    the Plücker embedding exactly when one of those factors is at most 1.
    """

    def __init__(self, pair: SymmetricPair, v: Subspace, w: Subspace, r: int):
        if not w.contains_subspace(v):
            raise DomainError("lower subspace must sit inside the upper one")
        if not pair.p.contains_subspace(w):
            raise DomainError("upper subspace must lie in p")
        if not (v.dim <= r <= w.dim):
            raise DomainError("no planes of the requested dimension fit the pinch")
        self.pair = pair
        self.v = v
        self.w = w
        self.r = r
        self.below = r - v.dim
        self.above = w.dim - r

    @property
    def dim(self):
        return self.below * self.above

    @property
    def is_linear(self):
        return self.below <= 1 or self.above <= 1

    def is_point(self):
        return self.dim == 0

    def contains(self, u: Plane) -> bool:
        sub = u.to_subspace()
        return (
            u.dim == self.r
            and sub.contains_subspace(self.v)
            and self.w.contains_subspace(sub)
        )

    def sample(self, rng: random.Random) -> Plane:
        """A uniform-ish random member with small rational coordinates."""
        for _ in range(64):
            rows = list(self.v.basis.entries)
            extra = []
            for _ in range(self.below):
                coords = [rng.randint(-4, 4) for _ in range(self.w.dim)]
                extra.append(combine_rows(coords, self.w.basis))
            candidate = self.pair.g.subspace([*rows, *extra])
            if candidate.dim == self.r:
                return plane_from_subspace(self.pair, candidate)
        raise DomainError("sampling the family kept hitting degenerate draws")

    def base_plane(self) -> Plane | None:
        if self.is_point():
            return plane_from_subspace(self.pair, self.v)
        return None

    def __repr__(self):
        return f"GammaFamily(dim={self.dim}, linear={self.is_linear})"


def gamma_subspace(pair: SymmetricPair, v: Subspace, w: Subspace, r=None) -> GammaFamily:
    return GammaFamily(pair, v, w, pair.rank if r is None else r)


def maximal_linear_through(a: Plane, rng=None, samples=4):
    """The pinched families Γ(z, c_p(z)) over the singular root kernels of an
    ordinary reduction a, each verified to consist of abelian planes and to
    meet the others exactly in a.
    """
    pair = a.pair
    rng = rng or random.Random(0)
    a_sub = a.to_subspace()
    kernels = singular_kernels(pair)
    families = []
    for sk in kernels:
        fam = GammaFamily(pair, sk.kernel, sk.centralizer_in_p, pair.rank)
        if not fam.contains(a):
            raise InternalCheckError("family through a root kernel misses its base point")
        for _ in range(samples):
            member = fam.sample(rng)
            if not is_anisotropic_subalgebra(member):
                raise InternalCheckError("a pinched family member is not an abelian subalgebra")
        families.append(fam)
    for f1, f2 in itertools.combinations(families, 2):
        lower = f1.v.add(f2.v)
        upper = f1.w.intersect(f2.w)
        if lower != a_sub or upper != a_sub:
            raise InternalCheckError("two maximal families meet in more than the base point")
    return families


def anticanonical_degrees(a: Plane, rng=None):
    """Per maximal family through a general point: its dimension m and the
    intersection number m + 1 of the anticanonical class with its lines."""
    fams = maximal_linear_through(a, rng=rng)
    return [(f.dim, f.dim + 1) for f in fams]
