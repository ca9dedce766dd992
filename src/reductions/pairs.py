"""Involutions, Cartan decompositions and restricted-root data.

A symmetric pair couples a Lie algebra with an involutive automorphism; the
+1/-1 eigenspace split k + p, a chosen Cartan subspace of p, and the joint
weight-space decomposition of the algebra under that subspace drive all the
geometry downstream.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DomainError,
    InternalCheckError,
    IrrationalSpectrumError,
    SearchExhaustedError,
)
from .exact import (
    LinearSolver,
    RationalMatrix,
    _combination,
    _integer_rows,
    combine_rows,
    is_squarefree,
    min_poly,
    nullspace,
    rat,
    shifted,
)
from .liealg import (
    Element,
    LieAlgebra,
    Subspace,
    algebra_from_matrices,
    build_classical,
    build_g2,
    build_product,
    centralizer_in,
    centralizer_of_subspace,
    classify_element,
    rational_eigenvalues,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class SymmetricPair:
    """A Lie algebra with an involution, its Cartan split and Cartan subspace."""

    def __init__(self, g: LieAlgebra, theta: RationalMatrix, cartan: Subspace, name=""):
        self.g = g
        self.theta = theta
        self.name = name or "pair"
        self._roots = None
        if (theta * theta).entries != RationalMatrix.identity(g.dim).entries:
            raise InternalCheckError("involution does not square to the identity")
        self._check_automorphism()
        self.k = Subspace(g, nullspace(shifted(theta, 1)))
        self.p = Subspace(g, nullspace(shifted(theta, -1)))
        if self.k.dim + self.p.dim != g.dim:
            raise InternalCheckError("eigenspaces of the involution do not fill the algebra")
        self._p_rows = _integer_rows(self.p.basis.entries)  # for from_p_coords
        self.cartan = cartan
        self.rank = cartan.dim
        self._check_cartan()

    def _check_automorphism(self):
        """theta[e_i, e_j] = [theta e_i, theta e_j] for every basis pair i < j;
        the left side is summed over the nonzeros of the bracket table and of
        the images theta e_k."""
        g = self.g
        cols = list(zip(*self.theta.entries))
        images = [Element._trusted(g, col) for col in cols]
        sparse = [[(r, v) for r, v in enumerate(col) if v] for col in cols]
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = [_ZERO] * g.dim
                for k, c in g.table.get((i, j), {}).items():
                    for r, v in sparse[k]:
                        lhs[r] += c * v
                if tuple(lhs) != g.bracket(images[i], images[j]).coords:
                    raise InternalCheckError(
                        f"involution is not an automorphism on basis pair ({i}, {j})"
                    )

    def _check_cartan(self):
        if not self.p.contains_subspace(self.cartan):
            raise InternalCheckError("Cartan subspace must lie in the -1 eigenspace")
        els = self.cartan.basis_elements()
        for x, y in itertools.combinations(els, 2):
            if not self.g.bracket(x, y).is_zero():
                raise InternalCheckError("Cartan subspace is not abelian")
        if self.g.realization is not None:
            for x in els:
                if classify_element(x) not in ("semisimple", "zero"):
                    raise InternalCheckError("Cartan subspace contains a non-semisimple element")

    # -- coordinates in p

    def to_p_coords(self, x: Element):
        coords = self.p.coordinates_of(x)
        if coords is None:
            raise DomainError("element does not lie in p")
        return coords

    def from_p_coords(self, coords) -> Element:
        return Element._trusted(self.g, _combination(coords, self._p_rows, self.g.dim))

    def c_p(self, x: Element) -> Subspace:
        return centralizer_in(x, self.p)

    def c_k(self, x: Element) -> Subspace:
        return centralizer_in(x, self.k)

    def roots(self) -> "RestrictedRootData":
        if self._roots is None:
            self._roots = restricted_roots(self)
        return self._roots

    def __repr__(self):
        return f"SymmetricPair({self.name}, rank={self.rank})"


# ---------------------------------------------------------------------------
# constructors


@lru_cache(maxsize=None)
def make_cartesian_square(g: LieAlgebra, name="") -> SymmetricPair:
    """The pair on g x g whose involution swaps the factors.

    k is the diagonal, p the anti-diagonal copy of g; the Cartan subspace is
    the anti-diagonal of g's distinguished Cartan subalgebra.
    """
    if g.realization is None:
        raise DomainError("factor algebra needs a matrix realization")
    if g.cartan_indices is None:
        raise DomainError("factor algebra carries no distinguished Cartan subalgebra")
    gg = build_product(g, g)
    d = g.dim
    rows = []
    for j in range(2 * d):
        col = [_ZERO] * (2 * d)
        col[(j + d) % (2 * d)] = _ONE
        rows.append(col)
    theta = RationalMatrix(rows).transpose()
    cartan_rows = []
    for i in g.cartan_indices:
        vec = [_ZERO] * (2 * d)
        vec[i] = _ONE
        vec[d + i] = -_ONE
        cartan_rows.append(vec)
    cartan = gg.subspace(cartan_rows)
    return SymmetricPair(gg, theta, cartan, name=name or "square")


@lru_cache(maxsize=None)
def make_transpose_pair(n: int) -> SymmetricPair:
    """(sl_n, so_n): the involution x -> -x^T; p is the symmetric traceless part."""
    if n < 3:
        raise DomainError("transpose pair needs n >= 3")
    g = build_classical("sl", n)
    cols = []
    for i in range(g.dim):
        m = g.realization[i]
        neg_t = RationalMatrix([[-m.entries[j][i2] for j in range(n)] for i2 in range(n)])
        cols.append(g.from_realization(neg_t).coords)
    theta = RationalMatrix(list(zip(*cols)))
    cartan = g.subspace([g.basis_element(i) for i in g.cartan_indices])
    return SymmetricPair(g, theta, cartan, name=f"transpose{n}")


def square_of(kind: str) -> SymmetricPair:
    """Named Cartesian-square pairs: sl2, sl3, sl5, sp4, g2."""
    if kind.startswith("sl"):
        g = build_classical("sl", int(kind[2:]))
    elif kind.startswith("sp"):
        g = build_classical("sp", int(kind[2:]))
    elif kind == "g2":
        g = build_g2()
    else:
        raise DomainError(f"unknown square factor {kind!r}")
    return make_cartesian_square(g, name=f"square({kind})")


def find_cartan_subspace(pair: SymmetricPair, seed=0, max_tries=64) -> Subspace:
    """Random search: the p-centralizer of a generic semisimple element of p.

    Returns an abelian, everywhere-semisimple, self-centralizing subspace of p.  The
    search resamples on unlucky draws and gives up after max_tries.
    """
    rng = random.Random(seed)
    for scale in (2, 3, 5, 7):
        for _ in range(max_tries // 4):
            coords = [rat(rng.randint(-scale, scale)) for _ in range(pair.p.dim)]
            x = pair.from_p_coords(coords)
            if x.is_zero():
                continue
            if classify_element(x) != "semisimple":
                continue
            c = pair.c_p(x)
            els = c.basis_elements()
            if any(
                not pair.g.bracket(a, b).is_zero() for a, b in itertools.combinations(els, 2)
            ):
                continue
            if any(classify_element(e) not in ("semisimple", "zero") for e in els):
                continue
            return c
    raise SearchExhaustedError("no Cartan subspace found; retry with a new seed")


# ---------------------------------------------------------------------------
# restricted roots


class RestrictedRootData:
    """Joint weight-space data of a Cartan subspace acting on the algebra.

    Roots are tuples of values on the Cartan basis.  ``g_alpha`` covers every
    root; ``p_alpha``/``k_alpha`` are indexed by positive roots and satisfy
    the double-eigenspace relations of the Cartan split.
    """

    def __init__(self, pair, roots, positive, g_alpha, p_alpha, k_alpha, m, generic):
        self.pair = pair
        self.roots = roots
        self.positive = positive
        self.g_alpha = g_alpha
        self.p_alpha = p_alpha
        self.k_alpha = k_alpha
        self.m = m
        self.generic = generic

    def multiplicities(self):
        return {alpha: self.p_alpha[alpha].dim for alpha in self.positive}

    def root_type(self) -> str:
        r = self.pair.rank
        count = len(self.roots)
        if r == 1 and count == 2:
            return "A1"
        if r == 2:
            return {4: "A1xA1", 6: "A2", 8: "B2", 12: "G2"}.get(count, "unknown")
        if r == 3 and count == 12:
            return "A3"
        if count == r * (r + 1):
            return f"A{r}"
        return "unknown"


def _generic_coefficient_families(r):
    yield tuple(range(1, r + 1))
    yield tuple(i * i for i in range(1, r + 1))
    yield tuple(3**i for i in range(r))
    yield tuple(5**i for i in range(r))


def restricted_roots(pair: SymmetricPair) -> RestrictedRootData:
    """Simultaneous eigenspace decomposition of g under the Cartan subspace.

    A deterministic combination of the Cartan basis is used as the generic
    element; each of its eigenspaces must be a joint weight space (every
    Cartan basis element acts as a scalar there), otherwise the coefficients
    escalate.  Root values must be rational: anything else is an error.
    """
    g = pair.g
    a_els = pair.cartan.basis_elements()
    r = len(a_els)
    last = None
    for coeffs in _generic_coefficient_families(r):
        astar = Element._trusted(g, combine_rows(coeffs, pair.cartan.basis))
        ad = g.ad(astar)
        if not is_squarefree(min_poly(ad)):
            raise InternalCheckError("generic Cartan element acts non-semisimply")
        eig = rational_eigenvalues(ad)
        try:
            return _weight_spaces(pair, a_els, coeffs, ad, eig)
        except _NotJointError as exc:
            last = exc
            continue
    raise InternalCheckError(f"no generic element separated the roots: {last}")


class _NotJointError(Exception):
    pass


def _scalar_action(g, a_el, space):
    """The scalar by which ad(a_el) acts on space, or _NotJointError."""
    scalar = None
    for v in space.basis_elements():
        w = g.bracket(a_el, v)
        if scalar is None:
            lead = next((i for i, c in enumerate(v.coords) if c != 0))
            scalar = w.coords[lead] / v.coords[lead]
        if w.coords != tuple(scalar * c for c in v.coords):
            raise _NotJointError("eigenspace is not a joint weight space")
    return scalar


def _weight_spaces(pair, a_els, coeffs, ad, eig) -> RestrictedRootData:
    g = pair.g
    g_alpha: dict[tuple, Subspace] = {}
    zero_space = None
    for lam, mult in sorted(eig.items()):
        space = Subspace(g, nullspace(shifted(ad, lam)))
        if space.dim != mult:
            raise InternalCheckError("eigenspace dimension mismatch for a semisimple action")
        if lam == 0:
            zero_space = space
            continue
        alpha = tuple(_scalar_action(g, a_el, space) for a_el in a_els)
        if sum(c * m for c, m in zip(coeffs, alpha)) != lam:
            raise InternalCheckError("weight values inconsistent with the generic eigenvalue")
        g_alpha[alpha] = space
    if zero_space is None:
        raise InternalCheckError("the centralizer weight space is missing")

    roots = sorted(g_alpha)
    for alpha in roots:
        if tuple(-c for c in alpha) not in g_alpha:
            raise InternalCheckError("root set is not closed under negation")
    positive = [
        alpha
        for alpha in roots
        if sum(c * m for c, m in zip(coeffs, alpha)) > 0
    ]

    # Prop 2.6: c_g(a) = a + c_k(a), equivalently c_p(a) = a
    m_space = zero_space.intersect(pair.k)
    a_space = pair.cartan
    if zero_space != a_space.add(m_space) or a_space.intersect(m_space).dim != 0:
        raise InternalCheckError("centralizer of the Cartan subspace does not split as a + m")
    if zero_space.intersect(pair.p) != a_space:
        raise InternalCheckError("c_p(a) != a for the chosen Cartan subspace")

    p_alpha, k_alpha = {}, {}
    for alpha in positive:
        pm = g_alpha[alpha].add(g_alpha[tuple(-c for c in alpha)])
        p_alpha[alpha] = pm.intersect(pair.p)
        k_alpha[alpha] = pm.intersect(pair.k)
        if p_alpha[alpha].dim + k_alpha[alpha].dim != pm.dim:
            raise InternalCheckError("double weight space does not split against k + p")

    # dimension bookkeeping of the k- and p-decompositions
    if pair.p.dim != pair.rank + sum(p_alpha[a].dim for a in positive):
        raise InternalCheckError("p does not decompose as a + sum of p_alpha")
    if pair.k.dim != m_space.dim + sum(k_alpha[a].dim for a in positive):
        raise InternalCheckError("k does not decompose as m + sum of k_alpha")

    # the generic element swaps k_alpha and p_alpha
    astar = Element._trusted(g, combine_rows(coeffs, pair.cartan.basis))
    for alpha in positive:
        img_k = g.subspace([g.bracket(astar, v) for v in k_alpha[alpha].basis_elements()])
        img_p = g.subspace([g.bracket(astar, v) for v in p_alpha[alpha].basis_elements()])
        if img_k != p_alpha[alpha] or img_p != k_alpha[alpha]:
            raise InternalCheckError("ad(a) does not swap k_alpha with p_alpha")

    return RestrictedRootData(pair, roots, positive, g_alpha, p_alpha, k_alpha, m_space, astar)


# ---------------------------------------------------------------------------
# derived quantities


def dim_reduction_variety(pair: SymmetricPair) -> int:
    """dim p - rank: the dimension of the closure of the Cartan-subspace family."""
    return pair.p.dim - pair.rank


def singular_kernels(pair: SymmetricPair):
    """Per positive root: its kernel inside the Cartan subspace, and the
    p-centralizer of that kernel."""
    data = pair.roots()
    out = []
    for alpha in data.positive:
        # kernel of the functional alpha on a, in ambient coordinates
        ker = nullspace(RationalMatrix([list(alpha)]))
        rows = [combine_rows(combo, pair.cartan.basis) for combo in ker.entries]
        z = pair.g.subspace(rows) if rows else Subspace(pair.g, RationalMatrix.zero(0, pair.g.dim))
        cpz = centralizer_of_subspace(z, pair.p)
        expected = pair.rank + data.p_alpha[alpha].dim
        if cpz.dim != expected:
            raise InternalCheckError(
                f"centralizer of a root kernel has dim {cpz.dim}, expected {expected}"
            )
        out.append(SingularKernel(alpha, z, cpz))
    return out


class SingularKernel:
    __slots__ = ("root", "kernel", "centralizer_in_p")

    def __init__(self, root, kernel, centralizer_in_p):
        self.root = root
        self.kernel = kernel
        self.centralizer_in_p = centralizer_in_p


class DerivedPairMaps:
    """The mutually inverse projections between reductions of a pair with
    central anisotropic directions and reductions of its derived pair.

    ``project`` intersects with the derived part of p; ``include`` adds the
    central part back.  Planes that miss the central part are not reductions
    and are rejected.
    """

    def __init__(self, pair: SymmetricPair):
        g = pair.g
        ads = [g.ad_basis(i) for i in range(g.dim)]
        stacked = RationalMatrix([row for m in ads for row in m.entries])
        center = Subspace(g, nullspace(stacked))
        brackets = []
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                b = g._basis_bracket(i, j)
                if b:
                    vec = [_ZERO] * g.dim
                    for k, c in b.items():
                        vec[k] = c
                    brackets.append(vec)
        derived = g.subspace(brackets)
        self.pair = pair
        self.p_center = center.intersect(pair.p)
        self.p_derived = derived.intersect(pair.p)
        if self.p_center.add(self.p_derived).dim != pair.p.dim:
            raise InternalCheckError("p does not split into central and derived parts")

    def project(self, u: Subspace) -> Subspace:
        if not u.contains_subspace(self.p_center):
            raise DomainError(
                "plane does not contain the central anisotropic part, "
                "so it is not a reduction of this pair"
            )
        return u.intersect(self.p_derived)

    def include(self, v: Subspace) -> Subspace:
        return v.add(self.p_center)


def derived_pair_maps(pair: SymmetricPair) -> DerivedPairMaps:
    return DerivedPairMaps(pair)


def restrict_pair(pair: SymmetricPair, sub: Subspace, name="") -> tuple[SymmetricPair, "PairEmbedding"]:
    """The symmetric pair on a theta-stable subalgebra (given by its basis),
    with the coordinate embedding back into the ambient pair.

    The subalgebra must contain the ambient Cartan subspace, which then
    serves as the Cartan subspace of the restricted pair (equal rank).
    """
    g = pair.g
    basis = sub.basis
    mats = [g.realize(Element._trusted(g, row)) for row in basis.entries]
    labels = [f"s{i}" for i in range(basis.rows)]
    sub_alg = algebra_from_matrices(labels, mats, check=True)
    # involution in subalgebra coordinates
    cols = []
    for row in basis.entries:
        img = pair.theta.apply(row)
        coords = sub.coordinates_of(img)
        if coords is None:
            raise DomainError("subalgebra is not stable under the involution")
        cols.append(coords)
    theta_sub = RationalMatrix(list(zip(*cols)))
    cartan_rows = []
    for el in pair.cartan.basis_elements():
        coords = sub.coordinates_of(el)
        if coords is None:
            raise DomainError("subalgebra does not contain the Cartan subspace")
        cartan_rows.append(coords)
    cartan_sub = sub_alg.subspace(cartan_rows)
    restricted = SymmetricPair(sub_alg, theta_sub, cartan_sub, name=name or f"{pair.name}|sub")
    return restricted, PairEmbedding(pair, restricted, sub)


# ---------------------------------------------------------------------------
# exact points of the fixed group


def exp_ad_automorphism(pair: SymmetricPair, y: Element) -> RationalMatrix:
    """exp(ad y) for y in k with nilpotent adjoint action: an exact
    automorphism of g commuting with the involution."""
    g = pair.g
    if not pair.k.contains(y):
        raise DomainError("generator must lie in k")
    ad = g.ad(y)
    n = g.dim
    acc = RationalMatrix.identity(n)
    term = RationalMatrix.identity(n)
    k = 0
    while True:
        term = term * ad
        k += 1
        if term.is_zero():
            break
        if k > n:
            raise DomainError("generator does not act nilpotently")
        acc = acc + term * Fraction(1, math.factorial(k))
    return acc


def conjugation_automorphism(pair: SymmetricPair, q: RationalMatrix, q_inv: RationalMatrix) -> RationalMatrix:
    """Automorphism of g given by conjugating the realization by q.

    For Cartesian squares q must be block diagonal over the two factors (the
    diagonal fixed group acts by the same matrix on both).  The result is
    pulled back through the realization, so q must normalize the algebra.
    """
    g = pair.g
    cols = []
    for i in range(g.dim):
        img = q * g.realization[i] * q_inv
        cols.append(g.from_realization(img).coords)
    return RationalMatrix(list(zip(*cols)))


def cayley_orthogonal(n: int, antisym: RationalMatrix) -> tuple[RationalMatrix, RationalMatrix]:
    """(I + L)(I - L)^{-1} for antisymmetric L: an exact rational orthogonal
    matrix, with its inverse."""
    eye = RationalMatrix.identity(n)
    q = (eye + antisym) * LinearSolver(eye - antisym).inverse()
    q_inv = (eye - antisym) * LinearSolver(eye + antisym).inverse()
    return q, q_inv


def sample_k_automorphism(pair: SymmetricPair, rng) -> RationalMatrix:
    """A random exact automorphism in the identity component of the fixed
    group: products of unipotent exponentials for pairs with ad-nilpotent
    k-elements, rational Cayley rotations for the transpose pairs."""
    nils = k_nilpotent_elements(pair, rng, count=2)
    if nils:
        acc = RationalMatrix.identity(pair.g.dim)
        for y in nils:
            acc = acc * exp_ad_automorphism(pair, y)
        return acc
    n = pair.g.realization[0].rows
    entries = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            c = rat(rng.randint(-2, 2), rng.choice([1, 2, 3]))
            entries[i][j] = c
            entries[j][i] = -c
    q, q_inv = cayley_orthogonal(n, RationalMatrix(entries))
    return conjugation_automorphism(pair, q, q_inv)


def _k_nilpotent_bank(pair: SymmetricPair):
    """Weight spaces of c_k(a) acting on k whose elements act nilpotently.

    For the compact-form fixed groups (the transpose pairs) the bank is
    empty, signalling that Cayley arcs are the exact substitute.  Cached on
    the pair.
    """
    cached = getattr(pair, "_k_bank", None)
    if cached is not None:
        return cached
    g = pair.g
    bank = []
    m = centralizer_of_subspace(pair.cartan, pair.k)
    if m.dim > 0:
        for coeffs in _generic_coefficient_families(m.dim):
            ad = g.ad(Element._trusted(g, combine_rows(coeffs, m.basis)))
            try:
                eig = rational_eigenvalues(ad)
            except IrrationalSpectrumError:
                break
            candidate = []
            ok = True
            for lam in eig:
                if lam == 0:
                    continue
                space = Subspace(g, nullspace(shifted(ad, lam))).intersect(pair.k)
                if space.dim == 0:
                    continue
                for el in space.basis_elements():
                    if classify_element(el) != "nilpotent":
                        ok = False
                        break
                if not ok:
                    break
                candidate.append(space)
            if ok and candidate:
                bank = candidate
                break
    pair._k_bank = bank
    return bank


def k_nilpotent_elements(pair: SymmetricPair, rng, count=1, tries=40):
    """Random ad-nilpotent elements of k, drawn inside single weight spaces
    of the k-Cartan action; empty when k has no rational nilpotents."""
    bank = _k_nilpotent_bank(pair)
    if not bank:
        return []
    out = []
    for _ in range(tries):
        if len(out) >= count:
            break
        space = rng.choice(bank)
        coeffs = [rng.randint(-2, 2) for _ in range(space.dim)]
        vec = Element._trusted(pair.g, combine_rows(coeffs, space.basis))
        if not vec.is_zero():
            out.append(vec)
    return out


class PairEmbedding:
    """Coordinate transport between a restricted pair and its ambient pair."""

    def __init__(self, ambient, restricted, sub):
        self.ambient = ambient
        self.restricted = restricted
        self.sub = sub

    def to_ambient(self, x: Element) -> Element:
        return Element._trusted(self.ambient.g, combine_rows(x.coords, self.sub.basis))

    def to_ambient_subspace(self, s: Subspace) -> Subspace:
        return self.ambient.g.subspace([self.to_ambient(e) for e in s.basis_elements()])

    def to_restricted(self, x: Element) -> Element:
        coords = self.sub.coordinates_of(x)
        if coords is None:
            raise DomainError("element lies outside the subalgebra")
        return Element(self.restricted.g, coords)

    def to_restricted_subspace(self, s: Subspace) -> Subspace:
        return self.restricted.g.subspace([self.to_restricted(e) for e in s.basis_elements()])
