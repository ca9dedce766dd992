"""Regularity, the centralizer map, decomposition-class signatures with
their genericity order, subvarieties of reductions, and the Jacobian-map
comparison for Cartesian squares.

Signatures are implemented where the class data reduces to partitions: for
the square of sl_n an element is classified by the multiplicity partition of
its semisimple part together with the Jordan partition of the nilpotent part
inside each eigenvalue block.  The closure order on signatures is computed
by a closed-form rule (block merging with componentwise-sum bounds and
dominance); the degeneration harness keeps that rule honest by sampling.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import DomainError, InternalCheckError
from .exact import (
    LinearSolver,
    RationalMatrix,
    nullspace,
    rank,
    shifted,
)
from .liealg import (
    Element,
    Subspace,
    centralizer_of_subspace,
    jordan_chevalley,
    rational_eigenvalues,
)
from .pairs import (
    SymmetricPair,
    restrict_pair,
    square_of,
)
from .planes import (
    Plane,
    PluckerVector,
    is_anisotropic_subalgebra,
    is_cj_closed,
    plane_from_basis,
    plane_from_subspace,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class IncidencePoint:
    """A plane together with one of its elements."""

    __slots__ = ("plane", "element")

    def __init__(self, plane: Plane, element: Element):
        if not plane.contains(element):
            raise DomainError("element does not lie on the plane")
        self.plane = plane
        self.element = element


def _centralizer_in_p(pair: SymmetricPair, x: Element) -> Subspace:
    if not pair.p.contains(x):
        raise DomainError("regularity is defined for elements of p")
    return pair.c_p(x)


def is_regular(pair: SymmetricPair, x: Element) -> bool:
    """Minimal centralizer dimension in p, which is the rank."""
    return _centralizer_in_p(pair, x).dim == pair.rank


def centralizer_map(pair: SymmetricPair, x: Element) -> Plane:
    """The plane c_p(x) of a regular element; abelian by the structure
    theory, which is re-verified on every call."""
    plane = _regular_centralizer(pair, x)
    if plane is None:
        raise DomainError("centralizer map is defined on regular elements only")
    return plane


def _regular_centralizer(pair: SymmetricPair, x: Element) -> Plane | None:
    """``centralizer_map(pair, x)`` when x is regular and None otherwise,
    from one computation of c_p(x)."""
    centralizer = _centralizer_in_p(pair, x)
    if centralizer.dim != pair.rank:
        return None
    plane = plane_from_subspace(pair, centralizer)
    if not is_anisotropic_subalgebra(plane):
        raise InternalCheckError("centralizer of a regular element is not abelian")
    if not plane.contains(x):
        raise InternalCheckError("centralizer plane lost its defining element")
    return plane


# ---------------------------------------------------------------------------
# decomposition signatures for Cartesian squares of sl_n


class DecompositionSignature:
    """Multiset of (eigenvalue multiplicity, nilpotent Jordan partition in
    that block); eigenvalue values are discarded."""

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        self.n = n
        self.blocks = tuple(sorted(blocks, reverse=True))
        if sum(b for b, _ in self.blocks) != n:
            raise DomainError("block multiplicities must sum to n")
        for mult, part in self.blocks:
            if sum(part) != mult:
                raise DomainError("a Jordan partition does not fit its block")

    def __eq__(self, other):
        return (
            isinstance(other, DecompositionSignature)
            and other.n == self.n
            and other.blocks == self.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        body = ", ".join(f"{m}:{list(p)}" for m, p in self.blocks)
        return f"Signature({body})"


def _square_factor_matrix(pair: SymmetricPair, x: Element) -> RationalMatrix:
    """The left-factor matrix of an anti-diagonal element (y, -y) of a
    Cartesian square of sl_n."""
    if not pair.p.contains(x):
        raise DomainError("element must lie in p")
    big = pair.g.realize(x)
    n = big.rows // 2
    left = RationalMatrix._trusted(tuple(row[:n] for row in big.entries[:n]))
    right = RationalMatrix._trusted(tuple(row[n:] for row in big.entries[n:]))
    if not (left + right).is_zero():
        raise DomainError("element is not anti-diagonal")
    return left


def _require_sl_square(pair: SymmetricPair) -> int:
    name = getattr(pair, "name", "")
    if not name.startswith("square(sl"):
        raise DomainError("decomposition signatures are implemented for squares of sl_n")
    return int(name[len("square(sl"):-1])


def decomposition_signature(pair: SymmetricPair, x: Element) -> DecompositionSignature:
    """Class invariant of x: two elements share it exactly when they lie in
    the same decomposition class.  Needs a rational spectrum."""
    n = _require_sl_square(pair)
    y = _square_factor_matrix(pair, x)
    s_el, n_el = jordan_chevalley(x)
    s = _square_factor_matrix(pair, s_el) if not s_el.is_zero() else RationalMatrix.zero(n, n)
    nil = y - s
    eig = rational_eigenvalues(s) if not s.is_zero() else {Fraction(0): n}
    blocks = []
    for lam, mult in eig.items():
        basis = nullspace(shifted(s, lam))
        if basis.rows != mult:
            raise InternalCheckError("semisimple part has a defective eigenspace")
        restricted = _restrict_to_invariant(nil, basis)
        blocks.append((mult, _jordan_partition(restricted)))
    return DecompositionSignature(n, blocks)


def _restrict_to_invariant(mat: RationalMatrix, basis: RationalMatrix) -> RationalMatrix:
    solver = LinearSolver(basis.transpose())
    cols = []
    for row in basis.entries:
        img = mat.apply(row)
        coords = solver.solve(img)
        if coords is None:
            raise InternalCheckError("subspace is not invariant under the nilpotent part")
        cols.append(coords)
    return RationalMatrix(list(zip(*cols)))


def _jordan_partition(nil: RationalMatrix) -> tuple:
    """Jordan type of a nilpotent matrix from kernel dimensions of powers."""
    m = nil.rows
    if m == 0:
        return ()
    kdims = [0]
    power = RationalMatrix.identity(m)
    while kdims[-1] < m:
        power = power * nil
        kdims.append(m - rank(power))
        if len(kdims) > m + 1:
            raise DomainError("matrix is not nilpotent")
    diffs = [kdims[i + 1] - kdims[i] for i in range(len(kdims) - 1)]
    # diffs[i] = number of Jordan blocks of size > i; conjugate to get sizes
    parts = []
    for size in range(len(diffs), 0, -1):
        count = diffs[size - 1] - (diffs[size] if size < len(diffs) else 0)
        parts.extend([size] * count)
    return tuple(sorted(parts, reverse=True))


# -- genericity order


def _dominates(p, q):
    """Dominance order on partitions of equal size."""
    if sum(p) != sum(q):
        return False
    acc_p = acc_q = 0
    for i in range(max(len(p), len(q))):
        acc_p += p[i] if i < len(p) else 0
        acc_q += q[i] if i < len(q) else 0
        if acc_p < acc_q:
            return False
    return True


def _partition_sum(parts):
    """Componentwise sum of partitions: the most general nilpotent type a
    merged block can degenerate to."""
    width = max((len(p) for p in parts), default=0)
    return tuple(
        sorted(
            (sum(p[i] if i < len(p) else 0 for p in parts) for i in range(width)),
            reverse=True,
        )
    )


def _groupings(items):
    """Set partitions of the index list."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _groupings(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def signature_is_degeneration(general: DecompositionSignature, special: DecompositionSignature) -> bool:
    """True when the special class lies in the closure of the general one,
    by the merge-and-dominate rule: group the general blocks, match group
    sums to the special multiplicities, and require each special Jordan type
    to be dominated by the componentwise sum of its group's types."""
    if general.n != special.n:
        raise DomainError("signatures of different ranks are incomparable")
    if general == special:
        return True
    gblocks = list(general.blocks)
    sblocks = list(special.blocks)
    for grouping in _groupings(list(range(len(gblocks)))):
        if len(grouping) != len(sblocks):
            continue
        sums = []
        for group in grouping:
            mult = sum(gblocks[i][0] for i in group)
            bound = _partition_sum([gblocks[i][1] for i in group])
            sums.append((mult, bound))
        for perm in itertools.permutations(range(len(sblocks))):
            ok = True
            for (mult, bound), target_idx in zip(sums, perm):
                tmult, tpart = sblocks[target_idx]
                if tmult != mult or not _dominates(bound, tpart):
                    ok = False
                    break
            if ok:
                return True
    return False


def signature_genericity(s1: DecompositionSignature, s2: DecompositionSignature) -> str:
    """'more_general', 'less_general', 'equal' or 'incomparable'."""
    if s1 == s2:
        return "equal"
    down = signature_is_degeneration(s1, s2)
    up = signature_is_degeneration(s2, s1)
    if down and up:
        raise InternalCheckError("distinct signatures dominate each other")
    if down:
        return "more_general"
    if up:
        return "less_general"
    return "incomparable"


def all_signatures(n: int):
    """Every decomposition-class signature for the square of sl_n."""
    out = []
    for mult_part in _partitions(n):
        block_choices = [[(m, p) for p in _partitions(m)] for m in mult_part]
        for combo in itertools.product(*block_choices):
            sig = DecompositionSignature(n, combo)
            if sig not in out:
                out.append(sig)
    return out


def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def signature_representative(pair: SymmetricPair, sig: DecompositionSignature) -> Element:
    """A canonical element of the class: distinct small eigenvalues per
    block (shifted to trace zero) plus Jordan ones inside each block.

    Block idx gets eigenvalue idx; when identical shifted eigenvalues merge
    blocks, they are spread out to 3**idx."""
    for eigenvalue in (Fraction, lambda idx: Fraction(3**idx)):
        x = _block_representative(pair, sig, eigenvalue)
        if decomposition_signature(pair, x) == sig:
            return x
    raise InternalCheckError("representative construction failed")


def _block_representative(pair, sig, eigenvalue):
    """The element whose left factor has eigenvalue(idx) on block idx,
    shifted to trace zero, with Jordan ones inside each part."""
    n = _require_sl_square(pair)
    entries = [[_ZERO] * n for _ in range(n)]
    eigenvalues = []
    pos = 0
    for idx, (mult, part) in enumerate(sig.blocks):
        eigenvalues.extend([eigenvalue(idx)] * mult)
        offset = pos
        for size in part:
            for i in range(size - 1):
                entries[offset + i][offset + i + 1] = _ONE
            offset += size
        pos += mult
    shift = sum(eigenvalues) / n
    for i in range(n):
        entries[i][i] = eigenvalues[i] - shift
    return pair.g.from_realization(_antidiagonal_realization(pair, RationalMatrix(entries)))


def _antidiagonal_realization(pair, left: RationalMatrix) -> RationalMatrix:
    n = left.rows
    rows = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            if i < n and j < n:
                row.append(left.entries[i][j])
            elif i >= n and j >= n:
                row.append(-left.entries[i - n][j - n])
            else:
                row.append(_ZERO)
        rows.append(row)
    return RationalMatrix(rows)


def double_centralizer(pair: SymmetricPair, x: Element) -> Subspace:
    """{v in p : [v, c_p(x)] = 0}."""
    return centralizer_of_subspace(pair.c_p(x), pair.p)


# ---------------------------------------------------------------------------
# subvarieties of reductions


class SubvarietyOfReductions:
    """The reductions through a fixed subspace of a Cartan subspace,
    realized as the variety of reductions of the centralizer pair."""

    def __init__(self, pair: SymmetricPair, anchor: Subspace):
        if not pair.cartan.contains_subspace(anchor):
            raise DomainError("anchor must sit inside the chosen Cartan subspace")
        self.pair = pair
        self.anchor = anchor
        sub = centralizer_of_subspace(anchor, pair.g.full_subspace())
        self.centralizer_pair, self.embedding = restrict_pair(
            pair, sub, name=f"{pair.name}|centralizer"
        )
        if self.centralizer_pair.rank != pair.rank:
            raise InternalCheckError("centralizer pair must have equal rank")

    def contains(self, u: Plane) -> bool:
        """Membership characterization: the plane contains the anchor."""
        return u.contains_subspace(self.anchor)

    def to_sub_plane(self, u: Plane) -> Plane:
        sub = self.embedding.to_restricted_subspace(u.to_subspace())
        return plane_from_subspace(self.centralizer_pair, sub)

    def to_ambient_plane(self, u: Plane) -> Plane:
        sub = self.embedding.to_ambient_subspace(u.to_subspace())
        return plane_from_subspace(self.pair, sub)


def make_subvariety(pair: SymmetricPair, anchor: Subspace) -> SubvarietyOfReductions:
    return SubvarietyOfReductions(pair, anchor)


# ---------------------------------------------------------------------------
# the Jacobian comparison for Cartesian squares


def _jacobian_frame(pair: SymmetricPair):
    """The x-independent half of the Jacobian map, built once per pair:
    row j of ``directions`` is the left factor d_j of the j-th basis element
    of p, transposed and flattened, so its dot product with a flattened
    matrix N is tr(N·d_j); ``solver`` solves against the Killing Gram matrix
    of that basis."""
    frame = getattr(pair, "_jacobian_frame", None)
    if frame is not None:
        return frame
    p_els = [pair.from_p_coords(row) for row in RationalMatrix.identity(pair.p.dim).entries]
    directions = RationalMatrix._trusted(
        tuple(_square_factor_matrix(pair, e).transpose().vec() for e in p_els)
    )
    gram = RationalMatrix._trusted(
        tuple(tuple(pair.g.killing(a, b) for b in p_els) for a in p_els)
    )
    frame = (directions, LinearSolver(gram))
    pair._jacobian_frame = frame
    return frame


def _adjugate_coefficients(y: RationalMatrix) -> list[RationalMatrix]:
    """N_0..N_{n-1} with adj(λI - y) = Σ λ^{n-1-k} N_k, by the
    Faddeev-LeVerrier recursion N_0 = I, N_k = y·N_{k-1} + c_k·I, where
    c_k = -tr(y·N_{k-1})/k is the coefficient of λ^{n-k} in det(λI - y)."""
    out = [RationalMatrix.identity(y.rows)]
    for k in range(1, y.rows):
        prod = y * out[-1]
        out.append(shifted(prod, prod.trace() / k))
    return out


def jacobian_map(pair: SymmetricPair, x: Element) -> PluckerVector:
    """Wedge of the gradients of the invariant coefficients at x, with p
    identified with its dual by the Killing form.

    The invariants are the coefficients c_2..c_n of the characteristic
    polynomial det(λI - y) = Σ c_k λ^{n-k} of the left factor y of
    x = (y, -y).  By Jacobi's formula the derivative of c_k along d is
    -tr(N_{k-1}·d), where adj(λI - y) = Σ λ^{n-1-k} N_k, so one
    Faddeev-LeVerrier pass over y gives every gradient at once.

    For regular x this is exactly proportional to the Plücker vector of the
    centralizer plane; for irregular x the wedge vanishes and a DomainError
    reports it.
    """
    _require_sl_square(pair)
    y = _square_factor_matrix(pair, x)
    directions, solver = _jacobian_frame(pair)
    p_dim = pair.p.dim
    r = pair.rank
    vectors = []
    for adj in _adjugate_coefficients(y)[1:]:
        # the gradient of the next coefficient, then the vector dual to it
        grad = [-a for a in directions.apply(adj.vec())]
        v = solver.solve(grad)
        if v is None:
            raise InternalCheckError("Killing form is degenerate on p")
        vectors.append(v)
    mat = RationalMatrix._trusted(tuple(vectors))
    if rank(mat) < r:
        raise DomainError("Jacobian wedge vanishes: the element is irregular")
    minors = {}
    for combo in itertools.combinations(range(p_dim), r):
        sub = RationalMatrix._trusted(tuple(tuple(row[j] for j in combo) for row in vectors))
        minors[combo] = sub.det()
    return PluckerVector(p_dim, r, minors)


# ---------------------------------------------------------------------------
# a non-algebraic abelian plane


def nonalgebraic_witness(n: int) -> tuple:
    """A plane in the square of sl_n (n >= 5) that is an abelian subalgebra
    but not closed under the Chevalley-Jordan split: span of s + m_1 and
    m_2..m_r, with s a degenerate semisimple element and m an abelian
    nilpotent block commuting with s.

    Returns (pair, plane, s_element).
    """
    if n < 5:
        raise DomainError("the construction needs rank at least 4")
    pair = square_of(f"sl{n}")
    r = n - 1
    s_left = [[_ZERO] * n for _ in range(n)]
    for i in range(n - 1):
        s_left[i][i] = _ONE
    s_left[n - 1][n - 1] = Fraction(-(n - 1))
    half = (n - 1) // 2
    block_rows = list(range(half))
    block_cols = list(range(half, n - 1))
    ms = []
    for i in block_rows:
        for j in block_cols:
            m = [[_ZERO] * n for _ in range(n)]
            m[i][j] = _ONE
            ms.append(RationalMatrix(m))
    if len(ms) < r:
        raise DomainError("nilpotent block is too small; need a larger rank")
    ms = ms[:r]
    s_mat = RationalMatrix(s_left)
    vectors = [pair.g.from_realization(_antidiagonal_realization(pair, s_mat + ms[0]))]
    for m in ms[1:]:
        vectors.append(pair.g.from_realization(_antidiagonal_realization(pair, m)))
    plane = plane_from_basis(pair, vectors)
    s_el = pair.g.from_realization(_antidiagonal_realization(pair, s_mat))
    if not is_anisotropic_subalgebra(plane):
        raise InternalCheckError("witness plane is not abelian")
    if plane.contains(s_el):
        raise InternalCheckError("witness plane unexpectedly contains the semisimple part")
    if is_cj_closed(plane):
        raise InternalCheckError("witness plane is unexpectedly CJ-closed")
    return pair, plane, s_el
