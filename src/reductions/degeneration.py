"""Degeneration arcs and tempered moving frames.

A curve is a one-parameter family of algebra automorphisms commuting with
the involution, with entries in Laurent series over Q; the point at
infinity is normalized to t = 0.  Moving a plane along a curve filters it by
magnitude orders; a basis adapted to that flag has a tempered rescaling that
extends to t = 0 and spans the limit plane.  Every limit is computed twice,
through the tempered frame and through the valuations of the Plücker
coordinates, and the two must agree exactly.

Three exact move families generate the curves used here: exponentials of
nilpotent adjoint actions with t-power weights, Cayley rotations for the
orthogonal fixed groups, and weight-torus conjugations for Cartesian
squares.  Their matrices are Laurent polynomials, built with no
truncation, up to one scalar unit with constant term 1 per curve.  Each
move commutes with the involution and so preserves p, where every moved
plane lies: a group curve builds its p-matrix directly, move by move on the
rows of p, and its matrices on all of g only lazily, for validation and for
reads of g-level values.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .errors import (
    DomainError,
    InternalCheckError,
    IrrationalSpectrumError,
    RankDeficiencyError,
)
from .analysis import (
    _adjugate_coefficients,
    _antidiagonal_realization,
    _square_factor_matrix,
    decomposition_signature,
    double_centralizer,
)
from .exact import (
    _EXACT_ONE,
    LaurentSeries,
    LinearSolver,
    RationalMatrix,
    SeriesMatrix,
    _prepared,
    _stacked,
    _sum_of_scaled,
    combine_rows,
    coordinates_in_row_space,
    intersect_row_spaces,
    min_valuation,
    nullspace,
    rank,
    rat,
    row_space,
    rref,
    solve,
    valuation_adapted_reduce,
)
from .liealg import (
    Element,
    Subspace,
    classify_element,
    jordan_chevalley,
    normalizer_dimension,
)
from .pairs import SymmetricPair, k_nilpotent_elements, sample_k_automorphism
from .planes import (
    Plane,
    PluckerVector,
    is_anisotropic_subalgebra,
    semisimple_nilpotent_split,
    semisimple_part_matrix,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# curves


class VectorCurve:
    """A t-family of invertible matrices on a plain vector space, given by
    one exact series matrix, ``matrix``.  This raw form carries no Lie
    structure and powers the toy mode of the command line."""

    def __init__(self, matrix: SeriesMatrix):
        if not all(e.is_exact() for row in matrix.entries for e in row):
            raise DomainError("a curve needs exact series entries")
        self.matrix = matrix


class MonomialCurve(VectorCurve):
    """diag(t^{w_1}, ..., t^{w_n}): the toy curves of the examples."""

    def __init__(self, weights):
        self.weights = tuple(int(w) for w in weights)
        super().__init__(_diagonal_powers(self.weights))


def _diagonal_powers(weights) -> SeriesMatrix:
    """diag(t^{w_1}, ..., t^{w_n})."""
    zero = LaurentSeries.zero()
    return SeriesMatrix._trusted(tuple(
        tuple([LaurentSeries.t_power(w) if i == j else zero for j in range(len(weights))])
        for i, w in enumerate(weights)
    ))


class GroupCurve:
    """Composite of exact moves in the fixed group of a symmetric pair.

    Moves are ('exp', element, exponent), ('cayley', element, exponent) or
    ('torus', weights).  A curve in the fixed group is algebraic in t, and
    its matrices are built exactly, with Laurent-polynomial entries (prec
    None) and no truncation: exp moves are polynomial, torus moves monomial,
    and a Cayley move (I + sY)(I - sY)^{-1}, s = t^e, is taken by Cramer's
    rule as (I + sY)·adj(I - sY) over the leading term of det(I - sY).  That
    multiplies the move by a scalar unit of Q[t] with constant term 1, so the
    exact p-matrix (``p_matrix()``) and the exact matrices on g
    (``matrices()``) are the curve times the product w of these units,
    ``scale()`` (w = 1 without Cayley moves).  A scalar unit with constant
    term 1 moves no row space and changes no valuation and no leading
    coefficient, so every limit, flag, frame and witness read from the
    matrices is the curve's own.

    Every move commutes with the involution, so it preserves p, and the
    p-matrix the limit machinery consumes is built directly: each move is
    formed on the rows of p alone, in p coordinates, and the dim p × dim p
    blocks are multiplied.  The same move builder on the identity basis of g
    gives the matrices on all of g and their inverse companion; those are
    built lazily, only where g-level values are read (``matrices()``,
    ``magnitude_order`` of an Element, validation).  With ``validate`` they
    are checked exactly to commute with the involution, to preserve the
    bracket up to the scale (w·fwd([x, y]) = [fwd x, fwd y]) and to invert
    against their companion up to it (fwd·bwd = w²·I), and the p-matrix is
    checked against their restriction to p.
    """

    def __init__(self, pair: SymmetricPair, moves, validate=True):
        self.pair = pair
        self.moves = tuple(moves)
        self.validate = validate
        self._g = None
        self._p = None
        self._scale = None

    def matrices(self):
        """The curve on g and its inverse companion."""
        if self._g is None:
            eye = RationalMatrix.identity(self.pair.g.dim)
            fwd, bwd, self._scale = _compose(self.pair, self.moves, eye, inverse=True)
            if self.validate:
                _validate_curve(self.pair, fwd, bwd, self._scale)
            self._g = fwd, bwd
        return self._g

    def p_matrix(self) -> SeriesMatrix:
        """The curve on p, in the coordinates of p's rows."""
        if self._p is None:
            mat, self._scale = _compose(self.pair, self.moves, self.pair.p.basis, inverse=False)
            if self.validate:
                oracle = _restrict_to_p(self.pair, self.matrices()[0])
                if not all((a - o).is_zero() for ra, ro in zip(mat.entries, oracle.entries)
                           for a, o in zip(ra, ro)):
                    raise InternalCheckError("p-matrix disagrees with the curve restricted to p")
            self._p = mat
        return self._p

    def scale(self) -> LaurentSeries:
        """w: the matrices of this curve are w times the curve itself."""
        if self._scale is None:
            self.p_matrix()
        return self._scale


def _compose(pair, moves, basis, inverse):
    """The curve on the span of ``basis`` (rows in reduced echelon form,
    spanning p or all of g), in the coordinates of those rows, then with
    ``inverse`` its inverse companion, then the scale both carry."""
    pivots = [next(j for j, c in enumerate(row) if c) for row in basis.entries]
    fwd = bwd = SeriesMatrix.identity(basis.rows)
    scale = _EXACT_ONE
    for move in moves:
        mats, unit = _move_matrices(pair, move, basis, pivots, inverse)
        fwd = fwd * mats[0]
        if inverse:
            bwd = mats[1] * bwd
        scale = scale * unit
    return (fwd, bwd, scale) if inverse else (fwd, scale)


def _move_matrices(pair, move, basis, pivots, inverse):
    """The move on the span of ``basis`` in the coordinates of its rows and,
    with ``inverse``, the inverse move after it; then the scalar unit both
    are multiplied by."""
    kind = move[0]
    if kind not in ("exp", "cayley", "torus"):
        raise DomainError(f"unknown curve move {kind!r}")
    if kind != "torus" and not pair.k.contains(move[1]):
        raise DomainError("curve generator must lie in k")
    signs = (1, -1) if inverse else (1,)
    if kind == "exp":
        _, y, exponent = move
        powers = _ad_powers(pair.g, y, basis, pivots)
        return [_poly_exp(powers, exponent, sign) for sign in signs], _EXACT_ONE
    unit = _EXACT_ONE
    if kind == "cayley":
        (q, u), (q_inv, u_inv) = _cayley_factors(pair.g, move[1], move[2])
        unit = u * u_inv  # q·x·q^{-1} comes out times both units
    else:
        q, q_inv = _torus_factors(pair.g, move[1])
    factors = ((q, q_inv), (q_inv, q))[: len(signs)]
    return [_conjugation_on_coords(pair.g, a, a_inv, basis, pivots) for a, a_inv in factors], unit


def _ad_powers(g, y: Element, basis, pivots):
    """Powers of ad(y) on the span of ``basis`` in its coordinates, up to the
    first zero power.  Nilpotency is checked on the realization: ρ(y)^n = 0
    for the realization size n makes ad(y) nilpotent, ρ being faithful."""
    real = g.realize(y)
    power = real
    for _ in range(real.rows):
        if power.is_zero():
            break
        power = power * real
    else:
        raise DomainError("curve generator does not act nilpotently")
    # row j: [y, b_j] for basis row b_j, and its coordinates at the pivots
    rows = [Element.from_integers(g, basis.den, row) for row in basis.ints]
    images = RationalMatrix([g.bracket(y, b).coords for b in rows])
    coords = RationalMatrix.from_integers(
        images.den, [[row[c] for c in pivots] for row in images.ints], len(pivots)
    )
    if coords * basis != images:
        raise InternalCheckError("curve does not preserve p")
    block = coords.transpose()
    powers = [RationalMatrix.identity(basis.rows)]
    while not powers[-1].is_zero():
        powers.append(powers[-1] * block)
    return powers


def _poly_exp(powers, exponent, sign):
    """Σ_k (sign·t^exponent)^k / k! · powers[k], with exact series entries."""
    return _polynomial_matrix(
        [(Fraction(sign**k, math.factorial(k)), mat) for k, mat in enumerate(powers)], exponent
    )


def _polynomial_matrix(terms, exponent, shift=0):
    """Σ_k c_k · t^(k·exponent + shift) · m_k over ``terms`` [(c_0, m_0),
    (c_1, m_1), ...] of rationals and equal-shape rational matrices, with
    exact series entries."""
    rows, cols = terms[0][1].rows, terms[0][1].cols
    span = (len(terms) - 1) * exponent
    lo = min(0, span)
    cells = {}
    for k, (coef, mat) in enumerate(terms):
        scale = Fraction(coef, mat.den)  # over the integer rows of mat
        for i, row in enumerate(mat.ints):
            for j, a in enumerate(row):
                if a:
                    cs = cells.setdefault((i, j), [_ZERO] * (abs(span) + 1))
                    cs[k * exponent - lo] += scale * a
    zero = LaurentSeries.zero()
    return SeriesMatrix._trusted(tuple(
        tuple([LaurentSeries._trusted(lo + shift, cells[i, j], None) if (i, j) in cells else zero
               for j in range(cols)])
        for i in range(rows)
    ))


def _series_from_dict(d):
    d = {k: v for k, v in d.items() if v != 0}
    if not d:
        return LaurentSeries.zero()
    lo = min(d)
    hi = max(d)
    return LaurentSeries(lo, [d.get(k, _ZERO) for k in range(lo, hi + 1)])


def _cayley_factors(g, y: Element, exponent: int):
    """The Cayley factor q = (I + sY)(I - sY)^{-1}, s = t^exponent, and its
    inverse on the realization, exact, each times a scalar unit u of Q[t]
    with constant term 1: ((u·q, u), (u'·q^{-1}, u')).

    By Cramer's rule u·q = (I + sY)·adj(I - sY) / (lead(d)·t^val(d)) with
    d = det(I - sY) and u = d / (lead(d)·t^val(d)); u'·q^{-1} and u' come
    likewise from I + sY, that is from s -> -s.  The adjugate and the
    determinant are polynomials in s with rational coefficients
    (Faddeev-LeVerrier): adj(I - sY) = Σ s^k N_k and det(I - sY) = Σ c_k s^k.
    """
    real = g.realize(y)
    n = real.rows
    adj = _adjugate_coefficients(real)
    moved = [real * m for m in adj]  # Y·N_k
    # (I + sY)·adj(I - sY) = Σ_k s^k (N_k + Y·N_{k-1}), N_n = 0
    num = [adj[0]] + [adj[k] + moved[k - 1] for k in range(1, n)] + [moved[n - 1]]
    dets = [_ONE] + [-moved[k - 1].trace() / k for k in range(1, n + 1)]
    out = []
    for sign in (1, -1):
        exps = {}
        for k, c in enumerate(dets):
            exps[k * exponent] = exps.get(k * exponent, _ZERO) + sign**k * c
        d = _series_from_dict(exps)
        if d.is_zero():
            raise RankDeficiencyError("Cayley generator makes I - t^e·y or I + t^e·y singular")
        lead = d.coeffs[0]
        factor = _polynomial_matrix(
            [(sign**k / lead, m) for k, m in enumerate(num)], exponent, -d.val
        )
        out.append((factor, d.shift(-d.val) * (1 / lead)))
    return out


def _torus_factors(g, weights):
    """diag(t^{w_i}) and its inverse, on the realization."""
    real_dim = g.realization[0].rows
    if len(weights) * 2 == real_dim:
        weights = tuple(weights) + tuple(weights)  # same torus in both square factors
    if len(weights) != real_dim:
        raise DomainError("torus weights must match the realization size")
    return _diagonal_powers(weights), _diagonal_powers([-w for w in weights])


def _conjugation_on_coords(g, q: SeriesMatrix, q_inv: SeriesMatrix, basis, pivots) -> SeriesMatrix:
    """Adjoint action of a realization-level series matrix on the span of
    ``basis``, in the coordinates of its rows: column j holds the coordinates
    of (q·ρ(b_j))·q⁻¹ for basis row b_j."""
    if g._realization_solver is None:
        g.from_realization(g.realization[0])  # prime the solver
    solver = g._realization_solver
    transform = [[(k, c) for k, c in enumerate(row) if c] for row in solver.transform.entries]
    cols = []
    for row in basis.ints:
        img = q.mul_rational(g.realize(Element.from_integers(g, basis.den, row))) * q_inv
        rhs = [_prepared(e) for r in img.entries for e in r]
        y = [_sum_of_scaled([(rhs[k], c) for k, c in r]) for r in transform]
        if not all(s.is_zero() for s in y[solver.rank :]):
            raise InternalCheckError("conjugated matrix left the realized algebra")
        x = [LaurentSeries.zero() for _ in range(solver.matrix.cols)]
        for r, p in enumerate(solver.pivots):
            x[p] = y[r]
        cols.append(x)
    return _coordinates_in(basis, pivots, SeriesMatrix._trusted(tuple(zip(*cols))))


def _coordinates_in(basis, pivots, images: SeriesMatrix) -> SeriesMatrix:
    """Coordinates over the rows of ``basis`` (reduced echelon form, leading
    columns ``pivots``) of the columns of ``images``: their entries at the
    pivots.  Off the pivots each image must be the combination of the rows
    those coordinates give, to the tracked precision."""
    coords = SeriesMatrix._trusted(tuple(images.entries[c] for c in pivots))
    rows = [[_prepared(e) for e in row] for row in coords.entries]
    for k in sorted(set(range(basis.cols)) - set(pivots)):
        col = [(row, b) for row, b in zip(rows, basis.column(k)) if b]
        for j, e in enumerate(images.entries[k]):
            terms = [(_prepared(e), -_ONE)] + [(row[j], b) for row, b in col]
            if not _sum_of_scaled(terms).is_zero():
                raise InternalCheckError("curve does not preserve p")
    return coords


def _validate_curve(pair, fwd: SeriesMatrix, bwd: SeriesMatrix, scale: LaurentSeries):
    """Exact identities of a curve w·C on g with companion w·C^{-1}, w the
    scale: fwd·bwd = w²·I, commutation with the involution, and
    w·fwd([x, y]) = [fwd x, fwd y] on basis pairs."""
    g = pair.g
    n = g.dim
    prod = fwd * bwd
    square = scale * scale
    for i in range(n):
        for j in range(n):
            e = prod.entries[i][j]
            if not (e - square if i == j else e).is_zero():
                raise InternalCheckError("curve and its companion are not inverse")
    lhs = fwd.rmul_rational(pair.theta)
    rhs = fwd.mul_rational(pair.theta)
    for i in range(n):
        for j in range(n):
            if not (lhs.entries[i][j] - rhs.entries[i][j]).is_zero():
                raise InternalCheckError("curve does not commute with the involution")
    pairs_to_check = list(itertools.combinations(range(n), 2))
    if len(pairs_to_check) > 240:
        rng = random.Random(11)
        pairs_to_check = rng.sample(pairs_to_check, 240)
    cols = [fwd.column(j) for j in range(n)]
    for i, j in pairs_to_check:
        target = g.bracket(g.basis_element(i), g.basis_element(j))
        lhs_vec = fwd.apply(target.coords)
        rhs_vec = _series_bracket(g, cols[i], cols[j])
        for a, b in zip(lhs_vec, rhs_vec):
            if not (scale * a - b).is_zero():
                raise InternalCheckError("curve does not preserve the bracket")


def _series_bracket(g, xs, ys):
    terms = [[] for _ in range(g.dim)]
    for i, xi in enumerate(xs):
        if xi.is_zero() and xi.is_exact():
            continue
        for j, yj in enumerate(ys):
            if i == j or (yj.is_zero() and yj.is_exact()):
                continue
            prod = _prepared(xi * yj)
            for k, c in g._basis_bracket(i, j).items():
                terms[k].append((prod, c))
    return [_sum_of_scaled(t) for t in terms]


def _restrict_to_p(pair, fwd: SeriesMatrix) -> SeriesMatrix:
    """The p-matrix read off the g-level matrix of a curve: the oracle the
    p-only build is checked against."""
    p_rows = pair.p.basis
    return _coordinates_in(p_rows, rref(p_rows)[1], fwd.mul_rational(p_rows.transpose()))


# -- constructors mirroring the move families


def curve_from_generators(pair, generators, validate=True) -> GroupCurve:
    """Product of exp(t^e ad y) moves for ad-nilpotent y in k."""
    return GroupCurve(pair, [("exp", y, e) for y, e in generators], validate)


def curve_from_cayley(pair, generators, validate=True) -> GroupCurve:
    """Product of Cayley rotation arcs (I + t^e y)(I - t^e y)^{-1} for y in k."""
    return GroupCurve(pair, [("cayley", y, e) for y, e in generators], validate)


def curve_from_torus(pair, weights, validate=True) -> GroupCurve:
    """Conjugation by the one-parameter weight torus diag(t^{w_i})."""
    return GroupCurve(pair, [("torus", tuple(weights))], validate)


def identity_curve(pair) -> GroupCurve:
    return GroupCurve(pair, [], validate=False)


# ---------------------------------------------------------------------------
# magnitude orders


class MagnitudeFlag:
    """Jump exponents a_1 < ... < a_m and the corresponding strict flag of
    the moving plane, stored as combination coordinates over its basis."""

    def __init__(self, jumps, levels, basis):
        self.jumps = list(jumps)
        self.levels = list(levels)
        self.basis = basis

    @property
    def size(self):
        return len(self.jumps)

    def pivot_valuations(self):
        """Magnitude orders with multiplicity, ascending."""
        out = []
        dims = [lvl.rows for lvl in self.levels] + [0]
        for idx, a in enumerate(self.jumps):
            out.extend([a] * (dims[idx] - dims[idx + 1]))
        return out


def _acting_matrix(curve) -> SeriesMatrix:
    """The matrix a plane sees: the p-restriction for group curves."""
    return curve.p_matrix() if isinstance(curve, GroupCurve) else curve.matrix


def magnitude_order(curve, x) -> int:
    """min coordinate valuation of the moving vector; x != 0 required.  An
    Element moves in g coordinates, a plain vector in those planes move in."""
    # an Element's integer coordinates are den times its coordinates, which
    # moves no valuation
    vec = x.ints if isinstance(x, Element) else tuple(x)
    if not any(vec):
        raise DomainError("the zero vector has no magnitude order")
    matrix = curve.matrices()[0] if isinstance(x, Element) else _acting_matrix(curve)
    return min_valuation(matrix.apply(vec))


def _moving_matrix(curve, basis_rows: RationalMatrix) -> SeriesMatrix:
    """Columns are the curve images of the basis rows."""
    return _acting_matrix(curve).mul_rational(basis_rows.transpose())


def _flag_from_moving(moving: SeriesMatrix, basis: RationalMatrix) -> MagnitudeFlag:
    r = basis.rows
    entries = [e for row in moving.entries for e in row]
    start = min_valuation(entries)
    # the entries are Laurent polynomials: past their highest exponent no
    # constraint is new, so a level left there means dependent columns
    top = max(e.val + len(e.coeffs) for e in entries if e.coeffs)
    constraints = []
    dims = []
    level_mats = []
    k = start
    current = RationalMatrix.identity(r)
    while current.rows > 0:
        if k >= top:
            raise InternalCheckError("magnitude flag did not terminate")
        level_mats.append(current)
        dims.append(current.rows)
        for row in moving.entries:
            constraints.append([e.coeff_at(k) for e in row])
        current = nullspace(RationalMatrix(constraints))
        k += 1
    jumps = []
    levels = []
    for idx in range(len(dims)):
        nxt = dims[idx + 1] if idx + 1 < len(dims) else 0
        if dims[idx] > nxt:
            jumps.append(start + idx)
            levels.append(level_mats[idx])
    return MagnitudeFlag(jumps, levels, basis)


def magnitude_flag(curve, plane) -> MagnitudeFlag:
    """The flag of the plane by magnitude order along the curve.

    Levels are the exact solution spaces of the coefficient equations; their
    linearity is by construction, and membership is cross-checked against
    directly computed magnitude orders by the test-suite invariants.
    """
    basis = plane.matrix if isinstance(plane, Plane) else plane
    return _flag_from_moving(_moving_matrix(curve, basis), basis)


def _extend_basis(smaller: RationalMatrix, larger: RationalMatrix):
    """Rows of larger completing a basis of smaller, which has full rank, to
    one of larger: the rows of larger independent of the rows before them
    in the stack of smaller over larger, read off the pivot columns of one
    elimination of its transpose."""
    pivots = rref(_stacked(smaller, larger).transpose())[1]
    extra = [larger.row(p - smaller.rows) for p in pivots if p >= smaller.rows]
    if smaller.rows + len(extra) != larger.rows:
        raise InternalCheckError("basis extension failed")
    return extra


def magnitude_basis(curve, plane):
    """A basis of the plane adapted to the magnitude flag, ordered by
    non-decreasing magnitude order.

    Returns a list of (combination row over the plane basis, magnitude order).
    """
    return _adapted_basis(magnitude_flag(curve, plane))


def _adapted_basis(flag: MagnitudeFlag, split=None):
    """``magnitude_basis`` from the plane's magnitude flag.

    With ``split`` (subspaces summing directly to the plane, each a list of
    vectors in the coordinates of the plane basis) every returned vector
    lies in a single summand; the existence of such a basis is a theorem, so
    failure of the levels to decompose against the split is a hard error,
    not a retry."""
    basis = flag.basis
    r = basis.rows
    split_combos = None
    if split is not None:
        split_combos = []
        for summand in split:
            rows = []
            for vec in summand:
                combo = coordinates_in_row_space(basis, vec)
                if combo is None:
                    raise DomainError("split summand is not inside the plane")
                rows.append(list(combo))
            split_combos.append(
                row_space(RationalMatrix(rows)) if rows else RationalMatrix.zero(0, r)
            )
        total = sum(m.rows for m in split_combos)
        if total != r:
            raise DomainError("split summands do not decompose the plane")

    levels = flag.levels + [RationalMatrix.zero(0, r)]
    jumps = flag.jumps
    chosen = []  # (combo, omega), deepest level first
    for idx in range(len(jumps) - 1, -1, -1):
        level = levels[idx]
        deeper = levels[idx + 1]
        if split_combos is None:
            for row in _extend_basis(deeper, level):
                chosen.append((row, jumps[idx]))
        else:
            added = 0
            for summand in split_combos:
                inner_deep = intersect_row_spaces(summand, deeper)
                inner_level = intersect_row_spaces(summand, level)
                for row in _extend_basis(inner_deep, inner_level):
                    chosen.append((row, jumps[idx]))
                    added += 1
            if added != level.rows - deeper.rows:
                raise InternalCheckError(
                    "magnitude flag does not decompose against the split; "
                    "this would falsify the adapted-basis existence theorem"
                )
    chosen.sort(key=lambda t: t[1])
    return chosen


# ---------------------------------------------------------------------------
# limits


class LimitComputation:
    """Everything the double computation of one limit produces.

    ``constant_frame_ok`` records whether a basis of the plane itself
    realized the module profile (the generic situation); when it did not,
    ``surfaced`` carries the instance data verbatim and the limit was
    computed through the series-adapted module frame instead.  Either way
    the result is cross-checked against the Plücker-valuation route.
    ``flag`` is the magnitude flag of the plane the adapted basis came from,
    and ``moving`` the matrix whose columns are the moving basis of the plane.
    """

    def __init__(self, plane, orders, wedge_valuation, constant_frame_ok, surfaced, flag, moving):
        self.plane = plane
        self.orders = orders  # the orders the tempered frame is read at
        self.wedge_valuation = wedge_valuation
        self.constant_frame_ok = constant_frame_ok
        self.surfaced = surfaced
        self.flag = flag
        self.moving = moving

    def omegas(self):
        return list(self.orders)


def limit_plane(curve, plane):
    """The limit of the moving plane at t = 0, via an adapted tempered frame,
    cross-checked exactly against the Plücker-valuation route.

    Raises InternalCheckError when the two routes disagree (they never may).
    """
    return limit_computation(curve, plane).plane


def limit_computation(curve, plane) -> LimitComputation:
    """The double computation of the limit of the moving plane at t = 0."""
    basis = plane.matrix if isinstance(plane, Plane) else plane
    r = basis.rows
    moving = _moving_matrix(curve, basis)
    flag = _flag_from_moving(moving, basis)
    adapted = _adapted_basis(flag)
    vectors = RationalMatrix([c for c, _ in adapted]) * basis
    moved = _moving_matrix(curve, vectors)

    # wedge additivity on every initial segment of the adapted basis; a
    # failure here is not a bug but an obstruction instance: no basis of the
    # plane itself realizes the module profile, and the limit must be taken
    # through a series-adapted frame instead (surfaced, never patched over)
    omegas = [om for _, om in adapted]
    obstruction_stage = _additivity_break(moved, omegas)
    surfaced = None
    if obstruction_stage is None:
        orders = omegas
        frame = _tempered_frame(moved, orders)
    else:
        record, orders = valuation_adapted_reduce(moving)
        frame = _tempered_frame(record.reduced, orders)
        surfaced = {
            "flag_profile": omegas,
            "module_profile": orders,
            "obstruction_stage": obstruction_stage,
            "plane": [[str(c) for c in row] for row in basis.entries],
        }

    # oracle route: leading coefficients of the Plücker coordinates
    minors = _stage_minors(moving, r)
    wedge_val = min_valuation(list(minors.values()))
    oracle = {k: v.coeff_at(wedge_val) for k, v in minors.items()}

    if isinstance(plane, Plane):
        limit = Plane(plane.pair, frame)
        limit_pl = limit.plucker()
    else:
        limit = row_space(frame)
        limit_pl = PluckerVector.from_matrix(limit)
    if not limit_pl.proportional_to(PluckerVector(moving.rows, r, oracle)):
        raise InternalCheckError(
            "tempered-frame limit disagrees with the Plücker-valuation oracle"
        )
    return LimitComputation(
        limit, orders, wedge_val, obstruction_stage is None, surfaced, flag, moving
    )


def _tempered_frame(matrix: SeriesMatrix, orders) -> RationalMatrix:
    """The tempered frame at t = 0: row j is column j of ``matrix`` read at
    t^orders[j].  Raises unless the rows stay independent."""
    frame = RationalMatrix([
        [e.coeff_at(om) for e in matrix.column(j)] for j, om in enumerate(orders)
    ])
    if rank(frame) != len(orders):
        raise InternalCheckError("tempered frame does not stay a frame at t = 0")
    return frame


def _additivity_break(moved: SeriesMatrix, orders):
    """The first stage k at which the wedge of the first k columns of
    ``moved`` has valuation other than Σ orders[:k], or None when every
    stage adds up.  By multilinearity the wedge of columns of valuations at
    least ``orders`` never has a smaller valuation; that raises."""
    total = 0
    for k, om in enumerate(orders, 1):
        total += om
        wedge_val = min_valuation(list(_stage_minors(moved, k).values()))
        if wedge_val < total:
            raise InternalCheckError("wedge valuation below the profile sum; impossible")
        if wedge_val > total:
            return k
    return None


def _stage_minors(moved: SeriesMatrix, k: int) -> dict:
    """The k×k minors of ``moved`` on its first k columns, keyed by their
    row indices: the stage-k wedge of its first k columns."""
    cols = tuple(range(k))
    return {
        rows_idx: moved.minor(rows_idx, cols)
        for rows_idx in itertools.combinations(range(moved.rows), k)
    }


def non_adapted_additivity_fails(curve, plane) -> bool:
    """Negative control: when the flag is nontrivial, spoiling the deepest
    adapted vector must break wedge additivity at some stage.

    Returns True when the control triggered, False when the flag is trivial
    (one jump) and there is nothing to test.
    """
    basis = plane.matrix if isinstance(plane, Plane) else plane
    adapted = magnitude_basis(curve, plane)
    omegas = [om for _, om in adapted]
    if len(set(omegas)) < 2:
        return False
    i = omegas.index(min(omegas))
    j = omegas.index(max(omegas))
    combos = [list(c) for c, _ in adapted]
    combos[j] = [a + b2 for a, b2 in zip(combos[j], combos[i])]
    vectors = RationalMatrix(combos) * basis
    moved = _moving_matrix(curve, vectors)
    spoiled = [min_valuation(moved.column(c)) for c in range(len(combos))]
    if _additivity_break(moved, spoiled) is None:
        raise InternalCheckError(
            "non-adapted basis satisfied wedge additivity; "
            "this would falsify the adaptedness criterion"
        )
    return True


# ---------------------------------------------------------------------------
# rigidity


class RigidityReport:
    """Per-degeneration certificate for the rigidity of semisimple parts."""

    def __init__(self, limit, cj_closed, entries, semisimple_span_dim, witness_pairs,
                 frame_obstructed):
        self.limit = limit
        self.cj_closed = cj_closed
        self.entries = entries  # (source, omega, target, kind)
        self.semisimple_span_dim = semisimple_span_dim
        self.witness_pairs = witness_pairs  # (s1, s0) with c(t) s1 -> s0
        self.frame_obstructed = frame_obstructed

    def summary(self):
        return {
            "cj_closed": self.cj_closed,
            "omegas": [om for _, om, _, _ in self.entries],
            "kinds": [kind for _, _, _, kind in self.entries],
            "semisimple_span_dim": self.semisimple_span_dim,
            "witnesses": len(self.witness_pairs),
            "frame_obstructed": self.frame_obstructed,
        }


def rigidity_check(curve: GroupCurve, plane: Plane) -> RigidityReport:
    """Degenerate an abelian, Chevalley-Jordan-closed plane and certify that:
    the limit is abelian and closed again; semisimple limit vectors arise
    with magnitude order zero from semisimple sources; and the semisimple
    span of the limit is reached from inside the source plane.

    When the instance carries a tempered-frame obstruction (no basis of the
    plane realizes the module profile), the split-adapted bookkeeping is
    unavailable; the instance is surfaced and the certificate is produced
    directly: for each semisimple direction of the limit, a semisimple
    source of magnitude order zero converging to it is found by exact linear
    algebra.  On both branches every witness pair is then checked at run
    time: the curve translate of the source has no pole and equals the
    target at t = 0.  Any failed clause is a hard error: it would falsify
    the rigidity theorem on a concrete instance.
    """
    pair = plane.pair
    if not is_anisotropic_subalgebra(plane):
        raise DomainError("rigidity applies to abelian planes")
    s_span, n_span = semisimple_nilpotent_split(plane)
    sub = plane.to_subspace()
    if not sub.contains_subspace(s_span):
        raise DomainError("plane is not closed under the Chevalley-Jordan split")

    basis = plane.matrix
    comp = limit_computation(curve, plane)
    limit = comp.plane
    if not is_anisotropic_subalgebra(limit):
        raise InternalCheckError("limit of an abelian plane is not abelian")
    limit_s_span, _ = semisimple_nilpotent_split(limit)
    closed = limit.to_subspace().contains_subspace(limit_s_span)
    if not closed:
        raise InternalCheckError("limit of a CJ-closed plane is not CJ-closed")

    cmat = curve.p_matrix()
    basis_t = basis.transpose()  # takes a combination of the basis rows to its vector
    entries = []
    witness_pairs = []

    if comp.constant_frame_ok:
        # full bookkeeping through a basis split into pure types
        split = [[pair.to_p_coords(e) for e in span.basis_elements()] for span in (s_span, n_span)]
        for combo, om in _adapted_basis(comp.flag, split):
            vec = basis_t.apply(combo)
            source = pair.from_p_coords(vec)
            moved = cmat.apply(vec)
            target = pair.from_p_coords([s.coeff_at(om) for s in moved])
            source_kind = classify_element(source)
            target_kind = classify_element(target)
            if source_kind not in ("semisimple", "nilpotent"):
                raise InternalCheckError("split-adapted basis vector is neither pure type")
            if source_kind == "nilpotent" and target_kind not in ("nilpotent", "zero"):
                raise InternalCheckError("a nilpotent source degenerated to a non-nilpotent")
            if target_kind == "semisimple":
                if source_kind != "semisimple":
                    raise InternalCheckError("semisimple limit vector from a nilpotent source")
                if om != 0:
                    raise InternalCheckError(
                        "semisimple limit vector with nonzero magnitude order"
                    )
                witness_pairs.append((source, target))
            entries.append((source, om, target, f"{source_kind}->{target_kind}"))
        target_span = pair.g.subspace([t for _, t in witness_pairs]) \
            if witness_pairs else Subspace(pair.g, RationalMatrix.zero(0, pair.g.dim))
        if limit_s_span != target_span:
            raise InternalCheckError(
                "semisimple span of the limit is not spanned by the zero-order targets"
            )
    elif limit_s_span.dim:
        # obstructed instance: certify the semisimple directions one by one
        rows = _order_rows(comp.moving)
        for target in limit_s_span.basis_elements():
            source = _zero_order_witness(pair, rows, basis, target)
            witness_pairs.append((source, target))
            entries.append((source, 0, target, "semisimple->semisimple"))

    for source, target in witness_pairs:
        moved = cmat.apply(pair.to_p_coords(source))
        if any(not s.is_zero() and s.val < 0 for s in moved) or \
                pair.from_p_coords([s.at_zero() for s in moved]) != target:
            raise InternalCheckError("curve translate does not converge to its target")

    return RigidityReport(
        limit, closed, entries, limit_s_span.dim, witness_pairs,
        frame_obstructed=not comp.constant_frame_ok,
    )


def _order_rows(moving: SeriesMatrix) -> RationalMatrix:
    """The coefficients of ``moving`` at t^j for every j <= 0, one block of
    ``moving.rows`` rows per j, from the lowest order up to j = 0.  A
    combination of the columns has no negative order exactly when every
    block but the last annihilates it; the last block gives its value at
    t = 0."""
    j_min = min_valuation([e for row in moving.entries for e in row])
    return RationalMatrix([
        [e.coeff_at(j) for e in row]
        for j in range(min(j_min, 0), 1)
        for row in moving.entries
    ])


def _zero_order_witness(pair, rows: RationalMatrix, basis, target: Element) -> Element:
    """A semisimple element of the plane (rows of ``basis``) whose moving
    image has no negative order and value the target at t = 0, the
    conditions ``rows`` states in the form of ``_order_rows``.  A particular
    solution that is not semisimple is moved through the solution space
    until it is; no semisimple solution raises."""
    coords = pair.to_p_coords(target)
    combo = solve(rows, [_ZERO] * (rows.rows - len(coords)) + list(coords))
    if combo is None:
        raise InternalCheckError(
            "no source of magnitude order zero converges to a "
            "semisimple limit direction; this would falsify rigidity"
        )
    base = basis.transpose().apply(combo)
    source = pair.from_p_coords(base)
    if classify_element(source) == "semisimple":
        return source
    steps = (nullspace(rows) * basis).entries
    for scale in range(1, 8):
        for step in steps:
            vec = [a + scale * b for a, b in zip(base, step)]
            cand = pair.from_p_coords(vec)
            if classify_element(cand) == "semisimple":
                return cand
    raise InternalCheckError(
        "no semisimple source found in the witness solution space; "
        "this would falsify rigidity"
    )


# ---------------------------------------------------------------------------
# sampled harnesses


def stabilizer_dimension(plane: Plane) -> int:
    """dim{y in k : [y, plane] ⊆ plane}."""
    return normalizer_dimension(plane.to_subspace(), plane.pair.k.basis_elements())


class DescentTrace:
    def __init__(self, steps, final_plane, nilpotent, stabilizer_dims):
        self.steps = steps
        self.final_plane = final_plane
        self.nilpotent = nilpotent
        self.stabilizer_dims = stabilizer_dims


def descend_to_closed(pair, plane: Plane, step_budget=12, seed=0, tries_per_step=24) -> DescentTrace:
    """Push a plane known to be a limit of Cartan subspaces toward smaller
    orbits: a sampled curve step is accepted when the k-stabilizer dimension
    strictly increases.  Stops at the step budget or stagnation and reports
    whether the final plane lies in the nilpotent cone.

    This is sampled evidence, not a certificate of orbit closedness.
    """
    rng = random.Random(seed)
    current = plane
    dims = [stabilizer_dimension(current)]
    steps = 0
    while steps < step_budget:
        improved = False
        for _ in range(tries_per_step):
            curve = _sample_degeneration_curve(pair, rng)
            if curve is None:
                break
            candidate = limit_plane(curve, current)
            d = stabilizer_dimension(candidate)
            if d > dims[-1]:
                current = candidate
                dims.append(d)
                improved = True
                steps += 1
                break
        if not improved:
            break
    nilp = not any(
        classify_element(x) != "nilpotent"
        for x in current.basis_elements()
        if not x.is_zero()
    ) and semisimple_part_matrix(current).is_zero()
    return DescentTrace(steps, current, nilp, dims)


def _sample_degeneration_curve(pair, rng):
    nils = k_nilpotent_elements(pair, rng, count=rng.choice([1, 2]))
    moves = []
    if nils:
        for y in nils:
            moves.append(("exp", y, rng.choice([-1, -1, -2])))
    elif pair.g.realization is not None:
        y = _random_k_element(pair, rng)
        if y is None:
            return None
        moves.append(("cayley", y, rng.choice([-1, -2])))
    if not moves:
        return None
    return GroupCurve(pair, moves, validate=False)


def _random_k_element(pair, rng):
    coords = [rng.randint(-2, 2) for _ in range(pair.k.dim)]
    vec = Element.from_integers(pair.g, *combine_rows(coords, pair.k.basis))
    return None if vec.is_zero() else vec


def tempered_element_limit(curve: GroupCurve, x: Element):
    """Limit of the line through x: the tempered value of the moving vector.

    The p-matrix of a group curve is exact, so the valuation of the moved
    vector is always decided."""
    pair = curve.pair
    moved = curve.p_matrix().apply(pair.to_p_coords(x))
    om = min_valuation(moved)
    return pair.from_p_coords([s.coeff_at(om) for s in moved]), om


# ---------------------------------------------------------------------------
# closures of decomposition classes, by sampling


class ClassClosureReport:
    """Sampled evidence that class closures are unions of classes: the map
    from a source signature to the signatures observed among its limits."""

    def __init__(self, source, reached, consistency_ok):
        self.source = source
        self.reached = reached  # set of signatures
        self.consistency_ok = consistency_ok


def class_closure_sample(pair, x: Element, samples=40, seed=0) -> ClassClosureReport:
    """Sample points of the decomposition class of x and curves in the fixed
    group; collect the signatures of the tempered limits of the moving
    points.  A second independent round re-derives every signature seen in
    the first; signatures that fail to reappear mark sampling noise, not a
    falsification, and are reported through ``consistency_ok``.
    """
    source_sig = decomposition_signature(pair, x)
    rounds = []
    for round_seed in (seed * 2 + 1, seed * 2 + 2):
        local = random.Random(round_seed)
        reached = set()
        for _ in range(max(1, samples // 2)):
            point = _sample_class_point(pair, x, local)
            curve = _sample_class_curve(pair, local)
            try:
                limit, _ = tempered_element_limit(curve, point)
                reached.add(decomposition_signature(pair, limit))
            except IrrationalSpectrumError:
                continue
        reached.add(source_sig)  # the identity curve
        rounds.append(reached)
    return ClassClosureReport(source_sig, rounds[0] | rounds[1], rounds[0] == rounds[1])


def _sample_class_point(pair, x: Element, rng) -> Element:
    """A point of D(x) = K · (open part of the double centralizer of x_s
    plus x_n): a perturbed double-centralizer mate of the semisimple part,
    translated by a sampled fixed-group automorphism."""
    g = pair.g
    s, n = jordan_chevalley(x)
    target = decomposition_signature(pair, x)
    dc = double_centralizer(pair, s) if not s.is_zero() else None
    for _ in range(40):
        if dc is None or dc.dim == 0:
            cand = x
        else:
            coeffs = [rng.randint(-3, 3) for _ in range(dc.dim)]
            cand = Element.from_integers(g, *combine_rows(coeffs, dc.basis)) + n
        if rng.random() < 0.5:
            auto = RationalMatrix.identity(g.dim)
        else:
            auto = sample_k_automorphism(pair, rng)
        moved = Element(g, auto.apply(cand.coords))
        try:
            if decomposition_signature(pair, moved) == target:
                return moved
        except (IrrationalSpectrumError, DomainError):
            continue
    return x


def _sample_class_curve(pair, rng) -> GroupCurve:
    """Torus, unipotent and mixed arcs; positive torus weights matter, they
    realize specializations inside a class."""
    kind = rng.random()
    n = pair.g.realization[0].rows // 2
    if kind < 0.45:
        weights = _random_weights(n, rng)
        return curve_from_torus(pair, weights, validate=False)
    if kind < 0.8:
        nils = k_nilpotent_elements(pair, rng, count=1)
        if nils:
            return curve_from_generators(pair, [(nils[0], rng.choice([-1, -2]))], validate=False)
        return identity_curve(pair)
    weights = _random_weights(n, rng)
    nils = k_nilpotent_elements(pair, rng, count=1)
    moves = [("torus", tuple(weights))]
    if nils:
        moves.append(("exp", nils[0], rng.choice([-1, 1])))
    return GroupCurve(pair, moves, validate=False)


def _random_weights(n, rng):
    while True:
        w = [rng.randint(-2, 2) for _ in range(n)]
        if any(w):
            return w


def companion_translate(pair, x: Element) -> Element:
    """Conjugate a regular anti-diagonal element to companion form: an exact
    fixed-group translate whose matrix has staircase support, the shape the
    weight-torus arcs degenerate most productively."""
    g = pair.g
    y = _square_factor_matrix(pair, x)
    n = y.rows
    for trial in range(1, 6):
        v = [rat(1 if i == 0 else trial**i) for i in range(n)]
        cols = []
        cur = list(v)
        for _ in range(n):
            cols.append(cur)
            cur = list(y.apply(cur))
        gmat = RationalMatrix(list(zip(*cols)))
        det = gmat.det()
        if det == 0:
            continue
        scaled = RationalMatrix(
            [[e / det if j == 0 else e for j, e in enumerate(row)] for row in gmat.entries]
        )
        ginv = LinearSolver(scaled).inverse()
        comp = ginv * y * scaled
        return g.from_realization(_antidiagonal_realization(comp))
    raise DomainError("element is not cyclic; companion form unavailable")
