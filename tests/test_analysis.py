import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reductions.errors import DomainError
from reductions.exact import RationalMatrix, rat
from reductions.liealg import Element, classify_element
from reductions.pairs import sample_k_automorphism, singular_kernels, square_of
from reductions.planes import cartan_plane, is_anisotropic_subalgebra, plane_from_basis
from reductions.analysis import (
    DecompositionSignature,
    IncidencePoint,
    _adjugate_coefficients,
    all_signatures,
    centralizer_map,
    decomposition_signature,
    double_centralizer,
    is_regular,
    jacobian_map,
    make_subvariety,
    nonalgebraic_witness,
    signature_genericity,
    signature_is_degeneration,
    signature_representative,
)

try:
    import sympy
except ImportError:  # the oracle test needs it; the rest of the file does not
    sympy = None


def square_element(pair, mat):
    n = mat.rows
    rows = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            if i < n and j < n:
                row.append(mat.entries[i][j])
            elif i >= n and j >= n:
                row.append(-mat.entries[i - n][j - n])
            else:
                row.append(rat(0))
        rows.append(row)
    return pair.g.from_realization(RationalMatrix(rows))


def D(*vals):
    n = len(vals)
    return RationalMatrix([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])


def E(n, i, j):
    m = [[rat(0)] * n for _ in range(n)]
    m[i][j] = rat(1)
    return RationalMatrix(m)


# -- regularity and the centralizer map


def test_is_regular():
    pair = square_of("sl3")
    x = square_element(pair, D(1, 2, -3))
    assert is_regular(pair, x)
    assert not is_regular(pair, pair.g.zero())


def test_regular_nilpotent_sl2():
    pair = square_of("sl2")
    e = square_element(pair, E(2, 0, 1))
    assert is_regular(pair, e)
    plane = centralizer_map(pair, e)
    assert plane.dim == 1 and plane.contains(e)
    from reductions.planes import is_special_reduction

    assert is_special_reduction(plane, known_in_r=True)


def test_centralizer_map_semisimple_gives_cartan():
    pair = square_of("sl3")
    x = square_element(pair, D(1, 2, -3))
    plane = centralizer_map(pair, x)
    assert plane == cartan_plane(pair)
    assert centralizer_map(pair, 5 * x) == plane  # scale invariance


def test_centralizer_map_rejects_irregular():
    pair = square_of("sl3")
    with pytest.raises(DomainError):
        centralizer_map(pair, square_element(pair, D(1, 1, -2)))


def test_centralizer_map_rejects_outside_p():
    pair = square_of("sl3")
    x = pair.k.basis_elements()[0]
    assert not pair.p.contains(x)
    with pytest.raises(DomainError):
        centralizer_map(pair, x)


def test_centralizer_map_k_equivariant():
    pair = square_of("sl3")
    rng = random.Random(12)
    x = square_element(pair, D(1, 2, -3))
    auto = sample_k_automorphism(pair, rng)
    moved = Element(pair.g, auto.apply(x.coords))
    lhs = centralizer_map(pair, moved)
    base = centralizer_map(pair, x)
    moved_base = plane_from_basis(
        pair, [Element(pair.g, auto.apply(b.coords)) for b in base.basis_elements()]
    )
    assert lhs == moved_base


def test_incidence_point_membership():
    pair = square_of("sl3")
    x = square_element(pair, D(1, 2, -3))
    plane = centralizer_map(pair, x)
    IncidencePoint(plane, x)
    with pytest.raises(DomainError):
        IncidencePoint(plane, square_element(pair, E(3, 0, 1)))


# -- signatures


def test_signature_equal_for_conjugate_centralizers():
    pair = square_of("sl3")
    a = decomposition_signature(pair, square_element(pair, D(1, 2, -3)))
    b = decomposition_signature(pair, square_element(pair, D(4, 5, -9)))
    assert a == b
    assert a.blocks == ((1, (1,)), (1, (1,)), (1, (1,)))


def test_signature_distinguishes_multiplicities():
    pair = square_of("sl3")
    a = decomposition_signature(pair, square_element(pair, D(1, 1, -2)))
    b = decomposition_signature(pair, square_element(pair, D(1, 2, -3)))
    assert a != b
    assert a.blocks == ((2, (1, 1)), (1, (1,)))


def test_signature_nilpotent_jordan_type():
    pair = square_of("sl3")
    x = square_element(pair, E(3, 0, 1))
    sig = decomposition_signature(pair, x)
    assert sig.blocks == ((3, (2, 1)),)


def test_signature_constant_on_k_orbit():
    pair = square_of("sl3")
    rng = random.Random(5)
    x = square_element(pair, D(1, 1, -2) + E(3, 0, 1))
    sig = decomposition_signature(pair, x)
    for _ in range(3):
        auto = sample_k_automorphism(pair, rng)
        assert decomposition_signature(pair, Element(pair.g, auto.apply(x.coords))) == sig


def test_signature_constant_on_double_centralizer_perturbation():
    pair = square_of("sl3")
    rng = random.Random(8)
    x = square_element(pair, D(1, 1, -2))
    dc = double_centralizer(pair, x)
    sig = decomposition_signature(pair, x)
    hits = 0
    for _ in range(8):
        coords = [rat(rng.randint(-3, 3)) for _ in range(dc.dim)]
        v = pair.g.zero()
        for c, row in zip(coords, dc.basis.entries):
            v = v + c * Element(pair.g, row)
        if v.is_zero():
            continue
        if decomposition_signature(pair, v) == sig:
            hits += 1
    assert hits > 0  # the open part is dense; generic draws land in it


def test_all_signatures_sl3_count():
    sigs = all_signatures(3)
    assert len(sigs) == 6


def test_signature_representative_roundtrip():
    pair = square_of("sl3")
    for sig in all_signatures(3):
        x = signature_representative(pair, sig)
        assert decomposition_signature(pair, x) == sig


# -- genericity order


def S(n, *blocks):
    return DecompositionSignature(n, blocks)


def test_genericity_regss_vs_regnilp():
    reg_ss = S(3, (1, (1,)), (1, (1,)), (1, (1,)))
    reg_nilp = S(3, (3, (3,)))
    assert signature_genericity(reg_ss, reg_nilp) == "more_general"
    assert signature_genericity(reg_nilp, reg_ss) == "less_general"


def test_genericity_equal():
    a = S(3, (2, (2,)), (1, (1,)))
    assert signature_genericity(a, a) == "equal"


def test_genericity_within_fixed_multiplicities():
    with_jordan = S(3, (2, (2,)), (1, (1,)))
    without = S(3, (2, (1, 1)), (1, (1,)))
    assert signature_genericity(with_jordan, without) == "more_general"


def test_genericity_incomparable():
    a = S(4, (2, (2,)), (2, (1, 1)))
    b = S(4, (3, (1, 1, 1)), (1, (1,)))
    # multiplicities {2,2} cannot coarsen to {3,1}
    assert signature_genericity(a, b) == "incomparable"


def test_degeneration_rule_merge_bound():
    two_blocks = S(3, (2, (1, 1)), (1, (1,)))
    assert signature_is_degeneration(two_blocks, S(3, (3, (2, 1))))
    assert signature_is_degeneration(two_blocks, S(3, (3, (1, 1, 1))))
    assert not signature_is_degeneration(two_blocks, S(3, (3, (3,))))


def test_genericity_rule_is_a_partial_order():
    # the merge-and-dominate rule must itself be reflexive, antisymmetric
    # and transitive on the full signature lists
    for n in (3, 4):
        sigs = all_signatures(n)
        for a in sigs:
            assert signature_is_degeneration(a, a)
        for a in sigs:
            for b in sigs:
                if a != b:
                    assert not (
                        signature_is_degeneration(a, b)
                        and signature_is_degeneration(b, a)
                    )
        for a in sigs:
            for b in sigs:
                if not signature_is_degeneration(a, b):
                    continue
                for c in sigs:
                    if signature_is_degeneration(b, c):
                        assert signature_is_degeneration(a, c)


# -- subvarieties


def test_subvariety_full_anchor_is_point():
    pair = square_of("sl3")
    sv = make_subvariety(pair, pair.cartan)
    assert sv.centralizer_pair.rank == pair.rank
    assert sv.centralizer_pair.p.dim == pair.rank  # p' = a, a single point
    assert sv.contains(cartan_plane(pair))


def test_subvariety_root_kernel():
    pair = square_of("sl3")
    z = singular_kernels(pair)[0].kernel
    sv = make_subvariety(pair, z)
    assert sv.centralizer_pair.rank == pair.rank
    from reductions.pairs import dim_reduction_variety

    assert dim_reduction_variety(sv.centralizer_pair) == 2
    assert sv.contains(cartan_plane(pair))
    # transport a plane into the centralizer pair and back
    a = cartan_plane(pair)
    inner = sv.to_sub_plane(a)
    assert sv.to_ambient_plane(inner) == a


def test_subvariety_zero_anchor():
    pair = square_of("sl2")
    zero = pair.g.subspace([])
    sv = make_subvariety(pair, zero)
    assert sv.centralizer_pair.g.dim == pair.g.dim
    assert sv.contains(cartan_plane(pair))


# -- Jacobian comparison


def test_jacobian_sl2():
    pair = square_of("sl2")
    x = square_element(pair, D(1, -1))
    pv = jacobian_map(pair, x)
    assert pv.proportional_to(centralizer_map(pair, x).plucker())


def test_jacobian_sl3_random_regular():
    pair = square_of("sl3")
    rng = random.Random(3)
    found = 0
    while found < 5:
        mat = RationalMatrix(
            [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        )
        tr = mat.trace()
        mat = mat - RationalMatrix.identity(3) * rat(tr, 3)
        x = square_element(pair, mat)
        if x.is_zero() or not is_regular(pair, x):
            continue
        pv = jacobian_map(pair, x)
        assert pv.proportional_to(centralizer_map(pair, x).plucker())
        found += 1


def test_jacobian_sl4_regular():
    pair = square_of("sl4")
    mat = RationalMatrix([[1, 2, 0, -1], [0, -1, 1, 3], [2, 0, 1, 1], [1, 1, 0, -1]])
    x = square_element(pair, mat)
    assert is_regular(pair, x)
    pv = jacobian_map(pair, x)
    assert pv.r == 3 and pv.proportional_to(centralizer_map(pair, x).plucker())


def test_jacobian_irregular_vanishes():
    pair = square_of("sl3")
    with pytest.raises(DomainError):
        jacobian_map(pair, square_element(pair, D(1, 1, -2)))


# -- the gradient route: Jacobi's formula on the adjugate coefficients
#
# The derivative of c_k, the coefficient of λ^{n-k} in det(λI - y), along d
# is -tr(N_{k-1}·d) with adj(λI - y) = Σ λ^{n-1-k} N_k.  Two independent
# references give the same derivative: sympy's characteristic polynomial of
# y + εd, and the dual-number trace recursion the Jacobian map once ran per
# direction.


class _Dual:
    """a + b·eps with eps^2 = 0."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __add__(self, o):
        return _Dual(self.a + o.a, self.b + o.b)

    def __mul__(self, o):
        return _Dual(self.a * o.a, self.a * o.b + self.b * o.a)


def _dual_char_derivatives(y, d):
    """[c_1', ..., c_n'] along d, by the trace recursion
    M_k = (y + εd)(M_{k-1} + c_{k-1}I), c_k = -tr(M_k)/k over dual numbers."""
    n = y.rows
    m = [[_Dual(y.entries[i][j], d.entries[i][j]) for j in range(n)] for i in range(n)]
    acc = [[_Dual(int(i == j)) for j in range(n)] for i in range(n)]
    out = []
    for k in range(1, n + 1):
        acc = [
            [sum((m[i][t] * acc[t][j] for t in range(n)), _Dual(0)) for j in range(n)]
            for i in range(n)
        ]
        tr = sum((acc[i][i] for i in range(n)), _Dual(0))
        c = _Dual(-tr.a / k, -tr.b / k)
        out.append(c.b)
        for i in range(n):
            acc[i][i] = acc[i][i] + c
    return out


def _adjugate_derivatives(y, d):
    """[c_1', ..., c_n'] along d from -tr(N_{k-1}·d)."""
    return [-(adj * d).trace() for adj in _adjugate_coefficients(y)]


@st.composite
def matrix_and_direction(draw):
    """(y, d), integer n x n with n = 2..4; y is drawn as it comes, singular
    (last row a combination of the others) or nilpotent (strictly upper
    triangular)."""
    n = draw(st.integers(min_value=2, max_value=4))
    entry = st.integers(min_value=-3, max_value=3)
    y = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["any", "singular", "nilpotent"]))
    if shape == "singular":
        coefs = [draw(entry) for _ in range(n - 1)]
        y[-1] = [sum(c * row[j] for c, row in zip(coefs, y)) for j in range(n)]
    elif shape == "nilpotent":
        y = [[a if j > i else 0 for j, a in enumerate(row)] for i, row in enumerate(y)]
    d = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return RationalMatrix(y), RationalMatrix(d)


@pytest.mark.skipif(sympy is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(matrix_and_direction())
def test_adjugate_gradient_matches_sympy_charpoly(yd):
    y, d = yd
    n = y.rows
    lam, eps = sympy.symbols("lam eps")
    moved = sympy.Matrix(n, n, [int(a) + eps * int(b) for a, b in zip(y.vec(), d.vec())])
    coeffs = moved.charpoly(lam).all_coeffs()
    expected = [
        Fraction(int(sympy.Poly(c, eps).coeff_monomial(eps)))
        for c in coeffs[1:]
    ]
    assert _adjugate_derivatives(y, d) == expected


@settings(max_examples=60, deadline=None)
@given(matrix_and_direction())
def test_adjugate_gradient_matches_dual_recursion(yd):
    y, d = yd
    assert _adjugate_derivatives(y, d) == _dual_char_derivatives(y, d)


# -- the non-algebraic witness


def test_nonalgebraic_witness():
    pair, plane, s_el = nonalgebraic_witness(5)
    assert plane.dim == 4
    assert is_anisotropic_subalgebra(plane)
    from reductions.planes import is_cj_closed

    assert not is_cj_closed(plane)
    assert not plane.contains(s_el)
    assert classify_element(s_el) == "semisimple"


def test_nonalgebraic_witness_needs_rank():
    with pytest.raises(DomainError):
        nonalgebraic_witness(4)
