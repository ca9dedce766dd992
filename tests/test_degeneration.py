import copy
import random
from fractions import Fraction

import pytest

from reductions.errors import DomainError, InternalCheckError
from reductions.exact import LaurentSeries, RationalMatrix, SeriesMatrix, rat
from reductions.liealg import Subspace, classify_element
from reductions.pairs import k_nilpotent_elements, make_transpose_pair, square_of
from reductions.planes import (
    cartan_plane,
    is_anisotropic_subalgebra,
    is_cj_closed,
    plane_from_basis,
)
from reductions.degeneration import (
    GroupCurve,
    MonomialCurve,
    VectorCurve,
    class_closure_sample,
    curve_from_cayley,
    curve_from_generators,
    curve_from_torus,
    descend_to_closed,
    identity_curve,
    limit_computation,
    limit_plane,
    magnitude_basis,
    magnitude_flag,
    magnitude_order,
    non_adapted_additivity_fails,
    stabilizer_dimension,
    tempered_element_limit,
)


def E(n, i, j):
    m = [[rat(0)] * n for _ in range(n)]
    m[i][j] = rat(1)
    return RationalMatrix(m)


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


def diag_k_element(pair, mat):
    """(x, x) element of k for a Cartesian square."""
    n = mat.rows
    rows = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            if i < n and j < n:
                row.append(mat.entries[i][j])
            elif i >= n and j >= n:
                row.append(mat.entries[i - n][j - n])
            else:
                row.append(rat(0))
        rows.append(row)
    return pair.g.from_realization(RationalMatrix(rows))


TOY = MonomialCurve([0, 1, 2])
TOY_PLANE = RationalMatrix([[1, 1, 0], [0, 1, 1]])


# -- toy vector-space mode (hand-checkable values)


def test_magnitude_order_toy():
    assert magnitude_order(TOY, (1, 1, 0)) == 0  # c(t)x = (1, t, 0)
    assert magnitude_order(TOY, (0, 1, 1)) == 1  # c(t)x = (0, t, t^2)
    with pytest.raises(DomainError):
        magnitude_order(TOY, (0, 0, 0))


def test_magnitude_flag_toy():
    flag = magnitude_flag(TOY, TOY_PLANE)
    assert flag.jumps == [0, 1]
    assert [lvl.rows for lvl in flag.levels] == [2, 1]
    assert flag.pivot_valuations() == [0, 1]
    # the deep level is the span of e2+e3 in combination coordinates
    deep = flag.levels[1]
    assert deep.rows == 1
    combo = deep.entries[0]
    vec = [
        combo[0] * TOY_PLANE.entries[0][i] + combo[1] * TOY_PLANE.entries[1][i]
        for i in range(3)
    ]
    assert magnitude_order(TOY, vec) == 1


def test_magnitude_basis_toy():
    adapted = magnitude_basis(TOY, TOY_PLANE)
    assert [om for _, om in adapted] == [0, 1]


def test_limit_plane_toy():
    comp = limit_computation(TOY, TOY_PLANE)
    assert comp.plane.entries == RationalMatrix([[1, 0, 0], [0, 1, 0]]).entries
    assert comp.wedge_valuation == 1  # = 0 + 1


def test_identity_curve_toy():
    curve = MonomialCurve([0, 0, 0])
    flag = magnitude_flag(curve, TOY_PLANE)
    assert flag.jumps == [0]
    comp = limit_computation(curve, TOY_PLANE)
    from reductions.exact import row_space

    assert comp.plane.entries == row_space(TOY_PLANE).entries


def test_curve_scaling_shifts_jumps():
    shifted = MonomialCurve([3, 4, 5])
    flag = magnitude_flag(shifted, TOY_PLANE)
    assert flag.jumps == [3, 4]
    base = magnitude_flag(TOY, TOY_PLANE)
    assert [lvl.entries for lvl in flag.levels] == [lvl.entries for lvl in base.levels]


def test_negative_control_toy():
    assert non_adapted_additivity_fails(TOY, TOY_PLANE) is True
    trivial = MonomialCurve([1, 1, 1])
    assert non_adapted_additivity_fails(trivial, TOY_PLANE) is False


# -- group curves


def test_identity_group_curve():
    pair = square_of("sl2")
    curve = identity_curve(pair)
    a = cartan_plane(pair)
    assert limit_plane(curve, a) == a
    for x in pair.p.basis_elements():
        assert magnitude_order(curve, x) == 0


def test_sl2_square_canonical_degeneration():
    pair = square_of("sl2")
    e_diag = diag_k_element(pair, E(2, 0, 1))
    curve = curve_from_generators(pair, [(e_diag, -1)])
    a = cartan_plane(pair)
    limit = limit_plane(curve, a)
    e_anti = square_element(pair, E(2, 0, 1))
    expected = plane_from_basis(pair, [e_anti])
    assert limit == expected
    # the moving line has magnitude order -1
    h_anti = a.basis_elements()[0]
    assert magnitude_order(curve, h_anti) == -1


def test_curve_validation_checks_bracket():
    pair = square_of("sl2")
    e_diag = diag_k_element(pair, E(2, 0, 1))
    GroupCurve(pair, [("exp", e_diag, -1)], validate=True).matrices()  # must not raise


def test_curve_rejects_non_nilpotent_generator():
    pair = square_of("sl2")
    h_diag = diag_k_element(pair, RationalMatrix([[1, 0], [0, -1]]))
    with pytest.raises(DomainError):
        GroupCurve(pair, [("exp", h_diag, -1)], validate=False).matrices()


def test_p_matrix_rejects_a_semisimple_generator():
    # a Cartan element of k: ad of it is semisimple, never nilpotent on g
    pair = square_of("sl3")
    h_diag = diag_k_element(pair, RationalMatrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]]))
    for validate in (False, True):
        curve = GroupCurve(pair, [("exp", h_diag, -1)], validate=validate)
        with pytest.raises(DomainError, match="curve generator does not act nilpotently"):
            curve.p_matrix()


def _ad_nilpotent(g, y):
    """The nilpotency check the exp moves made before: ad(y)^k = 0 on g for
    some k <= dim g."""
    ad = g.ad(y)
    power = ad
    for _ in range(g.dim):
        if power.is_zero():
            return True
        power = power * ad
    return False


@pytest.mark.parametrize(
    "name", ["square(sl2)", "square(sl3)", "square(sp4)", "square(g2)", "transpose3", "transpose4"]
)
def test_realization_nilpotency_check_agrees_with_ad_powers(name):
    # exp moves check rho(y)^n = 0 on the realization; on these semisimple
    # algebras with faithful realizations that is ad-nilpotency
    if name.startswith("square("):
        pair = square_of(name[len("square("):-1])
    else:
        pair = make_transpose_pair(int(name[len("transpose"):]))
    rng = random.Random(8)
    k_els = pair.k.basis_elements()
    nilpotent = k_nilpotent_elements(pair, rng, count=3)
    others = [k_els[0], k_els[-1]]
    for _ in range(3):
        y = pair.g.zero()
        for el in k_els:
            y = y + el * rat(rng.randint(-2, 2))
        others.append(y)
    expected_kinds = set()
    for y in nilpotent + others:
        if y.is_zero():
            continue
        expected = _ad_nilpotent(pair.g, y)
        expected_kinds.add(expected)
        curve = GroupCurve(pair, [("exp", y, -1)], validate=False)
        if expected:
            curve.p_matrix()
        else:
            with pytest.raises(DomainError, match="curve generator does not act nilpotently"):
                curve.p_matrix()
    assert False in expected_kinds
    assert (True in expected_kinds) == bool(nilpotent)


def test_cayley_curve_fixes_exactly_what_commutes_with_its_generator():
    # criterion 7's test: the curve's g-matrix is w times the curve, so a
    # fixed element comes back times the scale w, which is not 1 here
    from reductions.acceptance import _curve_fixes_element

    pair = make_transpose_pair(3)
    k0, k1, _ = pair.k.basis_elements()
    y = k0 + k1 * rat(2)
    curve = curve_from_cayley(pair, [(y, -1)], validate=False)
    assert curve.scale().coeffs != (1,)
    assert _curve_fixes_element(curve, y)
    assert _curve_fixes_element(curve, y * rat(-3))
    assert not pair.g.bracket(y, k0).is_zero()
    assert not _curve_fixes_element(curve, k0)


def test_p_only_build_checks_that_the_curve_preserves_p():
    # the same pair with p tilted into k: a subspace of the same dimension
    # that k does not preserve, which each p-only move builder must notice
    pair = square_of("sl3")
    rows = [list(row) for row in pair.p.basis.entries]
    rows[0] = [a + b for a, b in zip(rows[0], pair.k.basis.entries[0])]
    tilted = copy.copy(pair)
    tilted.p = Subspace(pair.g, RationalMatrix(rows))
    assert tilted.p.dim == pair.p.dim
    k_els = pair.k.basis_elements()
    for move in (("exp", diag_k_element(pair, E(3, 0, 1)), -1),
                 ("cayley", k_els[0] + k_els[-1] * rat(2), -1)):
        GroupCurve(pair, [move], validate=False).p_matrix()  # the true p is preserved
        with pytest.raises(InternalCheckError, match="curve does not preserve p"):
            GroupCurve(tilted, [move], validate=False).p_matrix()


def test_limits_of_abelian_planes_stay_abelian():
    pair = square_of("sl3")
    rng = random.Random(3)
    a = cartan_plane(pair)
    for seed in range(4):
        local = random.Random(seed)
        e_diag = diag_k_element(pair, E(3, local.randint(0, 1), local.randint(1, 2)))
        if e_diag.is_zero():
            continue
        try:
            curve = curve_from_generators(pair, [(e_diag, -1)])
        except DomainError:
            continue
        limit = limit_plane(curve, a)
        assert is_anisotropic_subalgebra(limit)
        assert is_cj_closed(limit)


def test_torus_curve_limit():
    pair = square_of("sl3")
    x = square_element(
        pair, RationalMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    )  # cyclic regular element
    curve = curve_from_torus(pair, [1, 0, -1])
    y, om = tempered_element_limit(curve, x)
    assert om == -2
    assert classify_element(y) == "nilpotent"


def test_cayley_curve_transpose_pair():
    pair = make_transpose_pair(3)
    L = pair.k.basis_elements()[0]
    curve = curve_from_cayley(pair, [(L, -1)])
    a = cartan_plane(pair)
    limit = limit_plane(curve, a)
    assert is_anisotropic_subalgebra(limit)
    # a genuine degeneration moves the plane
    assert limit != a or magnitude_flag(curve, a).size == 1


def _reparametrized(matrix: SeriesMatrix, c) -> VectorCurve:
    """t -> t/(1 - ct) substituted into the Laurent-polynomial matrix M,
    times (1 - ct)^K, K the largest positive exponent of M: the entry
    a·t^k becomes a·t^k·(1 - ct)^(K - k), a Laurent polynomial again, and
    the whole is M(t/(1 - ct)) times a scalar unit with constant term 1."""
    exps = [k for row in matrix.entries for e in row for k, a in enumerate(e.coeffs, e.val) if a]
    top = max([0, *exps])
    powers = [LaurentSeries.constant(1)]
    for _ in range(top - min([0, *exps])):
        powers.append(powers[-1] * LaurentSeries(0, [1, -c]))

    def substituted(e):
        acc = LaurentSeries.zero()
        for k, a in enumerate(e.coeffs, e.val):
            if a:
                acc = acc + (powers[top - k] * a).shift(k)
        return acc

    return VectorCurve(SeriesMatrix([[substituted(e) for e in row] for row in matrix.entries]))


def test_reparametrization_invariance():
    pair = square_of("sl2")
    e_diag = diag_k_element(pair, E(2, 0, 1))
    curve = curve_from_generators(pair, [(e_diag, -1)])
    a = cartan_plane(pair)
    base = limit_plane(curve, a)
    toy_base = limit_computation(TOY, TOY_PLANE).plane
    for c in (Fraction(1, 2), 2, -3):
        moved = _reparametrized(curve.p_matrix(), c)
        assert moved.matrix.entries != curve.p_matrix().entries
        assert limit_plane(moved, a) == base
        toy_again = limit_computation(_reparametrized(TOY.matrix, c), TOY_PLANE).plane
        assert toy_again.entries == toy_base.entries


def test_flag_membership_matches_direct_omega():
    pair = square_of("sl3")
    e_diag = diag_k_element(pair, E(3, 0, 2))
    curve = curve_from_generators(pair, [(e_diag, -1)])
    a = cartan_plane(pair)
    flag = magnitude_flag(curve, a)
    rng = random.Random(7)
    basis = a.matrix
    for idx, jump in enumerate(flag.jumps):
        level = flag.levels[idx]
        for _ in range(3):
            combo = [rat(rng.randint(-3, 3)) for _ in range(level.rows)]
            vec = [rat(0)] * basis.cols
            nonzero = False
            for c, row in zip(combo, level.entries):
                for i in range(basis.cols):
                    contrib = c * sum(
                        row[k] * basis.entries[k][i] for k in range(basis.rows)
                    )
                    vec[i] += contrib
            if all(v == 0 for v in vec):
                continue
            assert magnitude_order(curve, tuple(vec)) >= jump


# -- rigidity


def test_rigidity_identity_curve():
    from reductions.degeneration import rigidity_check

    pair = square_of("sl2")
    report = rigidity_check(identity_curve(pair), cartan_plane(pair))
    assert report.cj_closed
    assert report.semisimple_span_dim == 1
    assert report.summary()["omegas"] == [0]


def test_rigidity_sl2_nilpotent_limit():
    from reductions.degeneration import rigidity_check

    pair = square_of("sl2")
    e_diag = diag_k_element(pair, E(2, 0, 1))
    curve = curve_from_generators(pair, [(e_diag, -1)])
    report = rigidity_check(curve, cartan_plane(pair))
    assert report.cj_closed
    assert report.semisimple_span_dim == 0
    assert all(kind == "semisimple->nilpotent" for _, _, _, kind in report.entries)


def test_rigidity_sl3_partial_degeneration():
    from reductions.degeneration import rigidity_check

    pair = square_of("sl3")
    e13 = diag_k_element(pair, E(3, 0, 2))
    curve = curve_from_generators(pair, [(e13, -1)])
    report = rigidity_check(curve, cartan_plane(pair))
    assert report.cj_closed
    # the kernel of the moved root survives as a semisimple direction
    assert report.semisimple_span_dim == 1
    kinds = sorted(kind for _, _, _, kind in report.entries)
    assert kinds == ["semisimple->nilpotent", "semisimple->semisimple"]
    (s1, s0) = report.witness_pairs[0]
    assert classify_element(s1) == "semisimple"
    assert classify_element(s0) == "semisimple"


def test_rigidity_check_builds_one_magnitude_flag_per_moving_matrix(monkeypatch):
    # the split-adapted basis of the rigidity check reuses the flag that its
    # limit computation built from the same moving matrix
    import reductions.degeneration as degeneration

    seen = []
    flag_from_moving = degeneration._flag_from_moving

    def recording(moving, basis):
        seen.append(moving)  # held, so that no id is reused
        return flag_from_moving(moving, basis)

    monkeypatch.setattr(degeneration, "_flag_from_moving", recording)
    pair = square_of("sl3")
    curve = curve_from_generators(pair, [(diag_k_element(pair, E(3, 0, 2)), -1)])
    report = degeneration.rigidity_check(curve, cartan_plane(pair))
    assert report.entries  # filled on the constant-frame path, the one that adapts twice
    assert len(seen) == 1


def _obstructed_sl4_instance():
    # A frame-obstructed square(sl3) instance, one of criterion 6's draws at
    # seed 42, set in the upper-left 3x3 block of sl4, plus the Cartan
    # direction diag(1, 1, 1, -3), which the curve fixes.  The obstructed
    # instances of the battery degenerate to nilpotent planes and so need no
    # witness; this one keeps a semisimple limit direction, which the
    # obstructed branch must certify by a source of magnitude order zero.
    from reductions.liealg import build_classical
    from reductions.pairs import make_cartesian_square

    pair = make_cartesian_square(build_classical("sl", 4), name="square(sl4)")

    def block(rows):
        return RationalMatrix([list(r) + [0] for r in rows] + [[0, 0, 0, 0]])

    y1 = diag_k_element(pair, block([[0, 0, 2], [0, 0, 2], [0, 0, 0]]))
    y2 = diag_k_element(pair, block([[0, 0, -2], [0, 0, 1], [0, 0, 0]]))
    curve = curve_from_generators(pair, [(y1, -1), (y2, -2)])
    x1 = block([[rat(-7, 3), 1, -1], [0, rat(1, 6), 0], [5, -2, rat(13, 6)]])
    x2 = block([[rat(1, 12), 0, 0], [1, rat(-2, 3), rat(1, 2)], [1, rat(-3, 4), rat(7, 12)]])
    h = RationalMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -3]])
    plane = plane_from_basis(pair, [square_element(pair, m) for m in (x1, x2, h)])
    return pair, curve, plane


def test_obstructed_rigidity_witnesses_lie_in_the_plane_and_converge():
    from reductions.degeneration import rigidity_check
    from reductions.exact import min_valuation

    pair, curve, plane = _obstructed_sl4_instance()
    report = rigidity_check(curve, plane)
    assert report.frame_obstructed and report.semisimple_span_dim == 1
    assert len(report.witness_pairs) == 1
    cmat = curve.p_matrix()
    for source, target in report.witness_pairs:
        assert plane.contains(source)
        assert classify_element(source) == "semisimple"
        assert report.limit.contains(target)
        moved = cmat.apply(pair.to_p_coords(source))
        assert min_valuation(moved) >= 0
        assert pair.from_p_coords([s.at_zero() for s in moved]) == target


def test_obstructed_rigidity_rejects_a_witness_that_misses_its_target(monkeypatch):
    # every witness is checked at run time to converge to its target: a
    # doubled witness of the obstructed branch converges to twice it
    from reductions import degeneration

    _, curve, plane = _obstructed_sl4_instance()
    found = degeneration._zero_order_witness

    def doubled(*args):
        return found(*args) * rat(2)

    monkeypatch.setattr(degeneration, "_zero_order_witness", doubled)
    with pytest.raises(InternalCheckError, match="does not converge to its target"):
        degeneration.rigidity_check(curve, plane)


def test_zero_order_witness_searches_for_a_semisimple_source():
    # h = diag(1, 1, -2) and n = E12 commute, so h + n is mixed.  With plane
    # basis (h + n, -n) and one t^0 block sending h + n to h and -n to 0, the
    # particular solution is h + n and the search must step to h.
    from reductions.degeneration import _zero_order_witness

    pair = square_of("sl3")
    h = square_element(pair, RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, -2]]))
    n = square_element(pair, E(3, 0, 1))
    assert classify_element(h + n) not in ("semisimple", "nilpotent")
    basis = RationalMatrix([pair.to_p_coords(h + n), pair.to_p_coords(n * rat(-1))])
    rows = RationalMatrix([[c, 0] for c in pair.to_p_coords(h)])
    assert _zero_order_witness(pair, rows, basis, h) == h


# -- descent and class closure


def test_descend_sl2_square():
    pair = square_of("sl2")
    a = cartan_plane(pair)
    trace = descend_to_closed(pair, a, step_budget=6, seed=2)
    assert trace.nilpotent
    assert trace.stabilizer_dims == sorted(trace.stabilizer_dims)


def test_stabilizer_dimension_increases_on_degeneration():
    pair = square_of("sl2")
    a = cartan_plane(pair)
    e_diag = diag_k_element(pair, E(2, 0, 1))
    curve = curve_from_generators(pair, [(e_diag, -1)])
    limit = limit_plane(curve, a)
    assert stabilizer_dimension(limit) > stabilizer_dimension(a)


def test_tempered_frame_obstruction_surfaced():
    # An invertible curve where no basis of the plane realizes the module
    # profile: constant combinations max out at omega (-5, -4) while the
    # invariant factors are (-5, -3).  The limit must still be computed (via
    # the series-adapted frame) and the instance surfaced, not patched.
    a, b = rat(2), rat(3)
    z = LaurentSeries.zero()
    entries = [
        [LaurentSeries(-5, [1]), LaurentSeries(-5, [a, b]), LaurentSeries(0, [1])],
        [LaurentSeries(0, [1]), LaurentSeries(0, [a, b]), z],
        [z, LaurentSeries(-3, [1]), z],
    ]
    curve = VectorCurve(SeriesMatrix(entries))
    plane = RationalMatrix([[1, 0, 0], [0, 1, 0]])
    flag = magnitude_flag(curve, plane)
    assert flag.jumps == [-5, -4]
    comp = limit_computation(curve, plane)
    assert not comp.constant_frame_ok
    assert comp.surfaced["module_profile"] == [-5, -3]
    assert comp.wedge_valuation == -8
    assert comp.plane.entries == RationalMatrix([[1, 0, 0], [0, 0, 1]]).entries


def test_group_curve_obstruction_instances_still_agree_with_oracle():
    # sampled group-curve instances that hit the obstruction must still pass
    # the double computation
    from reductions.acceptance import _sample_curve, _sample_abelian_plane
    from reductions.pairs import singular_kernels

    pair = square_of("sl3")
    rng = random.Random(0x5EED)
    kernels = singular_kernels(pair)
    surfaced = 0
    for _ in range(40):
        curve = _sample_curve(pair, rng)
        if curve is None:
            continue
        plane = _sample_abelian_plane(pair, rng, kernels, allow_limits=False)
        comp = limit_computation(curve, plane)
        if not comp.constant_frame_ok:
            surfaced += 1
            assert comp.surfaced is not None
    assert surfaced == 1  # obstruction instances are legitimate; this seed has one


def test_square_sp4_limit_at_exponent_minus_8_inverts_no_series(monkeypatch):
    # square(sp4), exponents -8: the series-adapted frame meets pivots of
    # valuation -24, where 16 terms of their inverses could not decide the
    # module profile; the fraction-free reduction inverts nothing
    from test_exact_oracle import _count_inverses

    pair = square_of("sp4")
    y1 = [rat(0)] * pair.g.dim
    y1[1] = y1[11] = rat(-2)
    y2 = [rat(0)] * pair.g.dim
    y2[8] = y2[18] = rat(-1)
    curve = curve_from_generators(
        pair, [(pair.g.element(y1), -8), (pair.g.element(y2), -8)], validate=False
    )
    plane = plane_from_basis(pair, [[1, 0, 0, 0, 4, -2, 0, 0, 0, 0],
                                    [0, 0, 0, 1, 0, -2, 0, 0, 0, 0]])
    calls = _count_inverses(monkeypatch)
    comp = limit_computation(curve, plane)
    assert calls == []
    assert not comp.constant_frame_ok
    assert comp.surfaced["module_profile"] == [-24, -8]
    assert comp.surfaced["flag_profile"] == [-24, -16]


def test_series_inverse_keeps_the_curve_budget():
    # the p-matrix of a curve is exact; inverting it at order 64 must give
    # about 64 terms, not fall back to 16
    pair = make_transpose_pair(3)
    k0, k1, _ = pair.k.basis_elements()
    curve = curve_from_cayley(pair, [(k0 + k1 * rat(2), -1)], validate=False)
    inverse = curve.p_matrix().inverse(64)
    assert min(e.prec for row in inverse.entries for e in row) >= 60


def test_transpose4_cayley_degeneration():
    pair = make_transpose_pair(4)
    L = pair.k.basis_elements()[2]
    curve = curve_from_cayley(pair, [(L, -1)])
    a = cartan_plane(pair)
    limit = limit_plane(curve, a)
    assert limit.dim == 3
    assert is_anisotropic_subalgebra(limit)
    assert is_cj_closed(limit)


def test_plucker_matches_manual_minors():
    pair = square_of("sl3")
    rng = random.Random(6)
    from reductions.planes import maximal_linear_through

    fam = maximal_linear_through(cartan_plane(pair), rng=rng)[1]
    plane = fam.sample(rng)
    pv = plane.plucker()
    import itertools as it

    m = plane.matrix
    lead = None
    for combo in it.combinations(range(m.cols), m.rows):
        sub = RationalMatrix([[m.entries[i][j] for j in combo] for i in range(m.rows)])
        det = sub.det()
        if lead is None and det != 0:
            lead = det
        expected = det / lead if lead is not None else det
        assert pv.coords.get(combo, 0) == expected


def test_descend_already_nilpotent_plane_unchanged():
    pair = square_of("sl2")
    nil_line = plane_from_basis(pair, [square_element(pair, E(2, 0, 1))])
    trace = descend_to_closed(pair, nil_line, step_budget=4, seed=5)
    assert trace.nilpotent
    assert trace.final_plane == nil_line  # stabilizer is already maximal


def test_magnitude_order_identity_on_nonzero():
    pair = square_of("sl2")
    curve = identity_curve(pair)
    for x in pair.p.basis_elements():
        assert magnitude_order(curve, x) == 0


def test_class_closure_sl2():
    from reductions.analysis import DecompositionSignature, decomposition_signature

    pair = square_of("sl2")
    h = square_element(pair, RationalMatrix([[1, 0], [0, -1]]))
    report = class_closure_sample(pair, h, samples=20, seed=1)
    reg_nilp = DecompositionSignature(2, [(2, (2,))])
    assert report.source == decomposition_signature(pair, h)
    assert reg_nilp in report.reached
    assert report.source in report.reached  # identity curve


def test_magnitude_order_reads_plain_vectors_in_p_coordinates():
    # on a group curve a plain vector moves with the p-matrix, as planes do
    pair = square_of("sl3")
    curve = curve_from_generators(pair, [(diag_k_element(pair, E(3, 0, 2)), -1)])
    rng = random.Random(3)
    orders = set()
    for _ in range(6):
        vec = tuple(rat(rng.randint(-2, 2)) for _ in range(pair.p.dim))
        if all(v == 0 for v in vec):
            continue
        order = magnitude_order(curve, vec)
        assert order == magnitude_order(curve, pair.from_p_coords(vec))
        orders.add(order)
        with pytest.raises(DomainError):
            magnitude_order(curve, pair.from_p_coords(vec).coords)
    assert orders
