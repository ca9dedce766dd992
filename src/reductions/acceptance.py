"""The acceptance suite: every headline claim the toolkit commits to,
runnable as one deterministic battery.

Each criterion yields a CheckResult with a status: "pass"/"fail" for exact
claims, "evidence" for sampled harnesses that support (but cannot prove) a
statement.  Any internal contradiction inside an evidence harness is a hard
failure.  All sampling is driven by the seed, so identical configurations
reproduce identical reports.
"""

from __future__ import annotations

import itertools
import random
import zlib
from fractions import Fraction

from .errors import DomainError, InternalCheckError
from .exact import RationalMatrix, combine_rows, rank, rat
from .liealg import Element
from .pairs import (
    derived_pair_maps,
    k_nilpotent_elements,
    make_transpose_pair,
    sample_k_automorphism,
    singular_kernels,
    square_of,
)
from .planes import (
    GammaFamily,
    Plane,
    anticanonical_degrees,
    cartan_plane,
    exterior_killing_value,
    is_anisotropic_subalgebra,
    is_cj_closed,
    maximal_linear_through,
    plane_from_basis,
    semisimple_part_matrix,
)
from .analysis import (
    _antidiagonal_realization,
    _regular_centralizer,
    all_signatures,
    decomposition_signature,
    jacobian_map,
    make_subvariety,
    nonalgebraic_witness,
    signature_is_degeneration,
    signature_representative,
)
from .degeneration import (
    GroupCurve,
    MonomialCurve,
    _random_k_element,
    class_closure_sample,
    companion_translate,
    curve_from_cayley,
    curve_from_generators,
    curve_from_torus,
    descend_to_closed,
    limit_computation,
    limit_plane,
    magnitude_flag,
    non_adapted_additivity_fails,
    rigidity_check,
    tempered_element_limit,
)
from .rootsys import (
    MALCEV_NOTE,
    TABLE1_NOTES,
    abelian_class_count,
    canonical_survivors,
    infinite_orbit_types,
    max_abelian_root_sets,
    table1_row,
    verify_malcev_small,
    verify_table1_against_enumeration,
)


def _subseed(seed, *labels):
    """Process-independent derived seed (string hashing is randomized)."""
    return zlib.crc32("|".join(str(l) for l in labels).encode()) ^ (seed & 0xFFFFFFFF)


class CheckResult:
    def __init__(self, name, claim, status, details=None):
        self.name = name
        self.claim = claim
        self.status = status
        self.details = details or {}

    def as_dict(self):
        return {
            "name": self.name,
            "claim": self.claim,
            "status": self.status,
            "details": self.details,
        }


def _pairs_small():
    return [square_of("sl2"), square_of("sl3"), make_transpose_pair(3)]


def _pairs_structure():
    return [
        ("square(sl2)", square_of("sl2"), 2),
        ("square(sl3)", square_of("sl3"), 6),
        ("square(sp4)", square_of("sp4"), 8),
        ("square(g2)", square_of("g2"), 12),
        ("transpose3", make_transpose_pair(3), 3),
        ("transpose4", make_transpose_pair(4), 6),
    ]


# ---------------------------------------------------------------------------
# samplers shared by several criteria


def _sample_curve(pair, rng) -> GroupCurve | None:
    """A seeded degeneration arc in the pair's fixed group."""
    nils = k_nilpotent_elements(pair, rng, count=rng.choice([1, 1, 2]))
    if nils:
        gens = [(y, rng.choice([-1, -1, -2])) for y in nils]
        return curve_from_generators(pair, gens, validate=False)
    for _ in range(20):
        y = _random_k_element(pair, rng)
        if y is not None:
            break
    if y is None:
        return None
    return curve_from_cayley(pair, [(y, rng.choice([-1, -2]))], validate=False)


def _sample_abelian_plane(pair, rng, kernels, allow_limits=True) -> Plane:
    r = pair.rank
    route = rng.random()
    if r == 1:
        for _ in range(32):
            coords = [rat(rng.randint(-3, 3)) for _ in range(pair.p.dim)]
            if any(coords):
                return plane_from_basis(pair, [coords])
        raise InternalCheckError("sampler failed to draw a nonzero line")
    if route < 0.35:
        return _moved_plane(pair, rng, cartan_plane(pair))
    if route < 0.75:
        sk = rng.choice(kernels)
        fam = GammaFamily(pair, sk.kernel, sk.centralizer_in_p, r)
        return fam.sample(rng)
    if route < 0.9 or not allow_limits:
        # kernel plus a single weight vector: lands on both sides of the quadric
        sk = rng.choice(kernels)
        p_alpha = pair.roots().p_alpha[sk.root]
        for _ in range(16):
            coords = [rng.randint(-2, 2) for _ in range(p_alpha.dim)]
            vec = Element._trusted(pair.g, combine_rows(coords, p_alpha.basis))
            if vec.is_zero():
                continue
            try:
                return plane_from_basis(pair, sk.kernel.basis_elements() + [vec])
            except DomainError:
                continue
        sk = kernels[0]
        fam = GammaFamily(pair, sk.kernel, sk.centralizer_in_p, r)
        return fam.sample(rng)
    curve = _sample_curve(pair, rng)
    if curve is None:
        return cartan_plane(pair)
    return limit_plane(curve, cartan_plane(pair))


def _moved_plane(pair, rng, plane) -> Plane:
    """The plane moved by a sampled automorphism of the fixed group."""
    auto = sample_k_automorphism(pair, rng)
    return plane_from_basis(
        pair, [Element._trusted(pair.g, auto.apply(x.coords)) for x in plane.basis_elements()]
    )


# ---------------------------------------------------------------------------
# criteria


def criterion_1_table():
    rows = verify_table1_against_enumeration(max_classical_rank=8)
    spot = {
        "B_r": table1_row("B", 5) == (25, 10, 14),
        "F_4": table1_row("F4", 4) == (24, 12, 15),
        "D_r": table1_row("D", 6) == (30, 10, 15),
        "G_2": table1_row("G2", 2) == (6, 6, 7),
        "E_7": table1_row("E7", 7) == (63, 18, 24),
    }
    ok = all(spot.values())
    return [
        CheckResult(
            "table.positive-roots-and-coxeter",
            "the positive-root/Coxeter table is reproduced exactly, every row "
            "cross-checked against an enumerated root system",
            "pass" if ok and rows > 0 else "fail",
            {"rows_enumerated": rows, "notes": TABLE1_NOTES},
        )
    ]


def criterion_2_structure():
    out = []
    for name, pair, dim_r in _pairs_structure():
        data = pair.roots()
        k_els = pair.k.basis_elements()
        p_els = pair.p.basis_elements()
        rels = all(
            pair.k.contains(pair.g.bracket(x, y))
            for x, y in itertools.combinations(k_els, 2)
        ) and all(
            pair.p.contains(pair.g.bracket(x, y))
            for x in k_els
            for y in p_els
        ) and all(
            pair.k.contains(pair.g.bracket(x, y))
            for x, y in itertools.combinations(p_els, 2)
        )
        # Prop 2.6 and the decompositions are verified inside restricted_roots;
        # recompute the headline dimension both ways
        via_sum = pair.rank + sum(data.p_alpha[a].dim for a in data.positive)
        dim_reduction = pair.p.dim - pair.rank
        ok = (
            rels
            and via_sum == pair.p.dim
            and dim_reduction == dim_r
        )
        out.append(
            CheckResult(
                f"structure.{name}",
                "involution splits the algebra, bracket relations hold, the "
                "Cartan subspace self-centralizes, the weight decomposition "
                "fills p, and dim(closure of Cartan family) = dim p - rank",
                "pass" if ok else "fail",
                {
                    "dim_p": pair.p.dim,
                    "rank": pair.rank,
                    "dim_reduction_variety": dim_reduction,
                    "root_type": data.root_type(),
                    "positive_roots": len(data.positive),
                },
            )
        )
    return out


def criterion_3_quadric(seed, planes_per_pair=1000):
    out = []
    for pair in _pairs_small():
        rng = random.Random(_subseed(seed, pair.name, "quadric"))
        kernels = singular_kernels(pair)
        checked = 0
        degenerate = 0
        mism = 0
        a = cartan_plane(pair)
        if exterior_killing_value(a) == 0:
            mism += 1
        for _ in range(planes_per_pair):
            plane = _sample_abelian_plane(pair, rng, kernels)
            if not is_anisotropic_subalgebra(plane):
                mism += 1
                continue
            gram_zero = exterior_killing_value(plane) == 0
            smat = semisimple_part_matrix(plane)
            has_nilp = rank(smat) < plane.dim
            if gram_zero != has_nilp:
                mism += 1
            else:
                checked += 1
                degenerate += 1 if gram_zero else 0
        ok = mism == 0 and checked >= planes_per_pair
        out.append(
            CheckResult(
                f"quadric.{pair.name}",
                "on abelian planes the exterior Killing form vanishes exactly "
                "when the plane contains a nonzero nilpotent, and Cartan "
                "subspaces are never degenerate",
                "pass" if ok else "fail",
                {"planes": checked, "degenerate_side": degenerate, "mismatches": mism},
            )
        )
    return out


def criterion_4_jacobian(seed, count=100):
    out = []
    for kind, n in (("sl2", 2), ("sl3", 3)):
        pair = square_of(kind)
        rng = random.Random(_subseed(seed, kind, "jacobian"))
        done = 0
        bad = 0
        while done < count:
            mat = RationalMatrix(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            )
            mat = mat - RationalMatrix.identity(n) * Fraction(mat.trace(), n)
            x = pair.g.from_realization(_antidiagonal_realization(pair, mat))
            centralizer = None if x.is_zero() else _regular_centralizer(pair, x)
            if centralizer is None:
                continue
            pv = jacobian_map(pair, x)
            if not pv.proportional_to(centralizer.plucker()):
                bad += 1
            done += 1
        out.append(
            CheckResult(
                f"jacobian.{pair.name}",
                "the wedge of invariant gradients is exactly proportional to "
                "the Plücker vector of the centralizer plane on regular elements",
                "pass" if bad == 0 else "fail",
                {"samples": done, "failures": bad},
            )
        )
    return out


_TOYS = [
    (MonomialCurve([0, 1, 2]), RationalMatrix([[1, 1, 0], [0, 1, 1]])),
    (MonomialCurve([0, 0, 0]), RationalMatrix([[1, 1, 0], [0, 1, 1]])),
    (MonomialCurve([-1, 0, 2, 2]), RationalMatrix([[1, 0, 1, 0], [0, 1, 0, 1]])),
]


def criterion_5_limits(seed, per_pair=100, include_sp4=False):
    out = []
    for curve, basis in _TOYS:
        limit_computation(curve, basis)  # raises on any internal disagreement
    pairs = _pairs_small()
    if include_sp4:
        pairs.append(square_of("sp4"))
    for pair in pairs:
        rng = random.Random(_subseed(seed, pair.name, "limits"))
        kernels = singular_kernels(pair)
        computed = 0
        nontrivial_flags = 0
        controls = 0
        surfaced = 0
        surfaced_example = None
        while computed < per_pair:
            curve = _sample_curve(pair, rng)
            if curve is None:
                continue
            plane = _sample_abelian_plane(pair, rng, kernels, allow_limits=False)
            comp = limit_computation(curve, plane)  # double computation inside
            if not is_anisotropic_subalgebra(comp.plane):
                raise InternalCheckError("limit of an abelian plane is not abelian")
            if not comp.constant_frame_ok:
                surfaced += 1
                surfaced_example = surfaced_example or comp.surfaced
            flag = magnitude_flag(curve, plane)
            if flag.size > 1:
                nontrivial_flags += 1
                if non_adapted_additivity_fails(curve, plane):
                    controls += 1
            computed += 1
        ok = controls == nontrivial_flags
        out.append(
            CheckResult(
                f"limits.{pair.name}",
                "every limit is computed twice (tempered frame and Plücker "
                "valuations) and the routes agree exactly; wedge additivity "
                "holds on adapted bases wherever a basis of the plane itself "
                "realizes the module profile, instances with no such basis "
                "are surfaced verbatim; spoiled bases break additivity "
                "whenever the flag is nontrivial",
                "pass" if ok else "fail",
                {
                    "instances": computed,
                    "nontrivial_flags": nontrivial_flags,
                    "negative_controls": controls,
                    "frame_obstructions_surfaced": surfaced,
                    "first_surfaced_instance": surfaced_example,
                },
            )
        )
    return out


def criterion_6_rigidity(seed, per_pair=50):
    out = []
    for pair in _pairs_small():
        rng = random.Random(_subseed(seed, pair.name, "rigidity"))
        canonical = cartan_plane(pair)
        done = 0
        semisimple_survivors = 0
        obstructed = 0
        while done < per_pair:
            curve = _sample_curve(pair, rng)
            if curve is None:
                continue
            if done % 3 == 2:  # every third run degenerates a moved Cartan subspace
                a = _moved_plane(pair, rng, canonical)
            else:
                a = canonical
            report = rigidity_check(curve, a)  # hard error on any violated clause
            semisimple_survivors += 1 if report.semisimple_span_dim > 0 else 0
            obstructed += 1 if report.frame_obstructed else 0
            done += 1
        out.append(
            CheckResult(
                f"rigidity.{pair.name}",
                "limits of Cartan subspaces are abelian and closed under the "
                "semisimple/nilpotent split, with every semisimple limit "
                "direction reached at magnitude order zero from a semisimple "
                "source in the plane (frame-obstructed instances certified "
                "by direct witnesses and surfaced)",
                "pass",
                {
                    "degenerations": done,
                    "with_semisimple_part": semisimple_survivors,
                    "frame_obstructions_surfaced": obstructed,
                },
            )
        )
    return out


def criterion_7_subvarieties(seed, samples=12):
    out = []
    for kind in ("sl3", "sp4"):
        pair = square_of(kind)
        rng = random.Random(_subseed(seed, kind, "subvariety"))
        a = cartan_plane(pair)
        checks_ok = True
        details = {}
        for sk in singular_kernels(pair)[:2]:
            sv = make_subvariety(pair, sk.kernel)
            equal_rank = sv.centralizer_pair.rank == pair.rank
            maps = derived_pair_maps(sv.centralizer_pair)
            roundtrips = 0
            limit_members = 0
            fixes = 0
            anchor_rows = [
                sv.embedding.to_restricted(Element(pair.g, row))
                for row in sk.kernel.basis.entries
            ]
            inner_cartan = cartan_plane(sv.centralizer_pair)
            for _ in range(samples):
                curve = _sample_curve(sv.centralizer_pair, rng)
                if curve is None:
                    continue
                limit = limit_plane(curve, inner_cartan)
                # both composition directions on the sampled reduction
                sub = limit.to_subspace()
                projected = maps.project(sub)
                if (
                    maps.include(projected) == sub
                    and maps.project(maps.include(projected)) == projected
                ):
                    roundtrips += 1
                # the anchor is fixed pointwise by the arc
                fixed = all(
                    _curve_fixes_element(curve, el) for el in anchor_rows
                )
                fixes += 1 if fixed else 0
                # the ambient limit contains the anchor
                ambient = sv.to_ambient_plane(limit)
                if sv.contains(ambient):
                    limit_members += 1
            ok = (
                equal_rank
                and roundtrips == fixes == limit_members
                and limit_members > 0
            )
            checks_ok = checks_ok and ok
            details["alpha(" + ",".join(str(c) for c in sk.root) + ")"] = {
                "equal_rank": equal_rank,
                "limits": limit_members,
                "roundtrips": roundtrips,
                "anchor_fixed": fixes,
            }
        out.append(
            CheckResult(
                f"subvarieties.{pair.name}",
                "centralizer pairs of root-kernel anchors keep the ambient "
                "rank; projection and inclusion between their reductions are "
                "mutually inverse; anchored arcs produce exactly the planes "
                "through the anchor",
                "pass" if checks_ok else "fail",
                details,
            )
        )
    return out


def _curve_fixes_element(curve, el):
    """Whether the curve fixes el: its matrix on g, which is the curve times
    the scale w, takes el to w·el."""
    moved = curve.matrices()[0].apply(el.coords)
    scale = curve.scale()
    for series, c in zip(moved, el.coords):
        if not (series - scale * c).is_zero():
            return False
    return True


def criterion_8_families(seed):
    out = []
    expected = {
        "square(sl3)": (3, 2),
        "square(sp4)": (4, 2),
        "square(g2)": (6, 2),
        "transpose3": (3, 1),
    }
    pairs = {
        "square(sl3)": square_of("sl3"),
        "square(sp4)": square_of("sp4"),
        "square(g2)": square_of("g2"),
        "transpose3": make_transpose_pair(3),
    }
    for name, (count, fam_dim) in expected.items():
        pair = pairs[name]
        rng = random.Random(_subseed(seed, name, "families"))
        fams = maximal_linear_through(cartan_plane(pair), rng=rng)
        degs = anticanonical_degrees(cartan_plane(pair), rng=rng)
        ok = (
            len(fams) == count
            and all(f.dim == fam_dim for f in fams)
            and all(d == (fam_dim, fam_dim + 1) for d in degs)
        )
        out.append(
            CheckResult(
                f"families.{name}",
                "one maximal pinched family per positive root through a "
                "general point, each abelian, meeting pairwise in the base "
                "point, with anticanonical degree dimension-plus-one",
                "pass" if ok else "fail",
                {"families": len(fams), "family_dim": fam_dim, "degrees": degs},
            )
        )
    return out


def criterion_9_anisotropic(seed):
    out = []
    survivors = canonical_survivors()
    ok_surv = survivors == ["A1", "A2", "A3", "B2", "G2"]
    out.append(
        CheckResult(
            "anisotropic.survivors",
            "the positive-root count is at most h + r - 1 exactly for the "
            "five small types (the two rank-2 double-bond types identified)",
            "pass" if ok_surv else "fail",
            {"survivors": survivors},
        )
    )
    verify_malcev_small(max_rank=4)
    g2 = abelian_class_count("G2", 2)
    values = {
        "G2": (g2["max_size"], g2["classes"]),
        "C2": (max_abelian_root_sets("C", 2, count_classes=False)[0], None),
        "B3": (max_abelian_root_sets("B", 3, count_classes=False)[0], None),
        "A2": (max_abelian_root_sets("A", 2, count_classes=False)[0], None),
        "A3": (max_abelian_root_sets("A", 3, count_classes=False)[0], None),
    }
    ok_sizes = (
        values["G2"] == (3, 3)
        and values["C2"][0] == 3
        and values["B3"][0] == 5
        and values["A2"][0] == 2
        and values["A3"][0] == 4
    )
    out.append(
        CheckResult(
            "anisotropic.maximal-abelian",
            "maximal abelian root-set sizes match the enumeration oracle, "
            "with the three rank-2 exceptional classes certified by "
            "invariants; the enumerated value governs printed-value clashes",
            "pass" if ok_sizes else "fail",
            {
                "values": {k: v[0] for k, v in values.items()},
                "g2_classes": g2,
                "b3_note": "enumeration gives 5, matching the classification "
                "theorem's explicit value; the rank-extrapolated formula "
                "would give 4 and is wrong at this rank",
                "a_formula_note": MALCEV_NOTE,
            },
        )
    )
    orbits = infinite_orbit_types()
    ok_orbits = orbits["claimed"] == [
        ("A", 5),
        ("B", 4),
        ("C", 5),
        ("D", 6),
        ("E7", 7),
        ("E8", 8),
    ]
    out.append(
        CheckResult(
            "anisotropic.infinite-orbits",
            "every type on the infinitely-many-orbits list satisfies the "
            "counting inequality r(m - r) > r - 2 with closed-form rank "
            "extension; types where the inequality alone also fires are "
            "reported, not promoted",
            "pass" if ok_orbits else "fail",
            orbits,
        )
    )
    pair, plane, s_el = nonalgebraic_witness(5)
    ok_witness = (
        is_anisotropic_subalgebra(plane)
        and not is_cj_closed(plane)
        and not plane.contains(s_el)
    )
    out.append(
        CheckResult(
            "anisotropic.nonalgebraic-witness",
            "an abelian plane whose semisimple parts escape it exists at rank "
            "4: in the closure-of-Cartan-subspaces family every plane is "
            "closed under the split, so this plane lies outside that closure",
            "pass" if ok_witness else "fail",
            {"dim": plane.dim, "ambient": pair.name},
        )
    )
    return out


def criterion_10_evidence(seed, descent_runs=6, closure_samples=30):
    out = []
    for kind in ("sl2", "sl3"):
        pair = square_of(kind)
        nilpotent_endings = 0
        for i in range(descent_runs):
            trace = descend_to_closed(pair, cartan_plane(pair), step_budget=8, seed=seed + i)
            if trace.nilpotent:
                nilpotent_endings += 1
        out.append(
            CheckResult(
                f"evidence.descent.{pair.name}",
                "stabilizer-guided descent from a Cartan subspace ends in a "
                "plane inside the nilpotent cone on every seeded run",
                "evidence" if nilpotent_endings == descent_runs else "fail",
                {"runs": descent_runs, "nilpotent_endings": nilpotent_endings},
            )
        )
    pair = square_of("sl3")
    sigs = [s for s in all_signatures(3) if s.blocks != ((3, (1, 1, 1)),)]
    relation = {}
    rule_violations = []
    for sig in sigs:
        rep = signature_representative(pair, sig)
        report = class_closure_sample(pair, rep, samples=closure_samples, seed=seed)
        relation[sig] = set(report.reached)
        for target in report.reached:
            if not signature_is_degeneration(sig, target):
                rule_violations.append((sig, target))
    # enrich with the staircase translate of each regular representative
    for sig in sigs:
        rep = signature_representative(pair, sig)
        try:
            comp = companion_translate(pair, rep)
        except DomainError:
            continue
        for weights in ((1, 0, -1), (2, 0, -2), (0, 1, -1)):
            curve = curve_from_torus(pair, weights, validate=False)
            limit, _ = tempered_element_limit(curve, comp)
            target = decomposition_signature(pair, limit)
            relation[sig].add(target)
            if not signature_is_degeneration(sig, target):
                rule_violations.append((sig, target))
    antisym = all(
        not (b in relation[a] and a in relation[b])
        for a, b in itertools.permutations(sigs, 2)
        if a != b
    )
    transitive = all(
        c in relation[a]
        for a in sigs
        for b in relation[a]
        if b in relation
        for c in relation[b]
    )
    status = "evidence" if (antisym and transitive and not rule_violations) else "fail"
    out.append(
        CheckResult(
            "evidence.class-closure.square(sl3)",
            "sampled class-closure relation on the nonzero signatures is "
            "antisymmetric and transitive, and every sampled limit obeys the "
            "closed-form genericity rule",
            status,
            {
                "signatures": len(sigs),
                "edges": sum(len(v) - 1 for v in relation.values()),
                "rule_violations": [str(v) for v in rule_violations],
                "antisymmetric": antisym,
                "transitive": transitive,
            },
        )
    )
    return out


# ---------------------------------------------------------------------------
# the runner


def run_acceptance(suite="fast", seed=42):
    """Every criterion, in order; 'full' adds the larger pairs where a
    criterion admits them."""
    results = []
    results += criterion_1_table()
    results += criterion_2_structure()
    results += criterion_3_quadric(seed)
    results += criterion_4_jacobian(seed)
    results += criterion_5_limits(seed, include_sp4=(suite == "full"))
    results += criterion_6_rigidity(seed)
    results += criterion_7_subvarieties(seed)
    results += criterion_8_families(seed)
    results += criterion_9_anisotropic(seed)
    results += criterion_10_evidence(seed)
    return results
