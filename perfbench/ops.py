"""The benchmark's ops: what one op of each workload calls, how it checks
its own result, and the canonical output that goes into the run's digest.

Every call into the package goes through ``call(name, fn, *args)``. The
untraced run passes a ``call`` that only calls; the traced run passes one
that records a span per call. The names are ``<module>.<function>`` of the
package layer called, and they are the per-layer metric names.
"""

from __future__ import annotations

import weakref
from fractions import Fraction

from common import build_pair, dec_rows, enc_rows

# Per-layer span names, in report order. Each gives <name>.calls and
# <name>.busy_s in the traced run.
LAYERS = (
    "liealg.build_algebra",
    "pairs.make_pair",
    "pairs.roots",
    "pairs.singular_kernels",
    "exact.min_poly",
    "planes.plane_from_basis",
    "planes.is_anisotropic_subalgebra",
    "planes.exterior_killing_value",
    "planes.semisimple_part_matrix",
    "exact.rank",
    "analysis.is_regular",
    "analysis.jacobian_map",
    "analysis.centralizer_map",
    "planes.plucker",
    "degeneration.curve_build",
    "degeneration.limit_computation",
    "degeneration.magnitude_flag",
    "degeneration.non_adapted_additivity_fails",
    "degeneration.rigidity_check",
    "exact.SeriesMatrix.apply",
    "exact.valuation_adapted_reduce",
    "exact.SeriesMatrix.inverse",
)

# Spans of calls that run only in the traced run, to time one exact-layer
# function on the op's own data. They are left out of the tracing overhead.
PROBES = ("exact.min_poly", "exact.SeriesMatrix.apply",
          "exact.valuation_adapted_reduce", "exact.SeriesMatrix.inverse")

# Counters, counted over one pass of the pool so they repeat exactly.
COUNTERS = (
    "quadric.degenerate_side",
    "quadric.mismatches",
    "analysis.nonregular_skipped",
    "degeneration.frame_obstructions",
    "degeneration.rigidity_obstructed",
    "degeneration.nontrivial_flags",
    "degeneration.negative_controls",
    "probes.precision_errors",
)

ERROR_CLASSES = (
    "BudgetExceededError",
    "DomainError",
    "InternalCheckError",
    "IrrationalSpectrumError",
    "PrecisionError",
    "RankDeficiencyError",
    "SearchExhaustedError",
)


class CheckFailed(Exception):
    """An op's result failed the op's own check."""


def plain_call(name, fn, *args):
    return fn(*args)


def build_curve(pair, spec):
    """The degeneration arc written in ``spec`` (generator coordinates in
    g and t-exponents), built without the construction-time validation, as
    the acceptance samplers build it."""
    from reductions.degeneration import curve_from_cayley, curve_from_generators
    from reductions.liealg import Element

    gens = [(Element(pair.g, [Fraction(c) for c in coords]), e) for coords, e in spec["gens"]]
    make = curve_from_generators if spec["kind"] == "exp" else curve_from_cayley
    return make(pair, gens, validate=False)


def _built_curve(pair, spec):
    curve = build_curve(pair, spec)
    curve.p_matrix()
    return curve


def _warm_pair(pair):
    """Fill the pair's lazy caches: restricted roots, the Killing matrix and
    the realization solver."""
    pair.roots()
    pair.g.killing_matrix()
    pair.g.from_realization(pair.g.realize(pair.g.zero()))


def _pairs_of(inputs):
    """Build the pairs the inputs use and fill their lazy caches."""
    pairs = {}
    for op in inputs["ops"] + inputs["warmup"]:
        if op["pair"] not in pairs:
            pairs[op["pair"]] = pair = build_pair(op["pair"])
            _warm_pair(pair)
    return pairs


class Workload:
    """A pool of parsed instances and the op run on each. ``op(inst, call,
    counts, probe)`` returns the op's canonical output; with ``probe`` it
    also runs the workload's exact-layer probes on the op's own data."""

    pool = ()
    warmup = ()

    def before(self, inst):
        """Runs before each timed op, outside its time."""


# ---------------------------------------------------------------------------
# quadric: criteria 3 and 4 on pre-drawn planes and elements


class Quadric(Workload):
    def __init__(self, inputs):
        self.pairs = _pairs_of(inputs)
        self.pool = [self.parse(op) for op in inputs["ops"]]
        self.warmup = [self.parse(op) for op in inputs["warmup"]]

    def parse(self, op):
        from reductions.liealg import Element

        pair = self.pairs[op["pair"]]
        if op["kind"] == "plane":
            return ("plane", pair, dec_rows(op["basis"]))
        return ("jacobian", pair, Element(pair.g, [Fraction(c) for c in op["x"]]))

    def op(self, inst, call, counts, probe=False):
        from reductions.analysis import centralizer_map, is_regular, jacobian_map
        from reductions.exact import rank
        from reductions.planes import (
            exterior_killing_value,
            is_anisotropic_subalgebra,
            plane_from_basis,
            semisimple_part_matrix,
        )

        kind, pair, data = inst
        if kind == "plane":
            plane = call("planes.plane_from_basis", plane_from_basis, pair, data)
            if not call("planes.is_anisotropic_subalgebra", is_anisotropic_subalgebra, plane):
                counts["quadric.mismatches"] += 1
                raise CheckFailed("a sampled abelian plane is not abelian")
            gram_zero = call("planes.exterior_killing_value", exterior_killing_value, plane) == 0
            smat = call("planes.semisimple_part_matrix", semisimple_part_matrix, plane)
            has_nilpotent = call("exact.rank", rank, smat) < plane.dim
            if gram_zero != has_nilpotent:
                counts["quadric.mismatches"] += 1
                raise CheckFailed("exterior Killing value and nilpotent content disagree")
            counts["quadric.degenerate_side"] += gram_zero
            return ["plane", gram_zero]
        if data.is_zero() or not call("analysis.is_regular", is_regular, pair, data):
            counts["analysis.nonregular_skipped"] += 1
            return ["jacobian", False]
        wedge = call("analysis.jacobian_map", jacobian_map, pair, data)
        plane = call("analysis.centralizer_map", centralizer_map, pair, data)
        if not wedge.proportional_to(call("planes.plucker", plane.plucker)):
            raise CheckFailed("Jacobian wedge is not proportional to the centralizer plane")
        return ["jacobian", True]


# ---------------------------------------------------------------------------
# limits: criteria 5 and 6 on pre-drawn (curve, plane) instances


class Limits(Workload):
    def __init__(self, inputs):
        self.pairs = _pairs_of(inputs)
        self.pool = [self.parse(op) for op in inputs["ops"]]
        self.warmup = [self.parse(op) for op in inputs["warmup"]]

    def parse(self, op):
        rig = op["rigidity"]
        return (self.pairs[op["pair"]], op["curve"], dec_rows(op["plane"]),
                None if rig is None else dec_rows(rig))

    def op(self, inst, call, counts, probe=False):
        from reductions.degeneration import (
            limit_computation,
            magnitude_flag,
            non_adapted_additivity_fails,
            rigidity_check,
        )
        from reductions.planes import is_anisotropic_subalgebra, plane_from_basis

        pair, spec, basis, rig_basis = inst
        curve = call("degeneration.curve_build", _built_curve, pair, spec)
        plane = call("planes.plane_from_basis", plane_from_basis, pair, basis)
        comp = call("degeneration.limit_computation", limit_computation, curve, plane)
        if not call("planes.is_anisotropic_subalgebra", is_anisotropic_subalgebra, comp.plane):
            raise CheckFailed("limit of an abelian plane is not abelian")
        counts["degeneration.frame_obstructions"] += not comp.constant_frame_ok
        flag = call("degeneration.magnitude_flag", magnitude_flag, curve, plane)
        if flag.size > 1:
            counts["degeneration.nontrivial_flags"] += 1
            if not call("degeneration.non_adapted_additivity_fails",
                        non_adapted_additivity_fails, curve, plane):
                raise CheckFailed("a spoiled basis kept wedge additivity on a nontrivial flag")
            counts["degeneration.negative_controls"] += 1
        out = [enc_rows(comp.plane.matrix.entries), flag.jumps, comp.constant_frame_ok]
        if rig_basis is not None:
            cartan = call("planes.plane_from_basis", plane_from_basis, pair, rig_basis)
            report = call("degeneration.rigidity_check", rigidity_check, curve, cartan)
            counts["degeneration.rigidity_obstructed"] += report.frame_obstructed
            out.append([enc_rows(report.limit.matrix.entries), report.cj_closed,
                        report.semisimple_span_dim])
        if probe:
            _series_probes(curve, plane, call, counts)
        return out


def _series_probes(curve, plane, call, counts):
    """valuation_adapted_reduce on the moving matrix and SeriesMatrix.inverse
    on the p-matrix, at the curve's own budget and without the escalation
    the package's callers wrap around them: a PrecisionError is counted,
    not retried."""
    from reductions.errors import PrecisionError
    from reductions.exact import SeriesMatrix, valuation_adapted_reduce

    cmat = curve.p_matrix()
    cols = [call("exact.SeriesMatrix.apply", cmat.apply, row) for row in plane.matrix.entries]
    for name, fn, arg in (
        ("exact.valuation_adapted_reduce", valuation_adapted_reduce, SeriesMatrix(list(zip(*cols)))),
        ("exact.SeriesMatrix.inverse", SeriesMatrix.inverse, cmat),
    ):
        try:
            call(name, fn, arg)
        except PrecisionError:
            counts["probes.precision_errors"] += 1


# ---------------------------------------------------------------------------
# structure: cold construction of one pair per op


DIM_REDUCTION = {
    "square(sl2)": 2,
    "square(sl3)": 6,
    "square(sp4)": 8,
    "square(g2)": 12,
    "transpose3": 3,
    "transpose4": 6,
}


def _construction_caches():
    from reductions import liealg, pairs

    return (liealg.build_classical, liealg.build_g2, liealg.build_product,
            pairs.make_cartesian_square, pairs.make_transpose_pair)


class Structure(Workload):
    def __init__(self, inputs):
        self.pool = [op["pair"] for op in inputs["ops"]]
        # objects every op has returned, held weakly: a returned algebra or
        # pair that is still alive and returned again came from a cache
        self.seen = weakref.WeakValueDictionary()

    def before(self, inst):
        """The cold guard: drop the package's construction caches."""
        for fn in _construction_caches():
            fn.cache_clear()

    def _fresh(self, obj):
        if self.seen.get(id(obj)) is obj:
            raise CheckFailed(f"a cold construction returned a reused {type(obj).__name__}")
        self.seen[id(obj)] = obj

    def op(self, name, call, counts, probe=False):
        from reductions.exact import min_poly
        from reductions.liealg import build_classical, build_g2
        from reductions.pairs import (
            dim_reduction_variety,
            make_cartesian_square,
            make_transpose_pair,
            singular_kernels,
        )

        if name.startswith("transpose"):
            n = int(name[len("transpose"):])
            g = call("liealg.build_algebra", build_classical, "sl", n)
            pair = call("pairs.make_pair", make_transpose_pair, n)
            if pair.g is not g:
                raise CheckFailed("the transpose pair was not built on the algebra just built")
        else:
            factor = name[len("square("):-1]
            if factor == "g2":
                g = call("liealg.build_algebra", build_g2)
            else:
                g = call("liealg.build_algebra", build_classical, factor[:2], int(factor[2:]))
            pair = call("pairs.make_pair", make_cartesian_square, g, name)
        self._fresh(g)
        self._fresh(pair)
        data = call("pairs.roots", pair.roots)
        kernels = call("pairs.singular_kernels", singular_kernels, pair)
        mults = data.multiplicities()
        if pair.rank + sum(mults.values()) != pair.p.dim:
            raise CheckFailed("rank plus root multiplicities does not fill p")
        if dim_reduction_variety(pair) != DIM_REDUCTION[name]:
            raise CheckFailed("dimension of the reduction variety is wrong")
        if len(kernels) != len(data.positive):
            raise CheckFailed("one singular kernel per positive root expected")
        if probe:
            call("exact.min_poly", min_poly, pair.g.ad(data.generic))
        return [name, pair.g.dim, pair.p.dim, pair.rank, data.root_type(),
                sorted([[str(c) for c in root], m] for root, m in mults.items()), len(kernels)]


WORKLOADS = {"quadric": Quadric, "limits": Limits, "structure": Structure}
