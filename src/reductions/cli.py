"""Command-line surface: build pairs, run degenerations, query root
combinatorics, and run the acceptance suite.

All numbers in reports are exact rational strings; identical configuration
and seed produce byte-identical output.  Exit codes: 0 all checks pass,
1 a falsified claim, 2 usage error, 3 an exhausted randomized search.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import DomainError, ReductionsError, SearchExhaustedError
from .exact import RationalMatrix, rat


def _jsonify(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def _emit(report, as_text=False):
    if as_text:
        for key, value in report.items():
            print(f"{key}: {json.dumps(_jsonify(value))}")
    else:
        print(json.dumps(_jsonify(report), indent=2, sort_keys=False))


def _build_pair(args):
    from .pairs import make_transpose_pair, square_of

    if args.square:
        return square_of(args.square)
    if args.transpose:
        return make_transpose_pair(args.transpose)
    raise DomainError("specify a pair with --square or --transpose")


def _parse_vector(pair, spec):
    """A p-element from either a dense p-coordinate list or a {label: value}
    dict over the algebra basis labels."""
    if isinstance(spec, dict):
        coords = [rat(0)] * pair.g.dim
        labels = {l: i for i, l in enumerate(pair.g.labels)}
        for label, value in spec.items():
            if label not in labels:
                raise DomainError(f"unknown basis label {label!r}")
            coords[labels[label]] = Fraction(value)
        from .liealg import Element

        x = Element(pair.g, coords)
        pair.to_p_coords(x)  # membership check
        return x
    return pair.from_p_coords([Fraction(v) for v in spec])


def _parse_plane(pair, text):
    from .planes import plane_from_basis

    data = json.loads(text)
    return plane_from_basis(pair, [_parse_vector(pair, v) for v in data])


def _parse_curve(pair, text):
    from .degeneration import GroupCurve

    data = json.loads(text)
    moves = []
    for move in data:
        kind = move["kind"]
        if kind == "torus":
            moves.append(("torus", tuple(int(w) for w in move["weights"])))
            continue
        gen = move["generator"]
        if isinstance(gen, str):
            gen = {gen: 1}
        coords = [rat(0)] * pair.g.dim
        labels = {l: i for i, l in enumerate(pair.g.labels)}
        for label, value in gen.items():
            if label not in labels:
                raise DomainError(f"unknown basis label {label!r}")
            coords[labels[label]] = Fraction(value)
        from .liealg import Element

        moves.append((kind, Element(pair.g, coords), int(move["exponent"])))
    return GroupCurve(pair, moves)


def cmd_pair(args):
    pair = _build_pair(args)
    data = pair.roots()
    from .pairs import dim_reduction_variety, singular_kernels

    report = {
        "command": "pair",
        "pair": pair.name,
        "dim_g": pair.g.dim,
        "dim_k": pair.k.dim,
        "dim_p": pair.p.dim,
        "rank": pair.rank,
        "dim_reduction_variety": dim_reduction_variety(pair),
        "root_type": data.root_type(),
        "positive_roots": len(data.positive),
        "multiplicities": {
            "alpha(" + ",".join(str(c) for c in a) + ")": data.p_alpha[a].dim
            for a in data.positive
        },
        "singular_kernels": len(singular_kernels(pair)),
        "basis_labels": list(pair.g.labels),
    }
    _emit(report, args.text)
    return 0


def cmd_degenerate(args):
    from .degeneration import (
        MonomialCurve,
        limit_computation,
        magnitude_flag,
    )
    from .planes import (
        exterior_killing_value,
        is_anisotropic_subalgebra,
        is_cj_closed,
        is_special_reduction,
        cartan_plane,
    )

    if args.toy:
        weights = json.loads(args.toy)
        curve = MonomialCurve(weights)
        basis = RationalMatrix([[Fraction(v) for v in row] for row in json.loads(args.plane)])
        flag = magnitude_flag(curve, basis)
        comp = limit_computation(curve, basis)
        report = {
            "command": "degenerate",
            "mode": "toy",
            "weights": weights,
            "flag_jumps": flag.jumps,
            "omegas": comp.omegas(),
            "wedge_valuation": comp.wedge_valuation,
            "limit": [[str(c) for c in row] for row in comp.plane.entries],
            "routes_agree": True,
            "constant_frame": comp.constant_frame_ok,
            "surfaced": comp.surfaced,
        }
        _emit(report, args.text)
        return 0

    pair = _build_pair(args)
    if args.plane == "cartan":
        plane = cartan_plane(pair)
    else:
        plane = _parse_plane(pair, args.plane)
    curve = _parse_curve(pair, args.curve)
    flag = magnitude_flag(curve, plane)
    comp = limit_computation(curve, plane)
    limit = comp.plane
    report = {
        "command": "degenerate",
        "pair": pair.name,
        "flag_jumps": flag.jumps,
        "omegas": comp.omegas(),
        "wedge_valuation": comp.wedge_valuation,
        "limit_basis": [[str(c) for c in row] for row in limit.matrix.entries],
        "routes_agree": True,  # disagreement raises before reaching here
        "constant_frame": comp.constant_frame_ok,
        "surfaced": comp.surfaced,
        "limit_abelian": is_anisotropic_subalgebra(limit),
    }
    # an abelian plane of full rank with nondegenerate Killing Gram is an
    # ordinary reduction, so its limits stay in the closure of the family
    input_ordinary = (
        plane.dim == pair.rank
        and is_anisotropic_subalgebra(plane)
        and exterior_killing_value(plane) != 0
    )
    if input_ordinary:
        report["limit_special"] = is_special_reduction(limit, known_in_r=True)
    if is_anisotropic_subalgebra(plane) and is_cj_closed(plane):
        from .degeneration import rigidity_check

        rep = rigidity_check(curve, plane)
        report["rigidity"] = rep.summary()
    _emit(report, args.text)
    return 0


def cmd_roots(args):
    from .rootsys import (
        TABLE1_NOTES,
        abelian_class_count,
        canonical_survivors,
        infinite_orbit_types,
        table1_row,
        verify_table1_against_enumeration,
    )

    report = {"command": "roots"}
    if args.table1:
        rows = {}
        for type_, rank in (
            ("A", 3), ("B", 3), ("C", 3), ("D", 4),
            ("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2),
        ):
            label = type_ if type_ in ("E6", "E7", "E8", "F4", "G2") else f"{type_}_r (r={rank})"
            rows[label] = table1_row(type_, rank)
        report["table1"] = rows
        report["closed_forms"] = {
            "A_r": "(r(r+1)/2, r+1, 2r)",
            "B_r": "(r^2, 2r, 3r-1)",
            "C_r": "(r^2, 2r, 3r-1)",
            "D_r": "(r(r-1), 2r-2, 3r-3)",
        }
        report["enumeration_cross_checked_rows"] = verify_table1_against_enumeration()
        report["notes"] = TABLE1_NOTES
    elif args.survivors:
        report["survivors"] = canonical_survivors()
        report["note"] = "B2 and C2 are isomorphic; C2 is folded into B2"
    elif args.malcev:
        type_ = args.malcev
        rank = args.rank or {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}.get(type_)
        if rank is None:
            raise DomainError("--rank is required for classical types")
        report["malcev"] = abelian_class_count(type_, rank)
    elif args.orbits:
        report["infinite_orbit_types"] = infinite_orbit_types()
    elif args.type:
        from .rootsys import build_root_system

        rs = build_root_system(args.type, args.rank)
        report["type"] = args.type
        report["rank"] = args.rank
        report["positive_roots"] = len(rs.positive)
        report["coxeter"] = rs.coxeter
        report["table_row"] = table1_row(args.type, args.rank)
    else:
        raise DomainError("nothing requested; see --help")
    _emit(report, args.text)
    return 0


def cmd_verify(args):
    from .acceptance import run_acceptance

    results = run_acceptance(suite=args.suite, seed=args.seed)
    results = sorted(results, key=lambda r: r.name)
    failures = [r for r in results if r.status == "fail"]
    report = {
        "command": "verify",
        "config": {"suite": args.suite, "seed": args.seed},
        "checks": [r.as_dict() for r in results],
        "summary": {
            "total": len(results),
            "pass": sum(1 for r in results if r.status == "pass"),
            "evidence": sum(1 for r in results if r.status == "evidence"),
            "fail": len(failures),
        },
    }
    _emit(report, args.text)
    if failures:
        print(
            "falsified: " + "; ".join(f"{r.name}: {r.claim}" for r in failures),
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reductions",
        description="exact-arithmetic toolkit for symmetric pairs and the "
        "Grassmannian degenerations of their Cartan subspaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pair = sub.add_parser("pair", help="construct a pair and report its structure")
    p_pair.add_argument("--square", help="sl2, sl3, sl5, sp4 or g2")
    p_pair.add_argument("--transpose", type=int, help="n for the transpose pair on sl_n")
    p_pair.add_argument("--text", action="store_true", help="line-oriented output")
    p_pair.set_defaults(func=cmd_pair)

    p_deg = sub.add_parser("degenerate", help="move a plane along a curve to t = 0")
    p_deg.add_argument("--square")
    p_deg.add_argument("--transpose", type=int)
    p_deg.add_argument("--toy", help="JSON list of monomial weights (raw vector-space mode)")
    p_deg.add_argument(
        "--curve",
        help='JSON moves, e.g. [{"kind": "exp", "generator": {"L.e12": 1, "R.e12": 1}, "exponent": -1}]',
    )
    p_deg.add_argument(
        "--plane",
        default="cartan",
        help='"cartan" (default), or JSON list of vectors (p-coordinate lists '
        "or {label: value} dicts)",
    )
    p_deg.add_argument("--text", action="store_true")
    p_deg.set_defaults(func=cmd_degenerate)

    p_roots = sub.add_parser("roots", help="root-system combinatorics")
    p_roots.add_argument("--table1", action="store_true", help="the positive-roots/Coxeter table")
    p_roots.add_argument("--survivors", action="store_true", help="types with few positive roots")
    p_roots.add_argument("--malcev", metavar="TYPE", help="maximal abelian root sets")
    p_roots.add_argument("--orbits", action="store_true", help="infinitely-many-orbits list")
    p_roots.add_argument("--type", help="build one root system")
    p_roots.add_argument("--rank", type=int)
    p_roots.add_argument("--text", action="store_true")
    p_roots.set_defaults(func=cmd_roots)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--suite", choices=("fast", "full"), default="fast")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--text", action="store_true")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SearchExhaustedError as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ReductionsError as exc:
        print(f"falsified claim or internal inconsistency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
