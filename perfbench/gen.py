"""Input generation for the benchmark workloads.

Runs in its own process, so nothing it builds or caches is warm in the
measuring process; it writes the inputs as JSON with exact rational
coordinates (strings) to stdout:

    python3 perfbench/gen.py --workload quadric --seed 7

A pool holds each pair in the proportion the acceptance criteria give it,
shuffled by the seed. Planes and curves are drawn by the criteria's own
samplers (``acceptance._sample_abelian_plane`` and ``_sample_curve``), from
the generators the criteria seed for the same seed, so on seed 42 a pool
holds the first instances of the fast suite's criteria 3 to 6.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from common import WORKLOADS, build_pair, enc_rows, import_reductions

# Pool units of each workload. A pass over the pool takes about ten seconds,
# so a run makes several passes.
UNITS = {"quadric": 32, "limits": 28, "structure": 1}

# The warm-up ops are drawn from this fixed seed, so set-up does the same
# work whatever the run's seed.
WARMUP_SEED = 0

# Quadric ops per unit: (kind, pair, count). Criterion 3 draws as many
# planes on each of its pairs and criterion 4 as many elements on each of
# its pairs. Between the two criteria the battery runs 15 planes per
# element; the workload runs about one criterion-4 op in four, so that the
# Jacobian ops are its tail. The share is 4 in 13 rather than 1 in 4: at 1
# in 4 the median falls exactly on the edge between the transpose3 planes
# (about 5 ms) and the square(sl2) Jacobian ops (about 8 ms), and moved by
# a fifth or more between windows of one run on one seed.
QUADRIC_UNIT = (
    ("plane", "square(sl2)", 3),
    ("plane", "square(sl3)", 3),
    ("plane", "transpose3", 3),
    ("jacobian", "square(sl2)", 2),
    ("jacobian", "square(sl3)", 2),
)
# Criterion 5 (full suite) draws as many instances on each of these pairs,
# and criterion 6 one rigidity check per two of them on the first three.
LIMIT_PAIRS = ("square(sl2)", "square(sl3)", "transpose3", "square(sp4)")
RIGIDITY_PAIRS = ("square(sl2)", "square(sl3)", "transpose3")
# Criterion 2 builds each pair once.
STRUCTURE_PAIRS = ("square(sl2)", "square(sl3)", "square(sp4)", "square(g2)",
                   "transpose3", "transpose4")


def _scrambled_basis(plane, rng):
    """The plane's p-coordinate basis under a random unitriangular integer
    change of basis, so the op has to bring it to canonical form again."""
    rows = [list(row) for row in plane.matrix.entries]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            c = rng.randint(-2, 2)
            if c:
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return enc_rows(rows)


def _jacobian_element(pair, n, rng):
    """g-coordinates of (y, -y) for a random traceless integer y, drawn as
    criterion 4 draws it."""
    from fractions import Fraction

    from reductions.exact import RationalMatrix

    y = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    tr = sum(y[i][i] for i in range(n)) / n
    for i in range(n):
        y[i][i] -= tr
    big = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            big[i][j] = y[i][j]
            big[n + i][n + j] = -y[i][j]
    return enc_rows([pair.g.from_realization(RationalMatrix(big)).coords])[0]


def _curve_spec(curve):
    """The generators of a sampled arc: its move kind, and per move the
    generator's g-coordinates and t-exponent."""
    return {"kind": curve.moves[0][0],
            "gens": [[enc_rows([y.coords])[0], e] for _, y, e in curve.moves]}


def _moved_cartan(pair, rng):
    """The Cartan subspace moved by a sampled automorphism, as criterion 6
    draws it."""
    from reductions.liealg import Element
    from reductions.pairs import sample_k_automorphism
    from reductions.planes import cartan_plane, plane_from_basis

    auto = sample_k_automorphism(pair, rng)
    return plane_from_basis(
        pair, [Element(pair.g, auto.apply(x.coords)) for x in cartan_plane(pair).basis_elements()]
    )


# ---------------------------------------------------------------------------
# workloads


def gen_quadric(seed, units):
    """Planes as criterion 3 draws them, limit planes included, and
    elements as criterion 4 draws them."""
    from reductions.acceptance import _sample_abelian_plane, _subseed
    from reductions.pairs import singular_kernels

    ops = []
    for kind, name, per_unit in QUADRIC_UNIT:
        pair = build_pair(name)
        if kind == "plane":
            rng = random.Random(_subseed(seed, name, "quadric"))
            scramble = random.Random(_subseed(seed, name, "scramble"))
            kernels = singular_kernels(pair)
            for _ in range(per_unit * units):
                plane = _sample_abelian_plane(pair, rng, kernels)
                ops.append({"kind": kind, "pair": name, "basis": _scrambled_basis(plane, scramble)})
        else:
            factor = name[len("square("):-1]
            rng = random.Random(_subseed(seed, factor, "jacobian"))
            for _ in range(per_unit * units):
                x = _jacobian_element(pair, int(factor[2:]), rng)
                ops.append({"kind": kind, "pair": name, "x": x})
    return ops


def gen_limits(seed, units):
    """(curve, plane) instances as criterion 5 draws them; on the pairs of
    criterion 6 every second instance also carries a rigidity plane, the
    Cartan subspace or, every third time, a moved one, as criterion 6 takes
    them."""
    from reductions.acceptance import _sample_abelian_plane, _sample_curve, _subseed
    from reductions.pairs import singular_kernels
    from reductions.planes import cartan_plane

    ops = []
    for name in LIMIT_PAIRS:
        pair = build_pair(name)
        rng = random.Random(_subseed(seed, name, "limits"))
        rig_rng = random.Random(_subseed(seed, name, "rigidity"))
        kernels = singular_kernels(pair)
        done = 0
        while done < units:
            curve = _sample_curve(pair, rng)
            if curve is None:
                continue  # criterion 5 draws again
            plane = _sample_abelian_plane(pair, rng, kernels, allow_limits=False)
            op = {"pair": name, "curve": _curve_spec(curve),
                  "plane": enc_rows(plane.matrix.entries), "rigidity": None}
            if name in RIGIDITY_PAIRS and done % 2 == 0:
                rig = _moved_cartan(pair, rig_rng) if done % 6 == 4 else cartan_plane(pair)
                op["rigidity"] = enc_rows(rig.matrix.entries)
            ops.append(op)
            done += 1
    return ops


def gen_structure(seed, units):
    """Criterion 2's pairs; the seed only orders them."""
    return [{"pair": name} for _ in range(units) for name in STRUCTURE_PAIRS]


GENERATORS = {"quadric": gen_quadric, "limits": gen_limits, "structure": gen_structure}


def first_of_each(ops):
    """The first op of each (kind, pair), preferring one with a rigidity
    plane, so the warm-up runs every code path once."""
    seen = {}
    for op in ops:
        key = (op.get("kind"), op["pair"])
        if key not in seen or op.get("rigidity") and not seen[key].get("rigidity"):
            seen[key] = op
    return list(seen.values())


def generate(workload, seed):
    """The pool for ``seed``, shuffled, and the seed-independent warm-up."""
    gen = GENERATORS[workload]
    ops = gen(seed, UNITS[workload])
    random.Random(f"{workload}|order|{seed}").shuffle(ops)
    warmup = [] if workload == "structure" else first_of_each(gen(WARMUP_SEED, 1))
    return {"workload": workload, "seed": seed, "ops": ops, "warmup": warmup}


def main(argv=None):
    parser = argparse.ArgumentParser(description="generate benchmark inputs")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    import_reductions()
    json.dump(generate(args.workload, args.seed), sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
