"""Helpers shared by the benchmark's processes: finding the package source
of the checkout, naming pairs, and writing exact rationals as strings."""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("quadric", "limits", "structure")


def import_reductions():
    """Import the package from the checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "reductions", "__init__.py")):
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import reductions

    return reductions


def enc_rows(rows):
    return [[str(Fraction(c)) for c in row] for row in rows]


def dec_rows(rows):
    return [[Fraction(c) for c in row] for row in rows]


def digest(obj) -> str:
    """sha256 of the canonical JSON text of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def build_pair(name):
    """The pair called ``name`` ("square(sl3)", "transpose4", ...), through
    the package's cached constructors."""
    from reductions.pairs import make_transpose_pair, square_of

    if name.startswith("square(") and name.endswith(")"):
        return square_of(name[len("square("):-1])
    if name.startswith("transpose"):
        return make_transpose_pair(int(name[len("transpose"):]))
    raise ValueError(f"unknown pair {name!r}")
