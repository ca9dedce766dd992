"""Abstract root systems and the combinatorics of abelian root subsets.

Root systems are generated from Cartan matrices by reflection closure, in
simple-root coordinates.  On top of them: the positive-root/Coxeter table,
the rank bound that pins down which types admit small nilpotent normalizers,
exhaustive enumeration of maximal abelian sets of positive roots with their
classes up to Weyl group and diagram automorphisms, and the orbit-count
criterion for the variety of abelian subalgebras.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, InternalCheckError

_TYPES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")


def _cartan_matrix(type_: str, rank: int):
    """C[i][j] = <alpha_j, alpha_i^vee>."""

    def base(n):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = 2
        for i in range(n - 1):
            m[i][i + 1] = -1
            m[i + 1][i] = -1
        return m

    if type_ == "A":
        if rank < 1:
            raise DomainError("A_r needs r >= 1")
        return base(rank)
    if type_ == "B":
        if rank < 2:
            raise DomainError("B_r needs r >= 2")
        m = base(rank)
        m[rank - 1][rank - 2] = -2  # alpha_r short
        return m
    if type_ == "C":
        if rank < 2:
            raise DomainError("C_r needs r >= 2")
        m = base(rank)
        m[rank - 2][rank - 1] = -2  # alpha_r long
        return m
    if type_ == "D":
        if rank < 3:
            raise DomainError("D_r needs r >= 3")
        m = base(rank)
        m[rank - 1][rank - 2] = 0
        m[rank - 2][rank - 1] = 0
        m[rank - 1][rank - 3] = -1
        m[rank - 3][rank - 1] = -1
        return m
    if type_ in ("E6", "E7", "E8"):
        n = int(type_[1])
        if rank != n:
            raise DomainError(f"{type_} has rank {n}")
        # chain 1-3-4-5-6(-7)(-8) with node 2 attached to node 4 (Bourbaki)
        m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        chain = [0] + list(range(2, n))
        for a, b in zip(chain, chain[1:]):
            m[a][b] = m[b][a] = -1
        m[1][3] = m[3][1] = -1
        return m
    if type_ == "F4":
        if rank != 4:
            raise DomainError("F4 has rank 4")
        m = base(4)
        m[1][2] = -2  # <alpha_3, alpha_2^vee> = -2: alpha_3 short
        m[2][1] = -1
        return m
    if type_ == "G2":
        if rank != 2:
            raise DomainError("G2 has rank 2")
        return [[2, -3], [-1, 2]]
    raise DomainError(f"unknown type {type_!r}")


class RootSystem:
    """Roots in simple-root coordinates, with the Coxeter number verified two
    ways: as roots/rank and as 1 + height of the highest root."""

    def __init__(self, type_: str, rank: int):
        self.type = type_
        self.rank = rank
        self.cartan = _cartan_matrix(type_, rank)
        roots = set()
        frontier = set()
        for i in range(rank):
            alpha = tuple(1 if j == i else 0 for j in range(rank))
            roots.add(alpha)
            frontier.add(alpha)
        while frontier:
            new = set()
            for v in frontier:
                for i in range(rank):
                    pairing = sum(self.cartan[i][j] * v[j] for j in range(rank))
                    w = tuple(
                        v[j] - (pairing if j == i else 0) for j in range(rank)
                    )
                    if w not in roots:
                        roots.add(w)
                        new.add(w)
            frontier = new
        self.roots = frozenset(roots)
        self.positive = tuple(
            sorted(r for r in roots if _is_positive(r))
        )
        if 2 * len(self.positive) != len(self.roots):
            raise InternalCheckError("positive roots do not halve the root set")
        count = len(self.roots)
        if count % rank:
            raise InternalCheckError("root count is not divisible by the rank")
        self.coxeter = count // rank
        highest = max(self.positive, key=lambda r: sum(r))
        if 1 + sum(highest) != self.coxeter:
            raise InternalCheckError(
                "Coxeter number disagrees with 1 + height of the highest root"
            )

    def is_root(self, v) -> bool:
        return tuple(v) in self.roots

    def reflect(self, i, v):
        pairing = sum(self.cartan[i][j] * v[j] for j in range(self.rank))
        return tuple(v[j] - (pairing if j == i else 0) for j in range(self.rank))

    def diagram_automorphisms(self):
        """Nontrivial diagram symmetries as simple-root permutations."""
        r = self.rank
        autos = []
        if self.type == "A" and r >= 2:
            autos.append(tuple(r - 1 - i for i in range(r)))
        if self.type == "D":
            swap = list(range(r))
            swap[r - 1], swap[r - 2] = swap[r - 2], swap[r - 1]
            autos.append(tuple(swap))
            if r == 4:
                autos.append((2, 1, 0, 3))  # a second triality generator
        if self.type == "E6":
            autos.append((5, 1, 4, 3, 2, 0))
        return autos

    def apply_permutation(self, perm, v):
        out = [0] * self.rank
        for i, c in enumerate(v):
            out[perm[i]] = c
        return tuple(out)


def _is_positive(root):
    for c in root:
        if c > 0:
            return True
        if c < 0:
            return False
    return False


@lru_cache(maxsize=None)
def build_root_system(type_: str, rank: int) -> RootSystem:
    return RootSystem(type_, rank)


# ---------------------------------------------------------------------------
# the positive-root / Coxeter table


def table1_row(type_: str, rank: int):
    """(number of positive roots, Coxeter number, h + r - 1), closed form.

    The printed source row for the rank-7 E-type is arithmetically
    inconsistent (its Coxeter entry contradicts roots = h * rank); the values
    here satisfy both defining identities and are cross-checked against the
    enumerated root systems.
    """
    r = rank
    if type_ == "A":
        return (r * (r + 1) // 2, r + 1, 2 * r)
    if type_ in ("B", "C"):
        return (r * r, 2 * r, 3 * r - 1)
    if type_ == "D":
        return (r * (r - 1), 2 * r - 2, 3 * r - 3)
    if type_ == "E6":
        return (36, 12, 17)
    if type_ == "E7":
        return (63, 18, 24)
    if type_ == "E8":
        return (120, 30, 37)
    if type_ == "F4":
        return (24, 12, 15)
    if type_ == "G2":
        return (6, 6, 7)
    raise DomainError(f"unknown type {type_!r}")


TABLE1_NOTES = {
    "E7": "source text prints (63, 12, 18); h*rank = #roots and h = 1 + height "
    "force (63, 18, 24), which the enumerated system confirms",
}


def verify_table1_against_enumeration(max_classical_rank=8):
    """Recompute every closed-form row from an actual root enumeration."""
    cases = []
    for r in range(1, max_classical_rank + 1):
        cases.append(("A", r))
    for r in range(2, max_classical_rank + 1):
        cases.append(("B", r))
        cases.append(("C", r))
    for r in range(4, max_classical_rank + 1):
        cases.append(("D", r))
    cases += [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
    for type_, r in cases:
        rs = build_root_system(type_, r)
        expected = table1_row(type_, r)
        got = (len(rs.positive), rs.coxeter, rs.coxeter + r - 1)
        if got != expected:
            raise InternalCheckError(f"table row mismatch for {type_}_{r}: {got} vs {expected}")
    return len(cases)


# ---------------------------------------------------------------------------
# the small-normalizer inequality


def inequality_survivors(scan_rank=50):
    """Types with #positive roots <= h + r - 1.

    The closed forms are quadratic-versus-linear in the rank, so checking up
    to the scan bound proves the classical families die out; the survivors
    are the small types (with the two rank-2 double-bond types isomorphic).
    """
    survivors = []
    for r in range(1, scan_rank + 1):
        n2, _, bound = table1_row("A", r)
        if n2 <= bound:
            survivors.append(("A", r))
    for type_ in ("B", "C"):
        for r in range(2, scan_rank + 1):
            n2, _, bound = table1_row(type_, r)
            if n2 <= bound:
                survivors.append((type_, r))
    for r in range(4, scan_rank + 1):
        n2, _, bound = table1_row("D", r)
        if n2 <= bound:
            survivors.append(("D", r))
    for type_, r in (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)):
        n2, _, bound = table1_row(type_, r)
        if n2 <= bound:
            survivors.append((type_, r))
    # closed-form monotonicity: each family's margin n/2 - (h + r - 1) is a
    # quadratic with positive leading coefficient; once it is positive and
    # increasing the family is gone for every larger rank
    for type_, quad in (("A", (1, -3, 0)), ("B", (1, -3, 1)), ("C", (1, -3, 1)), ("D", (1, -4, 3))):
        a, b, c = quad
        r = scan_rank
        margin = a * r * r + b * r + c
        margin_next = a * (r + 1) * (r + 1) + b * (r + 1) + c
        if margin <= 0 or margin_next <= margin:
            raise InternalCheckError("scan bound too small to certify monotonicity")
    return survivors


def canonical_survivors():
    """Survivors with the B2 = C2 identification applied."""
    raw = inequality_survivors()
    out = []
    for type_, r in raw:
        if (type_, r) == ("C", 2):
            continue  # isomorphic to B2
        out.append(f"{type_}{r}" if type_ in ("A", "B", "C", "D") else type_)
    return out


# ---------------------------------------------------------------------------
# abelian sets of positive roots


def max_abelian_root_sets(type_: str, rank: int, count_classes=True):
    """Maximum size of an abelian set of positive roots, every maximum set,
    and the number of classes up to the Weyl group and diagram automorphisms.

    Exhaustive branch-and-bound over the compatibility graph; desk scale
    covers the ranks where the answers matter here.
    """
    system = build_root_system(type_, rank)
    pos = list(system.positive)
    n = len(pos)
    compatible = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                s = tuple(a + b for a, b in zip(pos[i], pos[j]))
                compatible[i][j] = not system.is_root(s)

    best_size = 0
    best_sets: list[frozenset] = []

    def extend(chosen, candidates):
        nonlocal best_size, best_sets
        if len(chosen) + len(candidates) < best_size:
            return
        if not candidates:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_sets = [frozenset(chosen)]
            elif len(chosen) == best_size:
                fs = frozenset(chosen)
                if fs not in best_sets:
                    best_sets.append(fs)
            return
        head = candidates[0]
        rest = candidates[1:]
        extend(chosen + [head], [c for c in rest if compatible[head][c]])
        if len(chosen) + len(rest) >= best_size:
            extend(chosen, rest)

    extend([], list(range(n)))
    sets_as_roots = [frozenset(pos[i] for i in s) for s in best_sets]
    classes = None
    if count_classes:
        classes = _count_classes(system, sets_as_roots)
    return best_size, sets_as_roots, classes


def _count_classes(system: RootSystem, subsets):
    perms = system.diagram_automorphisms()
    remaining = set(subsets)
    classes = 0
    while remaining:
        seed = next(iter(remaining))
        orbit = {seed}
        frontier = [seed]
        while frontier:
            cur = frontier.pop()
            images = []
            for i in range(system.rank):
                images.append(frozenset(system.reflect(i, v) for v in cur))
            for perm in perms:
                images.append(frozenset(system.apply_permutation(perm, v) for v in cur))
            for img in images:
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        hit = {s for s in remaining if s in orbit}
        remaining -= hit
        classes += 1
    return classes


G2_CLASS_NOTE = (
    "root-subset enumeration sees two Weyl classes of maximum abelian sets; "
    "the third class of the classification has no root-spanned representative "
    "and is exhibited by an explicit self-centralizing subalgebra, with the "
    "three classes separated by exact normalizer dimensions"
)


def g2_abelian_nilpotent_classes():
    """Certified distinct classes of 3-dimensional abelian nilpotent
    subalgebras of the rank-2 exceptional algebra.

    Two classes have root-spanned representatives; the third does not.  Each
    representative is verified abelian with nilpotent basis and maximal
    (self-centralizing), and the three are pairwise non-conjugate because
    their normalizer dimensions differ.  Completeness of the list is the
    classification theorem, used as data.
    """
    from .liealg import build_g2, centralizer_of_subspace, classify_element, normalizer_dimension

    g = build_g2()
    roots_order = [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)]
    idx = {r: 2 + i for i, r in enumerate(roots_order)}

    def rv(r):
        return g.basis_element(idx[r])

    reps = {
        "short-root": [rv((1, 0)), rv((3, 1)), rv((3, 2))],
        "abelian-ideal": [rv((2, 1)), rv((3, 1)), rv((3, 2))],
        "non-root": [
            rv((3, 2)),
            rv((3, 1)) + rv((0, 1)),
            rv((2, 1)),
        ],
    }
    profiles = {}
    for name, vectors in reps.items():
        sub = g.subspace(vectors)
        if sub.dim != 3:
            raise InternalCheckError("representative is not three-dimensional")
        for i, x in enumerate(vectors):
            if classify_element(x) != "nilpotent":
                raise InternalCheckError("representative contains a non-nilpotent")
            for y in vectors[i + 1 :]:
                if not g.bracket(x, y).is_zero():
                    raise InternalCheckError("representative is not abelian")
        if centralizer_of_subspace(sub, g.full_subspace()).dim != 3:
            raise InternalCheckError("representative is not self-centralizing")
        # normalizer dimension is conjugation-invariant and separates the classes
        profiles[name] = normalizer_dimension(sub, [g.basis_element(j) for j in range(g.dim)])
    if len(set(profiles.values())) != 3:
        raise InternalCheckError("normalizer dimensions fail to separate the classes")
    return {"count": 3, "dimension": 3, "normalizer_dims": profiles, "note": G2_CLASS_NOTE}


def abelian_class_count(type_: str, rank: int):
    """Classes of maximal abelian nilpotent subalgebras up to automorphism.

    Root-subset Weyl classes except for the rank-2 exceptional type, whose
    third class is certified separately; the accompanying note flags every
    case where the two counts differ.
    """
    size, _, weyl_classes = max_abelian_root_sets(type_, rank)
    if type_ == "G2":
        extended = g2_abelian_nilpotent_classes()
        return {
            "max_size": size,
            "classes": extended["count"],
            "root_set_weyl_classes": weyl_classes,
            "note": extended["note"],
        }
    return {"max_size": size, "classes": weyl_classes, "root_set_weyl_classes": weyl_classes}


MALCEV_NOTE = (
    "the closed-form rank formula for the A family printed in the source "
    "reads floor((r-1)^2/4); exhaustive enumeration gives floor((r+1)^2/4), "
    "which the enumeration oracle pins as authoritative"
)


def malcev_dimension(type_: str, rank: int) -> int:
    """Largest dimension of an abelian nilpotent subalgebra.

    Small ranks are enumerated; larger ranks use the classical closed forms.
    The rank-7 E-type value printed in the source (29) fails the classical
    tables (27); the orbit-count conclusion below is the same either way.
    """
    if type_ == "A":
        return ((rank + 1) ** 2) // 4
    if type_ == "B":
        return {2: 3, 3: 5, 4: 7}.get(rank, rank * (rank - 1) // 2 + 1)
    if type_ == "C":
        return rank * (rank + 1) // 2
    if type_ == "D":
        return rank * (rank - 1) // 2 if rank != 4 else 6
    return {"E6": 16, "E7": 27, "E8": 36, "F4": 9, "G2": 3}[type_]


def verify_malcev_small(max_rank=4):
    """Cross-check the closed forms against enumeration at desk scale."""
    checks = [("A", r) for r in range(1, max_rank + 1)]
    checks += [("B", r) for r in range(2, max_rank + 1)]
    checks += [("C", r) for r in range(2, max_rank + 1)]
    checks += [("D", 4), ("G2", 2)]
    for type_, r in checks:
        size, _, _ = max_abelian_root_sets(type_, r, count_classes=False)
        if size != malcev_dimension(type_, r):
            raise InternalCheckError(
                f"enumerated abelian maximum for {type_}_{r} is {size}, "
                f"closed form says {malcev_dimension(type_, r)}"
            )
    return len(checks)


PROP_LIST = (("A", 5), ("B", 4), ("C", 5), ("D", 6), ("E7", 7), ("E8", 8))


def infinite_orbit_types(scan_rank=12):
    """The claimed infinitely-many-orbits list, each entry verified against
    the inequality r(m - r) > r - 2, plus the scan of types where the
    inequality holds without being claimed.

    The inequality is necessary for the counting argument but visibly not
    sufficient on its own (it also holds at types absent from the list), so
    the extras are reported rather than promoted.
    """
    claimed = []
    for type_, bound in PROP_LIST:
        if type_ in ("E7", "E8"):
            r = bound
            m = malcev_dimension(type_, r)
            if not r * (m - r) > r - 2:
                raise InternalCheckError(f"claimed type {type_} fails the inequality")
            claimed.append((type_, r))
            continue
        for r in range(bound, scan_rank + 1):
            m = malcev_dimension(type_, r)
            if not r * (m - r) > r - 2:
                raise InternalCheckError(
                    f"claimed family {type_}_{r} fails the inequality"
                )
        claimed.append((type_, bound))
    extras = []
    for type_ in ("A", "B", "C", "D"):
        start = {"A": 1, "B": 2, "C": 2, "D": 4}[type_]
        for r in range(start, scan_rank + 1):
            m = malcev_dimension(type_, r)
            holds = r * (m - r) > r - 2
            in_list = any(t == type_ and r >= b for t, b in PROP_LIST if t == type_)
            if holds and not in_list:
                extras.append((type_, r))
    for type_, r in (("E6", 6), ("F4", 4), ("G2", 2)):
        m = malcev_dimension(type_, r)
        if r * (m - r) > r - 2:
            extras.append((type_, r))
    return {"claimed": claimed, "inequality_only": extras}

