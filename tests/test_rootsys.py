import itertools

import pytest

from reductions.errors import DomainError
from reductions.rootsys import (
    build_root_system,
    canonical_survivors,
    infinite_orbit_types,
    inequality_survivors,
    malcev_dimension,
    max_abelian_root_sets,
    table1_row,
    verify_malcev_small,
    verify_table1_against_enumeration,
)


def test_build_root_system_counts():
    assert len(build_root_system("A", 2).positive) == 3
    assert build_root_system("A", 2).coxeter == 3
    g2 = build_root_system("G2", 2)
    assert len(g2.positive) == 6 and g2.coxeter == 6
    e8 = build_root_system("E8", 8)
    assert len(e8.positive) == 120 and e8.coxeter == 30


def test_roots_closed_under_negation_and_sums_recorded():
    rs = build_root_system("B", 3)
    for r in rs.roots:
        assert tuple(-c for c in r) in rs.roots
    # spot check: e1 - e2 plus e2 - e3 is a root, twice a root is not
    for a, b in itertools.combinations(rs.positive, 2):
        s = tuple(x + y for x, y in zip(a, b))
        assert rs.is_root(s) == (s in rs.roots)


def test_invalid_combinations():
    with pytest.raises(DomainError):
        build_root_system("G2", 3)
    with pytest.raises(DomainError):
        build_root_system("E6", 5)
    with pytest.raises(DomainError):
        build_root_system("B", 1)


def test_table1_rows():
    assert table1_row("B", 5) == (25, 10, 14)
    assert table1_row("F4", 4) == (24, 12, 15)
    assert table1_row("D", 6) == (30, 10, 15)
    assert table1_row("A", 2) == (3, 3, 4)
    assert table1_row("G2", 2) == (6, 6, 7)
    assert table1_row("E6", 6) == (36, 12, 17)
    assert table1_row("E7", 7) == (63, 18, 24)
    assert table1_row("E8", 8) == (120, 30, 37)


def test_table1_matches_enumeration():
    assert verify_table1_against_enumeration(max_classical_rank=8) > 0


def test_coxeter_times_rank_is_root_count():
    for type_, rank in (("A", 4), ("B", 3), ("C", 4), ("D", 5), ("F4", 4), ("G2", 2)):
        rs = build_root_system(type_, rank)
        assert rs.coxeter * rs.rank == len(rs.roots)


def test_inequality_survivors():
    raw = inequality_survivors()
    assert set(raw) == {("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G2", 2)}
    assert canonical_survivors() == ["A1", "A2", "A3", "B2", "G2"]


def test_survivor_exclusions():
    n2, _, bound = table1_row("A", 4)
    assert n2 == 10 and n2 > bound  # excluded
    n2, _, bound = table1_row("B", 3)
    assert n2 == 9 and bound == 8  # excluded


def test_max_abelian_g2():
    size, sets, classes = max_abelian_root_sets("G2", 2)
    assert size == 3
    assert classes == 2  # honest root-subset Weyl count
    assert all(len(s) == 3 for s in sets)


def test_g2_three_certified_classes():
    from reductions.rootsys import abelian_class_count, g2_abelian_nilpotent_classes

    out = g2_abelian_nilpotent_classes()
    assert out["count"] == 3 and out["dimension"] == 3
    assert len(set(out["normalizer_dims"].values())) == 3
    assert out["normalizer_dims"] == {"short-root": 7, "abelian-ideal": 9, "non-root": 6}
    summary = abelian_class_count("G2", 2)
    assert summary == {
        "max_size": 3,
        "classes": 3,
        "root_set_weyl_classes": 2,
        "note": out["note"],
    }


def test_max_abelian_small_types():
    assert max_abelian_root_sets("C", 2, count_classes=False)[0] == 3
    assert max_abelian_root_sets("A", 2, count_classes=False)[0] == 2
    assert max_abelian_root_sets("A", 3, count_classes=False)[0] == 4
    assert max_abelian_root_sets("B", 3, count_classes=False)[0] == 5


def test_max_abelian_exceptional_class_counts():
    size_b4, _, classes_b4 = max_abelian_root_sets("B", 4)
    assert (size_b4, classes_b4) == (7, 2)
    # triality identifies the three abelian parabolic nilradicals of D4;
    # the classification's second class has no root-spanned representative
    size_d4, _, classes_d4 = max_abelian_root_sets("D", 4)
    assert (size_d4, classes_d4) == (6, 1)
    size_b3, _, classes_b3 = max_abelian_root_sets("B", 3)
    assert (size_b3, classes_b3) == (5, 1)
    # the transpose symmetry of A4 merges the 2x3 and 3x2 block shapes
    size_a4, _, classes_a4 = max_abelian_root_sets("A", 4)
    assert (size_a4, classes_a4) == (6, 1)


def test_max_abelian_uniqueness_for_regular_types():
    _, _, classes_a3 = max_abelian_root_sets("A", 3)
    assert classes_a3 == 1
    _, _, classes_c2 = max_abelian_root_sets("C", 2)
    assert classes_c2 == 1


def test_malcev_closed_forms_match_enumeration():
    assert verify_malcev_small(max_rank=4) > 0
    assert malcev_dimension("A", 5) == 9
    assert malcev_dimension("E8", 8) == 36


def test_infinite_orbit_types():
    out = infinite_orbit_types()
    assert out["claimed"] == [("A", 5), ("B", 4), ("C", 5), ("D", 6), ("E7", 7), ("E8", 8)]
    # the inequality alone also fires at types the list omits
    assert ("A", 3) in out["inequality_only"] or ("A", 4) in out["inequality_only"]


def test_infinite_orbit_examples():
    # boundary arithmetic from the claimed list
    assert malcev_dimension("A", 5) == 9 and 5 * (9 - 5) > 3
    assert malcev_dimension("A", 2) == 2 and not 2 * (2 - 2) > 0
    assert malcev_dimension("E8", 8) == 36 and 8 * 28 > 6
