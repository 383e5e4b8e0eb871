import random
from fractions import Fraction

import pytest

from jetforge.errors import DimensionMismatch, OrderTooHigh
from jetforge.jets import (
    JetVector,
    _tree,
    bump,
    enumerate_multiindices,
    jet_dimension,
)
from jetforge.scalar import Scalar


def test_enumeration_one_variable():
    assert enumerate_multiindices(1, 2) == [(0,), (1,), (2,)]


def test_enumeration_graded_lex_two_variables():
    assert enumerate_multiindices(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert enumerate_multiindices(2, 2) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
    ]


def test_enumeration_order_zero():
    assert enumerate_multiindices(3, 0) == [(0, 0, 0)]


def test_no_duplicates_and_count():
    for m in (1, 2, 3):
        for k in (0, 1, 2, 3):
            idx = enumerate_multiindices(m, k)
            assert len(idx) == len(set(idx)) == jet_dimension(m, k)


def test_jet_dimension_values():
    # count by hand: {(0,0,0), (1,0,0), (0,1,0), (0,0,1)}
    assert jet_dimension(3, 1) == 4
    assert jet_dimension(5, 0) == 1
    assert jet_dimension(1, 7) == 8
    assert jet_dimension(2, 2) == 6


def test_jet_dimension_validation():
    with pytest.raises(ValueError):
        jet_dimension(0, 1)
    with pytest.raises(ValueError):
        jet_dimension(1, -1)


def test_jetvector_entry_count_enforced():
    with pytest.raises(DimensionMismatch):
        JetVector(1, 2, [1, 2])


def test_projection_truncates():
    jet = JetVector(1, 2, [1, 2, 2])
    assert jet.project(1) == JetVector(1, 1, [1, 2])
    assert jet.project(2) == jet


def test_projection_too_high():
    jet = JetVector(1, 2, [1, 2, 2])
    with pytest.raises(OrderTooHigh):
        jet.project(3)
    with pytest.raises(ValueError, match=r"^jet order must be >= 0, got -1$"):
        jet.project(-1)


def test_projection_tower_composes():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 3)
        top = rng.randint(0, 4)
        jet = JetVector(
            m, top, [rng.randint(-5, 5) for _ in range(jet_dimension(m, top))]
        )
        mid = rng.randint(0, top)
        low = rng.randint(0, mid)
        assert jet.project(mid).project(low) == jet.project(low)


def test_indexing_by_multiindex():
    jet = JetVector.from_mapping(2, 1, {(1, 0): 3, (0, 1): Scalar(0, 1)})
    assert jet[(0, 0)] == 0
    assert jet[(1, 0)] == 3
    assert jet[(0, 1)] == Scalar(0, 1)


def test_equal_jets_hash_equal_whatever_their_entry_types():
    jets = [
        JetVector(1, 1, [1, 0]),
        JetVector(1, 1, [Fraction(1), Fraction(0)]),
        JetVector(1, 1, [Scalar(1), Scalar()]),
    ]
    assert len({hash(j) for j in jets}) == 1
    table = {jets[0]: "found"}
    assert [table.get(j) for j in jets] == ["found"] * 3


def test_vector_space_operations():
    a = JetVector(1, 1, [1, 2])
    b = JetVector(1, 1, [5, -2])
    assert a + b == JetVector(1, 1, [6, 0])
    assert a - b == JetVector(1, 1, [-4, 4])
    assert 2 * a == JetVector(1, 1, [2, 4])
    assert (-a) + a == JetVector.zeros(1, 1)
    with pytest.raises(DimensionMismatch):
        a + JetVector.zeros(1, 2)
    with pytest.raises(DimensionMismatch):
        a - JetVector.zeros(1, 2)
    # three entries each, but different shapes
    line, plane = JetVector(1, 2, [1, 2, 3]), JetVector(2, 1, [1, 2, 3])
    assert line != plane
    with pytest.raises(DimensionMismatch):
        line + plane


def test_json_round_trip():
    jet = JetVector.from_mapping(
        2, 1, {(1, 0): Scalar("1/3", "-2"), (0, 1): 4}
    )
    data = jet.to_json_dict()
    assert data["m"] == 2 and data["order"] == 1
    assert data["entries"][0] == {"alpha": [0, 0], "re": "0", "im": "0"}
    assert data["entries"][1] == {"alpha": [1, 0], "re": "1/3", "im": "-2"}
    assert JetVector.from_json_dict(data) == jet


def test_from_mapping_refuses_keys_outside_the_jet():
    with pytest.raises(DimensionMismatch) as info:
        JetVector.from_mapping(1, 1, {(5,): 7, (1,): 2})
    assert str(info.value) == "multiindex (5,) outside the jet of order 1"
    # the shape is checked before any key is looked up
    with pytest.raises(ValueError) as info:
        JetVector.from_mapping(0, 1, {})
    assert str(info.value) == "base dimension must be >= 1, got 0"


def test_tree_walk_visits_each_index_once_after_its_parent():
    for m in (1, 2, 3):
        for k in (0, 1, 2, 3, 4):
            walk = _tree(m, k)
            alphas = [alpha for alpha, _, _ in walk]
            assert alphas == enumerate_multiindices(m, k)[1:]
            seen = {(0,) * m}
            for alpha, parent, i in walk:
                assert parent in seen
                assert bump(parent, i) == alpha
                assert all(a == 0 for a in alpha[: i - 1])
                seen.add(alpha)
