"""Tests for the input datum: the numbers a ``CompleteIntersection`` stores,
and the contract of its class, frozen and slotted."""

import copy
import pickle

import pytest
from hypothesis import given, settings

from fanolg import CompleteIntersection
from strategies import fano_complete_intersections


@settings(max_examples=200)
@given(fano_complete_intersections())
def test_property_stored_numbers_equal_their_definitions(ci):
    k = len(ci.degrees)
    index = ci.dim + k + 1 - sum(ci.degrees)
    expected = {"k": k, "index": index, "l": index - 1}
    copies = [ci, copy.copy(ci), copy.deepcopy(ci)] + [
        pickle.loads(pickle.dumps(ci, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert {name: getattr(other, name) for name in expected} == expected
        assert other == ci and hash(other) == hash(ci)
        assert repr(other) == f"CompleteIntersection(dim={ci.dim}, degrees={ci.degrees!r})"
    # keyword construction and a match on (dim, degrees) see the same variety
    assert CompleteIntersection(degrees=list(ci.degrees), dim=ci.dim) == ci
    match ci:
        case CompleteIntersection(dim, degrees):
            assert (dim, degrees) == (ci.dim, ci.degrees)
    # equal only to its own class, never to the tuple it is built from
    assert ci != (ci.dim, ci.degrees) and (ci.dim, ci.degrees) != ci
    # a new variety recomputes them; no field can be set or deleted
    higher = CompleteIntersection(ci.dim + 1, ci.degrees)
    assert (higher.k, higher.index, higher.l) == (k, index + 1, index)
    for name in CompleteIntersection.__slots__:
        value = getattr(ci, name)
        with pytest.raises(AttributeError):
            setattr(ci, name, 0)
        with pytest.raises(AttributeError):
            delattr(ci, name)
        assert getattr(ci, name) == value
