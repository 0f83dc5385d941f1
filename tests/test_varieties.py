"""Tests for the input datum: the numbers a ``CompleteIntersection`` stores."""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings

from strategies import fano_complete_intersections


@settings(max_examples=200)
@given(fano_complete_intersections())
def test_property_stored_numbers_equal_their_definitions(ci):
    k = len(ci.degrees)
    index = ci.dim + k + 1 - sum(ci.degrees)
    expected = {"k": k, "index": index, "l": index - 1}
    copies = [ci, dataclasses.replace(ci)] + [
        pickle.loads(pickle.dumps(ci, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for copy in copies:
        assert {name: getattr(copy, name) for name in expected} == expected
        assert copy == ci and hash(copy) == hash(ci)
        assert repr(copy) == f"CompleteIntersection(dim={ci.dim}, degrees={ci.degrees!r})"
    # a replaced field recomputes them; they cannot be replaced themselves
    higher = dataclasses.replace(ci, dim=ci.dim + 1)
    assert (higher.k, higher.index, higher.l) == (k, index + 1, index)
    for name in expected:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ci, name, 0)
        with pytest.raises(ValueError):
            dataclasses.replace(ci, **{name: 0})
    assert {name: getattr(ci, name) for name in expected} == expected
