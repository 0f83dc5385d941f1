"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from fanolg import CompleteIntersection


@st.composite
def fano_complete_intersections(draw, max_dim=20, max_k=6):
    """A Fano complete intersection with dim <= max_dim and k <= max_k, its
    degrees in random order."""
    dim = draw(st.integers(2, max_dim))
    k = draw(st.integers(1, min(max_k, dim)))
    spare = dim - k  # sum(degrees) <= dim + k leaves dim - k above the minimum 2 each
    degrees = []
    for _ in range(k):
        extra = draw(st.integers(0, spare))
        spare -= extra
        degrees.append(2 + extra)
    return CompleteIntersection(dim, tuple(draw(st.permutations(degrees))))
