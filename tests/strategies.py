"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from fanolg import CompleteIntersection


@st.composite
def fano_complete_intersections(draw, max_dim=20, max_k=6, min_k=1):
    """A Fano complete intersection with dim <= max_dim and min_k <= k <= max_k,
    its degrees in random order."""
    dim = draw(st.integers(max(2, min_k), max_dim))
    k = draw(st.integers(min_k, min(max_k, dim)))
    spare = dim - k  # sum(degrees) <= dim + k leaves dim - k above the minimum 2 each
    degrees = []
    for _ in range(k):
        extra = draw(st.integers(0, spare))
        spare -= extra
        degrees.append(2 + extra)
    return CompleteIntersection(dim, tuple(draw(st.permutations(degrees))))


@st.composite
def fano_complete_intersections_with_repeats(draw, max_dim=20, max_k=6):
    """A Fano complete intersection with k >= 2 in which some degree occurs at
    least twice, not necessarily in adjacent positions: a drawn set of two or
    more positions all take the smallest degree among them, which only lowers
    the sum of the degrees and so keeps the variety Fano."""
    ci = draw(fano_complete_intersections(max_dim, max_k, min_k=2))
    degrees = list(ci.degrees)
    positions = draw(st.sets(st.integers(0, ci.k - 1), min_size=2))
    low = min(degrees[t] for t in positions)
    for t in positions:
        degrees[t] = low
    return CompleteIntersection(ci.dim, tuple(degrees))
