"""The input datum shared by every computation: a smooth Fano complete intersection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class CompleteIntersection:
    """A smooth complete intersection of dimension ``dim`` in projective space of
    dimension ``dim + k``, cut out by ``k = len(degrees)`` generic hypersurfaces.

    Every quantity computed downstream depends only on the dimension and the
    degree list; smoothness is assumed, never checked.  The Fano condition
    ``sum(degrees) <= dim + k`` is enforced, as is ``degree >= 2`` for every
    hypersurface (a linear equation merely lowers the ambient dimension) and
    ``k >= 1`` (projective space itself is not accepted as a degenerate case).

    Three derived numbers are stored once, when the variety is built, and take
    no part in comparison, hashing or ``repr``:

    - ``k``: the number of defining hypersurfaces;
    - ``index``: the Fano index dim + k + 1 - sum(degrees), at least 1 by
      construction;
    - ``l``: index - 1, the number of free torus variables in the mirror
      polynomial.
    """

    dim: int
    degrees: tuple[int, ...]
    k: int = field(init=False, repr=False, compare=False)
    index: int = field(init=False, repr=False, compare=False)
    l: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        degrees = tuple(self.degrees)
        object.__setattr__(self, "degrees", degrees)
        if not isinstance(self.dim, int) or self.dim < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {self.dim!r}")
        if not degrees:
            raise ValueError("at least one hypersurface is required (k = 0 is not supported)")
        for d in degrees:
            if not isinstance(d, int) or d < 2:
                raise ValueError(
                    f"every degree must be an integer >= 2, got {d!r}"
                    " (a degree-1 equation reduces to a smaller ambient space)"
                )
        k = len(degrees)
        index = self.dim + k + 1 - sum(degrees)
        if index < 1:
            raise ValueError(
                f"not Fano: total degree {sum(degrees)} exceeds dim + k = {self.dim + k}"
            )
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "l", index - 1)

    def __str__(self) -> str:
        return f"dim {self.dim}, degrees ({', '.join(map(str, self.degrees))})"


def fano_sweep(max_dim: int, max_k: int, max_degree: int) -> Iterator[CompleteIntersection]:
    """All Fano complete intersections with dimension in [2, max_dim], at most
    max_k hypersurfaces and degrees in [2, max_degree].

    One representative per unordered degree multiset (nondecreasing tuples), in
    deterministic (dim, k, degrees) order.  Tuples grow one degree at a time,
    and a prefix of sum s takes a next degree d only while s + d * (degrees
    left, d included) <= dim + k, so no tuple is built only to be filtered out.
    k stops at dim, since k degrees of at least 2 need 2k <= dim + k.
    """
    for dim in range(2, max_dim + 1):
        for k in range(1, min(max_k, dim) + 1):
            level: list[tuple[tuple[int, ...], int]] = [((), 0)]  # (prefix, its sum)
            for left in range(k, 0, -1):
                level = [
                    (degrees + (d,), s + d)
                    for degrees, s in level
                    for d in range(
                        (degrees or (2,))[-1], min(max_degree, (dim + k - s) // left) + 1
                    )
                ]
            for degrees, _ in level:
                yield CompleteIntersection(dim, degrees)
