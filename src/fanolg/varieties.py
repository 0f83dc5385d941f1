"""The input datum shared by every computation: a smooth Fano complete intersection."""

from __future__ import annotations

from typing import Iterator


class CompleteIntersection:
    """A smooth complete intersection of dimension ``dim`` in projective space of
    dimension ``dim + k``, cut out by ``k = len(degrees)`` generic hypersurfaces.

    Every quantity computed downstream depends only on the dimension and the
    degree list; smoothness is assumed, never checked.  The Fano condition
    ``sum(degrees) <= dim + k`` is enforced, as is ``degree >= 2`` for every
    hypersurface (a linear equation merely lowers the ambient dimension) and
    ``k >= 1`` (projective space itself is not accepted as a degenerate case).

    A frozen slotted class: it is equal to, and hashed as, another
    ``CompleteIntersection`` with the same ``(dim, degrees)``, and never equal
    to any other object; its fields cannot be set or deleted, so a changed
    variety is a new one.  Pickling and copying rebuild it through the
    constructor, which checks it again.

    Three derived numbers are stored once, when the variety is built, and take
    no part in comparison, hashing or ``repr``:

    - ``k``: the number of defining hypersurfaces;
    - ``index``: the Fano index dim + k + 1 - sum(degrees), at least 1 by
      construction;
    - ``l``: index - 1, the number of free torus variables in the mirror
      polynomial.
    """

    __slots__ = ("dim", "degrees", "k", "index", "l")
    __match_args__ = ("dim", "degrees")

    dim: int
    degrees: tuple[int, ...]
    k: int
    index: int
    l: int

    def __init__(self, dim: int, degrees: tuple[int, ...]) -> None:
        degrees = tuple(degrees)
        if not isinstance(dim, int) or dim < 2:
            raise ValueError(f"dimension must be an integer >= 2, got {dim!r}")
        if not degrees:
            raise ValueError("at least one hypersurface is required (k = 0 is not supported)")
        for d in degrees:
            if not isinstance(d, int) or d < 2:
                raise ValueError(
                    f"every degree must be an integer >= 2, got {d!r}"
                    " (a degree-1 equation reduces to a smaller ambient space)"
                )
        k = len(degrees)
        index = dim + k + 1 - sum(degrees)
        if index < 1:
            raise ValueError(
                f"not Fano: total degree {sum(degrees)} exceeds dim + k = {dim + k}"
            )
        _fill(self, dim, degrees, k, index)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.degrees) == (other.dim, other.degrees)

    def __hash__(self) -> int:
        return hash((self.dim, self.degrees))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[int, tuple[int, ...]]]:
        return CompleteIntersection, (self.dim, self.degrees)

    def __repr__(self) -> str:
        return f"CompleteIntersection(dim={self.dim!r}, degrees={self.degrees!r})"

    def __str__(self) -> str:
        return f"dim {self.dim}, degrees ({', '.join(map(str, self.degrees))})"


# the slots' own setters, which bypass the frozen __setattr__
_SETTERS = tuple(
    getattr(CompleteIntersection, name).__set__ for name in CompleteIntersection.__slots__
)


def _fill(
    ci: CompleteIntersection, dim: int, degrees: tuple[int, ...], k: int, index: int
) -> None:
    """Store a variety's fields, which the caller has checked, in ``ci``."""
    set_dim, set_degrees, set_k, set_index, set_l = _SETTERS
    set_dim(ci, dim)
    set_degrees(ci, degrees)
    set_k(ci, k)
    set_index(ci, index)
    set_l(ci, index - 1)


def fano_sweep(max_dim: int, max_k: int, max_degree: int) -> Iterator[CompleteIntersection]:
    """All Fano complete intersections with dimension in [2, max_dim], at most
    max_k hypersurfaces and degrees in [2, max_degree].

    One representative per unordered degree multiset (nondecreasing tuples), in
    deterministic (dim, k, degrees) order.  Tuples grow one degree at a time,
    and a prefix of sum s takes a next degree d only while s + d * (degrees
    left, d included) <= dim + k, so no tuple is built only to be filtered out.
    k stops at dim, since k degrees of at least 2 need 2k <= dim + k.

    Every tuple built is therefore valid (k >= 1, each degree >= 2, sum at most
    dim + k), so each variety takes its fields from the loop, the index from
    the running sum, without the constructor's checks; it equals
    ``CompleteIntersection(dim, degrees)`` in every field.
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
            for degrees, s in level:
                ci = object.__new__(CompleteIntersection)
                _fill(ci, dim, degrees, k, dim + k + 1 - s)
                yield ci
