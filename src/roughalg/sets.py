"""Subsets of a finite carrier {0..n-1}, stored as bit masks.

Membership, union, intersection, complement and difference are all O(1)
word operations, which keeps the exhaustive sweeps elsewhere in the
package cheap.  Values are immutable; treat every instance as frozen.
Inside the package a set is its int mask; sweeps walk ``canonical_masks``
and build a ``Subset`` only for a set they hand back.
"""

from itertools import combinations
from collections.abc import Iterable, Iterator

from .errors import ValidationError, check_types


class Subset:
    """An immutable subset of the carrier {0..n-1}."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if type(n) is not int or n < 0:
            raise ValidationError(f"carrier size must be a non-negative int, got {n!r}", "n")
        check_types(int, mask=mask)
        if mask < 0 or mask >> n:
            raise ValidationError(f"mask {bin(mask)} has bits outside carrier 0..{n - 1}")
        self.n = n
        self.mask = mask

    @classmethod
    def _raw(cls, n: int, mask: int) -> "Subset":
        # fast path for results of internal operations, which are already
        # inside the carrier by construction; skips __init__ validation
        obj = object.__new__(cls)
        obj.n = n
        obj.mask = mask
        return obj

    @classmethod
    def from_elements(cls, n: int, elements: Iterable[int], field: str = "elements") -> "Subset":
        """The subset of elements, ints in the carrier; a ValidationError names field, their argument."""
        check_types(Iterable, **{field: elements})
        mask = 0
        for e in elements:
            if not isinstance(e, int) or not 0 <= e < n:
                raise ValidationError(f"element {e!r} outside carrier 0..{n - 1}", field)
            mask |= 1 << e
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> "Subset":
        return cls(n, 0)

    @classmethod
    def universe(cls, n: int) -> "Subset":
        return cls(n, (1 << n) - 1)

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.n and self.mask >> x & 1 == 1

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Subset) and self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"Subset({self.n}, {{{', '.join(map(str, self))}}})"

    def _check_same_carrier(self, other: "Subset") -> None:
        if not isinstance(other, Subset):
            raise TypeError(f"expected Subset, got {type(other).__name__}")
        if self.n != other.n:
            raise ValidationError(f"carrier mismatch: {self.n} vs {other.n}")

    def __or__(self, other: "Subset") -> "Subset":
        self._check_same_carrier(other)
        return Subset._raw(self.n, self.mask | other.mask)

    def __and__(self, other: "Subset") -> "Subset":
        self._check_same_carrier(other)
        return Subset._raw(self.n, self.mask & other.mask)

    def __sub__(self, other: "Subset") -> "Subset":
        self._check_same_carrier(other)
        return Subset._raw(self.n, self.mask & ~other.mask)

    def complement(self) -> "Subset":
        return Subset._raw(self.n, self.mask ^ (1 << self.n) - 1)

    def issubset(self, other: "Subset") -> bool:
        self._check_same_carrier(other)
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: "Subset") -> bool:
        self._check_same_carrier(other)
        return self.mask & other.mask == 0

    def elements(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def sort_key(self) -> tuple:
        """Canonical ordering key: cardinality first, then element tuple."""
        return (len(self), self.elements())


def all_subsets(n: int) -> Iterator[Subset]:
    """All 2^n subsets in mask order (fast iteration order, not canonical)."""
    for mask in range(1 << Subset(n).n):  # Subset(n) refuses a carrier size that is not an int >= 0
        yield Subset(n, mask)


def canonical_masks(n: int) -> Iterator[int]:
    """The mask of each subset of {0..n-1}, in canonical order, one at a time."""
    bits = [1 << x for x in range(n)]
    return (sum(c) for k in range(n + 1) for c in combinations(bits, k))


def canonical_subsets(n: int) -> list[Subset]:
    """All subsets in canonical order: by cardinality, then lexicographically by elements."""
    return [Subset._raw(n, m) for m in canonical_masks(Subset(n).n)]
