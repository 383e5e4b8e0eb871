"""Jet-fiber combinatorics: multiindices, fiber dimensions, jet vectors.

A k-jet of a scalar function at a point is the tuple of raw derivative
values ``D^alpha f(x0)`` for all multiindices ``|alpha| <= k``.  Entries are
kept in graded lexicographic order (weight first, then earlier variables
carry higher powers first), which fixes every matrix layout in the engine.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import BadDirection, DimensionMismatch, OrderTooHigh
from .scalar import Scalar

MultiIndex = tuple[int, ...]


def weight(alpha: MultiIndex) -> int:
    return sum(alpha)


def graded_key(alpha: MultiIndex):
    """Sort key realizing the graded-lex order used everywhere."""
    return (sum(alpha), tuple(-a for a in alpha))


def bump(alpha: MultiIndex, i: int) -> MultiIndex:
    """Increment entry ``i`` (directions are 1-based, matching x1..xm)."""
    if not 1 <= i <= len(alpha):
        raise BadDirection(f"direction {i} outside 1..{len(alpha)}")
    return alpha[: i - 1] + (alpha[i - 1] + 1,) + alpha[i:]


@lru_cache(maxsize=None)
def factorial(alpha: MultiIndex) -> int:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def _check_mk(m: int, k: int) -> None:
    if m < 1:
        raise ValueError(f"base dimension must be >= 1, got {m}")
    if k < 0:
        raise ValueError(f"jet order must be >= 0, got {k}")


@lru_cache(maxsize=None)
def _weight_slice(m: int, w: int) -> tuple[MultiIndex, ...]:
    if m == 1:
        return ((w,),)
    out = []
    for first in range(w, -1, -1):
        for rest in _weight_slice(m - 1, w - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _indices(m: int, k: int) -> tuple[MultiIndex, ...]:
    out = []
    for w in range(k + 1):
        out.extend(_weight_slice(m, w))
    return tuple(out)


@lru_cache(maxsize=None)
def _tree(m: int, k: int) -> tuple[tuple[MultiIndex, MultiIndex, int], ...]:
    """(alpha, parent, direction) over weights 1..k in graded-lex order:
    parent is alpha with its first nonzero entry (1-based position
    direction) decremented, so every parent precedes its children."""
    out = []
    for alpha in _indices(m, k)[1:]:
        pos = next(j for j, a in enumerate(alpha) if a)
        parent = alpha[:pos] + (alpha[pos] - 1,) + alpha[pos + 1 :]
        out.append((alpha, parent, pos + 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _index_of(m: int, k: int) -> dict[MultiIndex, int]:
    return {alpha: pos for pos, alpha in enumerate(_indices(m, k))}


def enumerate_multiindices(m: int, k: int) -> list[MultiIndex]:
    """All multiindices of length m and weight <= k, graded-lex."""
    _check_mk(m, k)
    return list(_indices(m, k))


def jet_dimension(m: int, k: int) -> int:
    """Fiber dimension of the order-k jet space over R^m: C(m+k, m)."""
    _check_mk(m, k)
    return math.comb(m + k, m)


class JetSpec(NamedTuple):
    base_dim: int
    order: int

    @property
    def fiber_dimension(self) -> int:
        return jet_dimension(self.base_dim, self.order)


class JetVector:
    """A finite jet: raw derivative values indexed by multiindices.

    Supports the usual componentwise vector-space operations over Scalar.
    Treat instances as immutable.
    """

    __slots__ = ("spec", "entries")

    def __init__(self, base_dim: int, order: int, entries):
        spec = JetSpec(base_dim, order)
        dim = spec.fiber_dimension  # checks m and k before any entry
        values = tuple(Scalar.coerce(v) for v in entries)
        if len(values) != dim:
            raise DimensionMismatch(
                f"jet of order {order} over R^{base_dim} needs "
                f"{dim} entries, got {len(values)}"
            )
        self.spec = spec
        self.entries = values

    @classmethod
    def zeros(cls, base_dim: int, order: int) -> "JetVector":
        return cls(base_dim, order, [Scalar()] * jet_dimension(base_dim, order))

    @classmethod
    def from_mapping(cls, base_dim: int, order: int, mapping) -> "JetVector":
        entries = [mapping.get(a, 0) for a in _indices(base_dim, order)]
        return cls(base_dim, order, entries)

    @property
    def base_dim(self) -> int:
        return self.spec.base_dim

    @property
    def order(self) -> int:
        return self.spec.order

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def __getitem__(self, alpha: MultiIndex) -> Scalar:
        return self.entries[_index_of(self.base_dim, self.order)[tuple(alpha)]]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        if not isinstance(other, JetVector):
            return NotImplemented
        return self.spec == other.spec and self.entries == other.entries

    def __hash__(self):
        return hash((self.spec, self.entries))

    def __add__(self, other):
        if not isinstance(other, JetVector):
            return NotImplemented
        if self.spec != other.spec:
            raise DimensionMismatch("jet specs differ")
        return JetVector(
            self.base_dim, self.order,
            [a + b for a, b in zip(self.entries, other.entries)],
        )

    def __sub__(self, other):
        if not isinstance(other, JetVector):
            return NotImplemented
        return self + -other

    def __mul__(self, value):
        c = Scalar.coerce(value)
        return JetVector(self.base_dim, self.order, [e * c for e in self.entries])

    __rmul__ = __mul__

    def __neg__(self):
        return JetVector(self.base_dim, self.order, [-e for e in self.entries])

    def project(self, l: int) -> "JetVector":
        """Forget entries above order l (the bundle projection on fibers)."""
        if l > self.order:
            raise OrderTooHigh(f"cannot project order {self.order} up to {l}")
        return JetVector(
            self.base_dim, l, self.entries[: jet_dimension(self.base_dim, l)]
        )

    def to_json_dict(self) -> dict:
        return {
            "m": self.base_dim,
            "order": self.order,
            "entries": [
                {"alpha": list(alpha), "re": str(v.re), "im": str(v.im)}
                for alpha, v in zip(_indices(self.base_dim, self.order), self.entries)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "JetVector":
        mapping = {
            tuple(e["alpha"]): Scalar(e["re"], e["im"]) for e in data["entries"]
        }
        return cls.from_mapping(data["m"], data["order"], mapping)

    def __repr__(self):
        vals = ", ".join(str(v) for v in self.entries)
        return f"JetVector(m={self.base_dim}, order={self.order}, [{vals}])"
