"""Finite unit loops inside 2^n-ion algebras, and exhaustive identity checks.

A unit loop here is the set {+-e_0} union {+-e_i : i in axes} for a set of
axis indices closed under XOR.  Closure under the algebra product then comes
for free, since a product of signed units is a signed unit on the XOR index.
The identity checks fill the loop's Cayley table of element positions from
sign bits and index XORs; the exhaustive triple scans then read that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional

from .algebra import BasisBlade, blade_sign


@dataclass(frozen=True)
class UnitLoop:
    """A multiplicatively closed set of signed basis units."""

    axis_indices: frozenset[int]
    elements: tuple[BasisBlade, ...]
    was_closed: bool

    def __len__(self) -> int:
        return len(self.elements)


def loop_closure(axis_indices) -> UnitLoop:
    """Close {+-e_0, +-e_i} under the product; XOR-closing the axes suffices."""
    axes = set(axis_indices)
    if not axes or 0 in axes or any(i < 0 for i in axes):
        raise ValueError("axis indices must be a nonempty set of positive integers")
    closed = set(axes)
    while True:
        new = {a ^ b for a in closed for b in closed if a != b} - {0} - closed
        if not new:
            break
        closed |= new
    elements = [BasisBlade(s, i) for i in sorted(closed | {0}) for s in (1, -1)]
    return UnitLoop(frozenset(closed), tuple(elements), closed == axes)


@dataclass(frozen=True)
class Counterexample:
    identity: str
    x: BasisBlade
    y: BasisBlade
    z: BasisBlade
    lhs: BasisBlade
    rhs: BasisBlade

    def __str__(self) -> str:
        return (
            f"{self.identity} fails at x={self.x}, y={self.y}, z={self.z}: "
            f"{self.lhs} != {self.rhs}"
        )


# Each form maps a triple of loop positions to one or more (lhs, rhs)
# equations between positions, read off the loop's Cayley table t, where
# t[a][b] is the position of elements[a] * elements[b].
CayleyTable = list[list[int]]
Equations = tuple[tuple[int, int], ...]
TripleForm = Callable[[CayleyTable, int, int, int], Equations]

# The three classical Moufang identities; "moufang" checks the middle one.
MOUFANG_FORMS: dict[str, TripleForm] = {
    # (x*y)*(z*x) = x*((y*z)*x)
    "middle": lambda t, x, y, z: ((t[t[x][y]][t[z][x]], t[x][t[t[y][z]][x]]),),
    # x*(y*(x*z)) = ((x*y)*x)*z
    "left": lambda t, x, y, z: ((t[x][t[y][t[x][z]]], t[t[t[x][y]][x]][z]),),
    # ((x*y)*z)*y = x*(y*(z*y))
    "right": lambda t, x, y, z: ((t[t[t[x][y]][z]][y], t[x][t[y][t[z][y]]]),),
}

IDENTITY_FORMS: dict[str, TripleForm] = {
    "moufang": MOUFANG_FORMS["middle"],
    # (x*y)*z = x*(y*z)
    "associative": lambda t, x, y, z: ((t[t[x][y]][z], t[x][t[y][z]]),),
    # (x*y)*x = x*(y*x)
    "flexible": lambda t, x, y, z: ((t[t[x][y]][x], t[x][t[y][x]]),),
    # (x*x)*y = x*(x*y) and (y*x)*x = y*(x*x)
    "alternative": lambda t, x, y, z: (
        (t[t[x][x]][y], t[x][t[x][y]]),
        (t[t[y][x]][x], t[y][t[x][x]]),
    ),
}


def _cayley_table(loop: UnitLoop) -> CayleyTable:
    """Positions of all pairwise products, from each element's sign bit and index.

    The sign bits are read once per pair of distinct indices, m^2 ``blade_sign``
    calls for m indices, and each index's row of (sign bit, index) products is
    laid out once; an element's row flips its sign bits when it is negative.
    """
    signed = [(x.sign < 0, x.index) for x in loop.elements]
    position = {key: k for k, key in enumerate(signed)}
    indices = dict.fromkeys(i for _, i in signed)
    negative = {i: {j: blade_sign(i, j) < 0 for j in indices} for i in indices}
    rows = {i: [(ny ^ negative[i][j], i ^ j) for ny, j in signed] for i in indices}
    try:
        return [[position[nx ^ flip, k] for flip, k in rows[i]] for nx, i in signed]
    except KeyError:
        raise ValueError("loop elements are not closed under the product") from None


def _scan(
    loop: UnitLoop, table: CayleyTable, name: str, form: TripleForm
) -> Optional[Counterexample]:
    """First failing signed triple in (x, y, z) order, over every triple.

    Each form uses every variable equally often on both sides, and -1 is
    central, so whether a triple fails, and where, depends on its indices
    alone.  Putting the first element of its index, in ``loop.elements``
    order, in each place of a failing triple gives one no later, so only
    first elements are visited.
    """
    first: dict[int, int] = {}
    for k, element in enumerate(loop.elements):
        first.setdefault(element.index, k)
    positions = list(first.values())
    for x, y, z in product(positions, repeat=3):
        for lhs, rhs in form(table, x, y, z):
            if lhs != rhs:
                e = loop.elements
                return Counterexample(name, e[x], e[y], e[z], e[lhs], e[rhs])
    return None


def check_identity(loop: UnitLoop, identity: str) -> Optional[Counterexample]:
    """Exhaustively test an identity; None means it holds everywhere."""
    if identity not in IDENTITY_FORMS:
        raise ValueError(f"unknown identity {identity!r}")
    return _scan(loop, _cayley_table(loop), identity, IDENTITY_FORMS[identity])


def moufang_report(loop: UnitLoop) -> dict[str, Optional[Counterexample]]:
    """All three Moufang forms, since finite loops can in principle split them."""
    table = _cayley_table(loop)
    return {
        name: _scan(loop, table, f"moufang-{name}", form)
        for name, form in MOUFANG_FORMS.items()
    }


def is_quaternion_group(loop: UnitLoop) -> bool:
    """True for the 8-element quaternion group Q8.

    Among order-8 structures this pins Q8 exactly: associative, not
    commutative, and a single element of order two.
    """
    if len(loop) != 8:
        return False
    table, e, one = _cayley_table(loop), loop.elements, BasisBlade(1, 0)
    if _scan(loop, table, "associative", IDENTITY_FORMS["associative"]) is not None:
        return False
    involutions = [x for x in range(8) if e[x] != one and e[table[x][x]] == one]
    commutative = all(table[x][y] == table[y][x] for x in range(8) for y in range(8))
    return len(involutions) == 1 and not commutative
