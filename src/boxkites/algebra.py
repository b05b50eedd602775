"""Exact arithmetic for Cayley-Dickson 2^n-ion algebras over an XOR-indexed basis.

The basis units of the 2^n-dimensional algebra are e_0 .. e_{2^n - 1}, with
e_0 the real unit.  The product of two basis units always lands on the unit
whose index is the XOR of the factor indices, so only signs need bookkeeping.
Signs come from one fixed doubling recursion: writing an element of the
doubled algebra as a pair (p, q) of elements of the half-size algebra, the
product used throughout is

    (p, q) * (r, t) = (p*r - conj(t)*q,  t*p + q*conj(r))

This is the variant under which the seven octonion triples

    (1,2,3) (1,4,5) (1,7,6) (2,4,6) (2,5,7) (3,4,7) (3,6,5)

multiply cyclically with positive sign, as do the twenty-eight sedenion
triples they induce.  All coefficients are exact (int or Fraction); nothing
in this package touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Scalar = int | Fraction

TripIndices = tuple[int, int, int]

# Rows of one level's sign table; see ``sign_table``.
SignTable = tuple[bytes, ...]


# Holds every pair of indices below 128, so nothing through n = 7 (all of
# ``run_verification``) is evicted, while signs asked for pair by pair at a
# high level, where no table is held, keep the process small: each distinct
# pair also caches its recursion's sub-calls.
@lru_cache(maxsize=1 << 14)
def blade_sign(a: int, b: int) -> int:
    """Sign of e_a * e_b, independent of the ambient dimension.

    Each 2^n-ion algebra embeds in the next, so the sign depends only on the
    two indices.  The recursion is the basis-level shadow of the doubling
    product in the module docstring: with h the top bit of the larger index,
    an index below h lives in the first pair slot and an index at or above h
    in the second, and conjugation contributes a minus sign exactly when the
    half-size factor is non-real.
    """
    if not (isinstance(a, int) and isinstance(b, int)):  # checked on a miss only
        raise TypeError(f"basis indices must be int, got ({a!r}, {b!r})")
    if a < 0 or b < 0:
        raise ValueError(f"basis indices must be nonnegative, got ({a}, {b})")
    if a == 0 or b == 0:
        return 1
    h = 1 << (max(a, b).bit_length() - 1)
    if a < h:  # low * high, from the t*p term
        return blade_sign(b - h, a)
    if b < h:  # high * low, from the q*conj(r) term with r non-real
        return -blade_sign(a - h, b)
    if b == h:  # high * high against e_h itself: -conj(t)*q with t real
        return -1
    return blade_sign(b - h, a - h)  # high * high, conj(t) flips t


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")

# The level and rows of ``sign_table``'s last build, the only table kept.
_held: list = [None, None]


def sign_table(n: int) -> SignTable:
    """The signs of level n as rows: byte b of row a is 1 iff e_a * e_b < 0.

    It holds all 4^n products a, b < 2^n, so only code whose own work at
    level n is of that order reads it, and only the last level asked for is
    kept.  The rows follow ``blade_sign``'s recursion a whole row at a time.
    With H = 2^(k-1) and T the table of level k - 1, and 0 < b < H:
    e_a * e_(H+b) and e_(H+a) * e_(H+b) carry the sign of e_b * e_a, and
    e_(H+a) * e_b the opposite of e_a * e_b; e_(H+a) * e_0 is positive and
    e_(H+a) * e_H negative.  So row a of level k is row a of T followed by
    column a of T, and row H + a is row a of T negated followed by column a
    of T, with those two bytes fixed.  The rows of level k are prefixes of
    those of level k + 1.  ``blade_sign`` is the reference.
    """
    if _held[0] == n:
        return _held[1]
    rows = [b"\x00"]  # e_0 * e_0 = +e_0
    for _ in range(n):
        columns = [bytes(column) for column in zip(*rows)]
        rows = [row + column for row, column in zip(rows, columns)] + [
            b"\x00" + row[1:].translate(_FLIP) + b"\x01" + column[1:]
            for row, column in zip(rows, columns)
        ]
    table = tuple(rows)
    _held[:] = n, table
    return table


def held_sign_table(n: int) -> SignTable | None:
    """Level n's sign table when ``sign_table`` holds it, else None.

    It never builds a table, so code that works on one object reads the
    level's rows when whole-level work has already paid for them, and asks
    ``blade_sign`` otherwise.
    """
    level, rows = _held
    return rows if level == n else None


@dataclass(frozen=True)
class BasisBlade:
    """A signed basis unit: sign * e_index."""

    sign: int
    index: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if not isinstance(self.index, int):
            raise TypeError(f"index must be int, got {self.index!r}")
        if self.index < 0:
            raise ValueError(f"index must be nonnegative, got {self.index}")

    def __mul__(self, other: "BasisBlade") -> "BasisBlade":
        return BasisBlade(
            self.sign * other.sign * blade_sign(self.index, other.index),
            self.index ^ other.index,
        )

    def __neg__(self) -> "BasisBlade":
        return BasisBlade(-self.sign, self.index)

    def __str__(self) -> str:
        return f"{'+' if self.sign > 0 else '-'}e{self.index}"


def blade_mul(a: int, b: int, n: int) -> BasisBlade:
    """Product e_a * e_b inside the 2^n-ion algebra."""
    top = 1 << n
    if not (0 <= a < top and 0 <= b < top):
        raise ValueError(f"indices ({a}, {b}) out of range for dimension 2^{n}")
    return BasisBlade(blade_sign(a, b), a ^ b)


@dataclass(frozen=True)
class Hypercomplex:
    """Element of a 2^n-ion algebra with exact coefficients, one per index.

    Kept canonical: zero coefficients are dropped at construction, so
    equality is plain field equality.  An index that is not an int, or a
    coefficient that is not an int or a Fraction, is refused with TypeError.
    """

    dim_exponent: int
    coeffs: dict[int, Scalar]

    def __post_init__(self) -> None:
        top = 1 << self.dim_exponent
        cleaned = {}
        for index, coeff in self.coeffs.items():
            if not isinstance(index, int):
                raise TypeError(f"index {index!r} is {type(index).__name__}, not int")
            if not (0 <= index < top):
                raise ValueError(
                    f"index {index} out of range for dimension 2^{self.dim_exponent}"
                )
            if not isinstance(coeff, (int, Fraction)):
                raise TypeError(
                    f"coefficient of index {index} is {type(coeff).__name__}, "
                    "not int or Fraction"
                )
            if coeff != 0:
                cleaned[index] = coeff
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def unit(cls, n: int, index: int, coeff: Scalar = 1) -> "Hypercomplex":
        return cls(n, {index: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> list[tuple[int, Scalar]]:
        return sorted(self.coeffs.items())

    def _require_same_algebra(self, other: "Hypercomplex") -> None:
        if self.dim_exponent != other.dim_exponent:
            raise ValueError(
                f"dimension mismatch: 2^{self.dim_exponent} vs 2^{other.dim_exponent}"
            )

    def __add__(self, other: "Hypercomplex") -> "Hypercomplex":
        self._require_same_algebra(other)
        out = dict(self.coeffs)
        for index, coeff in other.coeffs.items():
            out[index] = out.get(index, 0) + coeff
        return Hypercomplex(self.dim_exponent, out)

    def __sub__(self, other: "Hypercomplex") -> "Hypercomplex":
        return self + (-other)

    def __neg__(self) -> "Hypercomplex":
        return Hypercomplex(self.dim_exponent, {i: -c for i, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Hypercomplex):
            return hc_mul(self, other)
        if isinstance(other, (int, Fraction)):
            return Hypercomplex(
                self.dim_exponent, {i: c * other for i, c in self.coeffs.items()}
            )
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for index, coeff in self.terms():
            sign = "+" if coeff > 0 else "-"
            mag = abs(coeff)
            parts.append(f"{sign} {'' if mag == 1 else f'{mag}*'}e{index}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text.replace("- ", "-", 1)


def hc_mul(x: Hypercomplex, y: Hypercomplex) -> Hypercomplex:
    """Bilinear extension of the basis product; exact and canonical."""
    x._require_same_algebra(y)
    out: dict[int, Scalar] = {}
    for i, ci in x.coeffs.items():
        for j, cj in y.coeffs.items():
            index = i ^ j
            out[index] = out.get(index, 0) + ci * cj * blade_sign(i, j)
    # XORed indices stay in range and products stay exact: only zeros to drop
    result = object.__new__(Hypercomplex)
    object.__setattr__(result, "dim_exponent", x.dim_exponent)
    object.__setattr__(result, "coeffs", {i: c for i, c in out.items() if c})
    return result


def trip_orientation(a: int, b: int, c: int) -> int:
    """+1 iff e_a * e_b = +e_c, for a genuine triple (a xor b = c, none 0)."""
    if 0 in (a, b, c) or a ^ b != c:
        raise ValueError(f"({a}, {b}, {c}) is not a unit triple")
    return blade_sign(a, b)


def aso_form(indices) -> TripIndices:
    """Canonical listing of a triple: positively oriented, smallest index first."""
    a, b, c = sorted(indices)
    if len({a, b, c}) != 3 or a == 0 or a ^ b != c:
        raise ValueError(f"{tuple(indices)} is not a unit triple")
    return (a, b, c) if blade_sign(a, b) > 0 else (a, c, b)


def enumerate_trips(n: int, kind: str = "all") -> list[TripIndices]:
    """All unit triples of the 2^n-ions, once each, in canonical (ASO) form.

    kind "o" keeps triples lying inside the octonion range (all indices < 8),
    "s" keeps the rest, "all" keeps everything.  Output is ordered by the
    underlying sorted index triple.
    """
    if n < 3:
        raise ValueError("trip enumeration needs at least the octonion level (n >= 3)")
    if kind not in ("o", "s", "all"):
        raise ValueError(f"unknown trip filter {kind!r}")
    top = 1 << n
    trips = []
    for a in range(1, top):
        for b in range(a + 1, top):
            c = a ^ b
            if c <= b:
                continue  # each unordered triple shows up once, with c largest
            if kind == "o" and c >= 8:
                continue
            if kind == "s" and c < 8:
                continue
            trips.append(aso_form((a, b, c)))
    return trips
