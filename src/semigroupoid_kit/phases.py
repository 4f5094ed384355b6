"""Unimodular scalars with exact rational-angle arithmetic.

A phase is a point on the unit circle.  When the angle is a rational number
of full turns it is stored as a reduced ``Fraction`` in [0, 1), so products,
powers and p-th roots stay exact and quarter-turn phases evaluate to exact
complex units.  Phases built from raw complex data fall back to a float
representation; comparisons then use a tolerance (default 1e-9).  The library
builds every exact phase through one bounded cache, so equal turns share one
object while it is cached; identity is not part of the contract.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import MALFORMED, DomainError, json_int, json_number

DEFAULT_TOL = 1e-9

_QUARTER_VALUES = {
    Fraction(0): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}


@dataclass(frozen=True, slots=True)
class Phase:
    """e^(2*pi*i*turns) when ``turns`` is set, otherwise the stored complex unit."""

    turns: Fraction | None = Fraction(0)
    approx: complex | None = None

    @staticmethod
    def one() -> "Phase":
        return _exact(0, 1)

    @staticmethod
    def from_turns(num: int, den: int) -> "Phase":
        if den == 0:
            raise DomainError("phase angle denominator must be nonzero")
        return Phase.from_fraction(Fraction(num, den))

    @staticmethod
    def from_fraction(q: Fraction) -> "Phase":
        if not isinstance(q, Fraction):
            return Phase(q % 1, None)
        q = q if 0 <= q.numerator < q.denominator else q % 1
        return _exact(q.numerator, q.denominator)

    @staticmethod
    def from_complex(z: complex) -> "Phase":
        r = abs(z)
        if not abs(r - 1.0) <= 1e-6:  # so a NaN modulus is refused too
            raise DomainError("phase must be unimodular", modulus=r)
        return Phase(None, z / r)

    @property
    def is_exact(self) -> bool:
        return self.turns is not None

    @property
    def value(self) -> complex:
        if self.turns is not None:
            exact = _QUARTER_VALUES.get(self.turns)
            if exact is not None:
                return exact
            return cmath.exp(2j * math.pi * float(self.turns))
        return self.approx

    def angle_turns(self) -> float:
        """Angle as a float fraction of a full turn in [0, 1)."""
        if self.turns is not None:
            return float(self.turns)
        a = cmath.phase(self.approx) / (2 * math.pi)
        return a % 1.0

    def __mul__(self, other: "Phase") -> "Phase":
        if self.turns is not None and other.turns is not None:
            return Phase.from_fraction(self.turns + other.turns)
        return Phase(None, self.value * other.value)

    def conj(self) -> "Phase":
        if self.turns is not None:
            return Phase.from_fraction(-self.turns)
        return Phase(None, self.approx.conjugate())

    def __pow__(self, n: int) -> "Phase":
        if self.turns is not None:
            return Phase.from_fraction(self.turns * n)
        return Phase(None, self.approx**n)

    def roots(self, p: int) -> list["Phase"]:
        """All p-th roots, ordered by increasing angle."""
        if p < 1:
            raise DomainError("root order must be positive", p=p)
        if p == 1:  # the phase itself, not rebuilt from its angle
            return [self]
        if self.turns is not None:
            out = [Phase.from_fraction((self.turns + j) / p) for j in range(p)]
            return sorted(out, key=lambda ph: ph.turns)
        base = cmath.phase(self.approx) / (2 * math.pi) % 1.0
        out = [
            Phase(None, cmath.exp(2j * math.pi * ((base + j) / p)))
            for j in range(p)
        ]
        return sorted(out, key=lambda ph: ph.angle_turns())

    def approx_eq(self, other: "Phase", tol: float = DEFAULT_TOL) -> bool:
        if self.turns is not None and other.turns is not None:
            return self.turns == other.turns
        return abs(self.value - other.value) <= tol

    def sort_key(self) -> tuple:
        return (self.angle_turns(), 0 if self.is_exact else 1)

    def to_json(self) -> dict:
        if self.turns is not None:
            return {"angle": {"num": self.turns.numerator, "den": self.turns.denominator}}
        return {"re": self.approx.real, "im": self.approx.imag}

    @staticmethod
    def from_json(data: dict) -> "Phase":
        try:
            if "angle" in data:
                ang = data["angle"]
                return Phase.from_turns(json_int(ang["num"]), json_int(ang["den"]))
            if "re" in data or "im" in data:
                re, im = (json_number(data.get(k, 0.0)) for k in ("re", "im"))
                return Phase.from_complex(complex(re, im))
            got = sorted(data)
        except MALFORMED as exc:
            raise DomainError(f"phase object malformed: {exc}") from None
        raise DomainError("phase object needs 'angle' or 're'/'im'", got=got)

    def __str__(self) -> str:
        if self.turns is not None:
            return f"exp(2*pi*i*{self.turns})"
        return f"{self.approx:.6g}"


@lru_cache(maxsize=4096)
def _exact(num: int, den: int) -> Phase:
    """The phase of num/den turns, reduced in [0, 1); an int pair hashes in C."""
    return Phase(Fraction(num, den), None)
