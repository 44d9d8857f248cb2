"""Exact dyadic/rational arithmetic, angles as rational turns, and the
number-theoretic predicates that gate invariant-set membership.

Everything in this module is exact: values are arbitrary-precision integers
and fractions, and every predicate is decided by integer arithmetic, never by
floating-point comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import attrgetter
from typing import Union

RationalLike = Union[int, Fraction]

PYTHAGOREAN_SCAN_BOUND = 20  # largest exponent the brute-force witness will scan


class NotOnInvariantSet(ValueError):
    """A parameter failed a describability gate and is off the invariant set."""


class NoAdmissibleAngle(ValueError):
    """No describable substitute angle lies within the configured window."""


class ResourceBound(RuntimeError):
    """A brute-force or enumeration bound was exceeded."""


_set = object.__setattr__  # how a record's __init__ fills its slots


class _Record:
    """Base of invset's immutable records.  A subclass names its fields in
    ``__slots__`` (a ``"__dict__"`` entry there is not a field), which
    ``__init__`` fills; records of one class are equal when their field
    tuples are, hash as that tuple and repr as ``Name(field=value, ...)``,
    and a field can be neither assigned nor deleted."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        get = attrgetter(*fields)  # the field tuple, but the bare value of a lone field
        cls._values = (lambda self: get(self)) if len(fields) > 1 else (lambda self: (get(self),))

    def __init__(self, *values, **named) -> None:
        """Fill the fields in order from ``values``, then the rest by name from ``named``."""
        fields, name = self._fields, type(self).__qualname__
        if len(values) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields but {len(values)} were given")
        for field, value in zip(fields, values):
            _set(self, field, value)
        for field in fields[len(values):]:
            if field not in named:
                raise TypeError(f"{name} is missing field {field!r}")
            _set(self, field, named.pop(field))
        if named:
            raise TypeError(f"{name} got an unknown or repeated field {next(iter(named))!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild a record through its __init__
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ExactAngle(_Record):
    """An angle stored exactly as its fraction of a full turn, in [0, 1).

    Angles with irrational turn fractions are unrepresentable by construction;
    counterfactual exclusion is expressed through describability predicates,
    never through storing irrational values.
    """

    __slots__ = ("turns",)

    def __init__(self, turns: Fraction) -> None:
        if type(turns) is not Fraction or not 0 <= turns.numerator < turns.denominator:
            turns = Fraction(turns) % 1
        _set(self, "turns", turns)

    def __add__(self, other: "ExactAngle") -> "ExactAngle":
        return ExactAngle(self.turns + other.turns)

    def __sub__(self, other: "ExactAngle") -> "ExactAngle":
        return ExactAngle(self.turns - other.turns)

    def __str__(self) -> str:
        return f"{self.turns} turns"


ZERO_ANGLE = ExactAngle(Fraction(0))


def is_describable(x: RationalLike, n_bits: int) -> bool:
    """True iff x = n / 2**n_bits for some integer n.

    Equivalently: x's lowest-terms denominator divides 2**n_bits.  Monotone in
    n_bits.
    """
    if n_bits < 1:
        raise ValueError("n_bits must be >= 1")
    den = x.denominator if isinstance(x, (int, Fraction)) else Fraction(x).denominator
    return den & (den - 1) == 0 and den.bit_length() <= n_bits + 1  # den <= 2**n_bits, 2**n_bits unbuilt


# The full exceptional set of the rational-cosine theorem (Niven): for a
# rational fraction of a turn, cos is rational only on these eight residues.
_EXCEPTIONAL_COS = {
    Fraction(0): Fraction(1),
    Fraction(1, 2): Fraction(-1),
    Fraction(1, 4): Fraction(0),
    Fraction(3, 4): Fraction(0),
    Fraction(1, 6): Fraction(1, 2),
    Fraction(5, 6): Fraction(1, 2),
    Fraction(1, 3): Fraction(-1, 2),
    Fraction(2, 3): Fraction(-1, 2),
}

# cos^2(theta/2) = (1 + cos theta)/2 on the same residues, keyed by the turns'
# (numerator, denominator): a tuple of ints hashes in C, a Fraction does not.
_HALF_ANGLE_COS_SQ = {(t.numerator, t.denominator): (1 + c) / 2 for t, c in _EXCEPTIONAL_COS.items()}

# Principal arccos (turns in [0, 1/2]) of each rational cosine: smaller keys come last and win.
_ACOS_TURNS = {c: t for t, c in sorted(_EXCEPTIONAL_COS.items(), reverse=True)}


def cos_exact(angle: ExactAngle) -> Fraction | None:
    """Exact cosine of a rational-turn angle, or None when it is irrational.

    By the rational-cosine theorem, cos of a rational multiple of pi is
    rational exactly when it lies in {0, +-1/2, +-1}; the decision is made by
    the exceptional-set table, not by numerics.  ``checks.rational_cosine_grid``
    certifies the table with integers, from the Dickson recurrence that 2cos
    obeys.
    """
    return _EXCEPTIONAL_COS.get(angle.turns)


def acos_exact(cos_value: Fraction) -> Fraction | None:
    """Principal arccos in turns of a cosine, or None when that angle is not a
    rational turn: it is one exactly on the exceptional set {0, +-1/2, +-1}."""
    return _ACOS_TURNS.get(cos_value)


def sin_exact(angle: ExactAngle) -> Fraction | None:
    """Exact sine, via sin(2 pi t) = cos(2 pi (t - 1/4))."""
    return cos_exact(ExactAngle(angle.turns - Fraction(1, 4)))


def gate_amplitude(theta: ExactAngle, n_bits: int) -> int:
    """The amplitude gate: the first-label count 2**n_bits * cos^2(theta/2).

    cos(theta) must be rational (the rational-cosine exceptional set) and
    (1 + cos)/2 must be of the form n/2**n_bits; otherwise theta is off the
    invariant set.  The exceptional set is symmetric under t -> 1 - t, so no
    folding into [0, pi] is needed.
    """
    turns = theta.turns
    amp = _HALF_ANGLE_COS_SQ.get((turns.numerator, turns.denominator))
    if amp is None:
        raise NotOnInvariantSet(f"cos(theta) for theta={theta} is irrational")
    if not is_describable(amp, n_bits):
        raise NotOnInvariantSet(f"cos^2(theta/2)={amp} is not describable by {n_bits} bits")
    return amp.numerator << (n_bits + 1 - amp.denominator.bit_length())


def gate_phase(phi: ExactAngle, n_bits: int) -> int:
    """The phase gate: the pair-shift count phi * 2**(n_bits-1).

    phi (as a fraction of a full turn) must be of the form n/2**(n_bits-1),
    exactly the phases the pair-shift group of a 2**n_bits-label string can
    realize; otherwise phi is off the invariant set.
    """
    turns = phi.turns
    if not is_describable(turns, n_bits - 1):
        raise NotOnInvariantSet(f"phase {phi} is not a multiple of 1/2**{n_bits - 1} of a turn")
    return turns.numerator * ((1 << (n_bits - 1)) // turns.denominator)


def rational_sqrt(x: RationalLike) -> Fraction | None:
    """Exact square root of a rational if it is a perfect square, else None."""
    fr = Fraction(x)
    if fr < 0:
        return None
    rn, rd = isqrt(fr.numerator), isqrt(fr.denominator)
    if rn * rn == fr.numerator and rd * rd == fr.denominator:
        return Fraction(rn, rd)
    return None


def pythagorean_solutions(k: int) -> list[tuple[int, int]]:
    """Scan for positive solutions of a^2 + b^2 = (2^k)^2 with a, b >= 1.

    There are none (Euclid); the exhaustive scan is the executable witness of
    the obstruction that blocks a cosine and its sine from both being dyadic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > PYTHAGOREAN_SCAN_BOUND:
        raise ResourceBound(f"k={k} exceeds the configured scan bound {PYTHAGOREAN_SCAN_BOUND}")
    target = 1 << (2 * k)
    found = []
    for a in range(1, (1 << k) + 1):
        b2 = target - a * a
        if b2 < 1:
            break
        b = isqrt(b2)
        if b * b == b2:
            found.append((a, b))
    return found


_SINE_ZERO = "zero"  # the one sine status of the addition-obstruction engine that is not a reason

REASON_DESCRIBABLE = "describable"
REASON_IRRATIONAL_SINE = "irrational_sine"
REASON_PYTHAGOREAN = "pythagorean_obstruction"


class ObstructionVerdict(_Record):
    """Outcome of the angle-addition describability test."""

    __slots__ = ("excluded", "reason")

    @property
    def verdict(self) -> str:
        return "sum_excluded" if self.excluded else "both_admissible"


def _sine_status(cos_val: Fraction, n_bits: int) -> str:
    """_SINE_ZERO, or the REASON_* the sine of an angle with cosine cos_val implies."""
    s2 = 1 - cos_val * cos_val
    if s2 == 0:
        return _SINE_ZERO
    s = rational_sqrt(s2)
    if s is None:
        return REASON_IRRATIONAL_SINE
    return REASON_DESCRIBABLE if is_describable(s, n_bits) else REASON_PYTHAGOREAN


def simultaneous_describability(cos_a: RationalLike, cos_b: RationalLike, n_bits: int) -> ObstructionVerdict:
    """Decide whether cos(A+B) can still be describable by n_bits.

    Inputs are the two cosines, both required describable (the re-measurement
    argument).  The rule follows the addition formula
    cos(A+B) = cos A cos B - sin A sin B for angles with no functional
    relationship: a zero sine on either side is degenerate (both_admissible);
    otherwise an irrational or non-describable sine on either side excludes
    the sum.  For deliberately correlated angles the true sum-cosine can be
    rational even though both sines are irrational; this engine implements the
    independent-angles argument and reports exclusion in that case too.
    """
    ca, cb = Fraction(cos_a), Fraction(cos_b)
    for name, c in (("cos_a", ca), ("cos_b", cb)):
        if not -1 <= c <= 1:
            raise ValueError(f"{name}={c} outside [-1, 1]")
        if not is_describable(c, n_bits):
            raise ValueError(f"{name}={c} is not describable by {n_bits} bits")
    sa, sb = _sine_status(ca, n_bits), _sine_status(cb, n_bits)
    if _SINE_ZERO in (sa, sb):
        return ObstructionVerdict(False, REASON_DESCRIBABLE)
    for reason in (REASON_IRRATIONAL_SINE, REASON_PYTHAGOREAN):
        if reason in (sa, sb):
            return ObstructionVerdict(True, reason)
    return ObstructionVerdict(False, REASON_DESCRIBABLE)


def combine_degenerate_cosine(cos_a: Fraction, cos_b: Fraction) -> Fraction:
    """Exact cos(A+B) for the degenerate (both_admissible) cases.

    Valid only when simultaneous_describability did not exclude the pair:
    then at least one sine is zero, or both angles have cosine zero.  Angles
    are taken in [0, pi] so sines are nonnegative.
    """
    ca, cb = Fraction(cos_a), Fraction(cos_b)
    sa2, sb2 = 1 - ca * ca, 1 - cb * cb
    if sa2 == 0 or sb2 == 0:
        # sin A = 0 (cos A = +-1): cos(A+B) = cos A * cos B, and symmetrically.
        return ca * cb
    if ca == 0 and cb == 0:
        return Fraction(-1)  # cos(A+B) = -sin A sin B = -1
    raise ValueError("combine_degenerate_cosine called on a non-degenerate pair")


def fraction_str(x: RationalLike) -> str:
    """Serialize a rational as 'numerator/denominator'."""
    fr = x if type(x) is Fraction else Fraction(x)
    return f"{fr.numerator}/{fr.denominator}"
