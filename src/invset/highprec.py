"""High-precision numeric helpers for oracles, the PBR fallback and the
working precision of the nearest-angle substitution.

mpmath is used only for chsh's angle substitution, pbr's inexact values and
the tests' numeric oracles; no admissibility predicate and no ``invset
check`` row depends on it.  Like every invset function that computes with
mpmath, each helper here imports it in its own body, so a command that never
substitutes an angle or runs an oracle never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import mpmath

DEFAULT_PREC = 240  # working precision in bits; comfortably above 200-bit targets
GUARD_BITS = 80  # bits kept above N, so values on the 2**-N grid stay exact


def working_prec(n_bits: int) -> int:
    """DEFAULT_PREC, raised to n_bits + GUARD_BITS where the 2**-n_bits grid needs more."""
    return max(DEFAULT_PREC, n_bits + GUARD_BITS)


def to_mpf(fr: Fraction | int, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    import mpmath

    fr = Fraction(fr)
    with mpmath.workprec(prec):
        return mpmath.mpf(fr.numerator) / fr.denominator


def cos_turns(turns: Fraction, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """cos(2*pi*turns) at the given binary precision."""
    import mpmath

    with mpmath.workprec(prec):
        return mpmath.cos(2 * mpmath.pi * to_mpf(turns, prec))


def sin_turns(turns: Fraction, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    import mpmath

    with mpmath.workprec(prec):
        return mpmath.sin(2 * mpmath.pi * to_mpf(turns, prec))


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Fixed-point rationalization of an mpf over 2**180 (error at most 2**-181)."""
    import mpmath

    with mpmath.workprec(DEFAULT_PREC):
        n = int(mpmath.nint(x * (1 << 180)))
    return Fraction(n, 1 << 180)


def best_rational_approx(x: mpmath.mpf, max_denominator: int) -> Fraction:
    """Closest rational with bounded denominator to a high-precision value."""
    return mpf_to_fraction(x).limit_denominator(max_denominator)


def nearest_describable(x: mpmath.mpf, n_bits: int) -> Fraction:
    """Closest value of the form n/2**n_bits to a high-precision value."""
    import mpmath

    with mpmath.workprec(working_prec(n_bits)):
        n = int(mpmath.nint(x * (1 << n_bits)))
    return Fraction(n, 1 << n_bits)
