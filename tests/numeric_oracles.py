"""Numeric oracles the tests check the exact routes against: high-precision
mpmath values for arbitrary, not necessarily admissible, angles, and the
rationals nearest to such values."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

import mpmath

from invset.highprec import DEFAULT_PREC, to_mpf, working_prec
from invset.multiqubit import _arity


def amplitude_table_mp(
    theta_turns: Sequence[Fraction], phi_turns: Sequence[Fraction], prec: int = DEFAULT_PREC
) -> list[mpmath.mpc]:
    """Numeric complex amplitudes of multiqubit.amplitude_table's expansion at
    high precision, for arbitrary (not necessarily admissible) angles."""
    if len(theta_turns) != len(phi_turns):
        raise ValueError("need equally many amplitude and phase angles")
    _arity(theta_turns)

    with mpmath.workprec(prec):

        def rec(th: Sequence[Fraction], ph: Sequence[Fraction]) -> list[mpmath.mpc]:
            half = mpmath.pi * to_mpf(th[0], prec)
            c, s = mpmath.cos(half), mpmath.sin(half)
            e = mpmath.expjpi(2 * to_mpf(ph[0], prec))
            if len(th) == 1:
                return [mpmath.mpc(c), e * s]
            h = (len(th) - 1) // 2
            left = rec(th[1 : 1 + h], ph[1 : 1 + h])
            right = rec(th[1 + h :], ph[1 + h :])
            return [c * x for x in left] + [e * s * x for x in right]

        return rec(list(theta_turns), list(phi_turns))


def sin_turns(turns: Fraction, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """sin(2*pi*turns) at the given binary precision."""
    with mpmath.workprec(prec):
        return mpmath.sin(2 * mpmath.pi * to_mpf(turns, prec))


def mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    """Fixed-point rationalization of an mpf over 2**180 (error at most 2**-181)."""
    with mpmath.workprec(DEFAULT_PREC):
        n = int(mpmath.nint(x * (1 << 180)))
    return Fraction(n, 1 << 180)


def best_rational_approx(x: mpmath.mpf, max_denominator: int) -> Fraction:
    """Closest rational with bounded denominator to a high-precision value."""
    return mpf_to_fraction(x).limit_denominator(max_denominator)


def nearest_describable(x: mpmath.mpf, n_bits: int) -> Fraction:
    """Closest value of the form n/2**n_bits to a high-precision value."""
    with mpmath.workprec(working_prec(n_bits)):
        n = int(mpmath.nint(x * (1 << n_bits)))
    return Fraction(n, 1 << n_bits)
