"""Numeric oracles the tests check the exact routes against: high-precision
mpmath values for arbitrary, not necessarily admissible, angles."""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

import mpmath

from invset.highprec import DEFAULT_PREC, to_mpf
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
