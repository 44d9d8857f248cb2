"""End-to-end experiment harnesses: CHSH correlations with counterfactual
admissibility, which-way versus interference runs, and the two-observer
preparation obstruction.

Every reported statistic is an exact rational: a label fraction of a
constructed string, or a CHSH agreement first_count/2**N, the closed form
the composed Bell strings realize exactly (``invset check`` proves it), so
chsh builds no labels at any N.  High-precision numerics appear only to pick
and certify the nearest describable substitute for a requested setting and
on the numeric fallback path of the closed-form circuit probabilities.  Each
correlation comes from its own sub-ensemble - no value is ever computed from
a counterfactual run.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .exactmath import (
    ExactAngle,
    NoAdmissibleAngle,
    NotOnInvariantSet,
    ObstructionVerdict,
    REASON_DESCRIBABLE,
    _Record,
    acos_exact,
    combine_degenerate_cosine,
    cos_exact,
    fraction_str,
    gate_amplitude,
    gate_phase,
    simultaneous_describability,
    sin_exact,
)
from .highprec import DEFAULT_PREC, cos_turns, to_mpf, working_prec

PAIR_NAMES = ("A1B1", "A1B2", "A2B1", "A2B2")
BRIDGE_NAMES = ("A1A2", "B1B2")


def relative_turns(x: ExactAngle, y: ExactAngle) -> Fraction:
    """Relative orientation of two settings as a turn fraction in [0, 1/2]."""
    (a, b), (c, d) = x.turns.as_integer_ratio(), y.turns.as_integer_ratio()
    den = b * d
    num = (a * d - c * b) % den
    return Fraction(min(num, den - num), den)


class AngleSubstitution(_Record):
    """A requested relative angle and its nearest describable stand-in.

    ``cos_value`` = 2*first_count/2^N - 1 is exact; ``delta_turns_float`` is
    the display-only size of the angular adjustment, the double nearest it,
    checked against the window before this record is built.
    """

    __slots__ = ("requested_turns", "first_count", "cos_value", "delta_turns_float")

    def record(self, name: str) -> dict:
        return {
            "name": name,
            "requested_turns": fraction_str(self.requested_turns),
            "first_count": self.first_count,
            "cos": fraction_str(self.cos_value),
            "delta_turns_float_derived": self.delta_turns_float,
        }


_KERNEL_SLACK = 1 << 14  # units of 2**-prec bounding an mpmath value's error in _decide


def _decide(turns: Fraction, n_bits: int, window: Fraction, prec: int) -> tuple[int, Fraction, float, bool] | None:
    """(count, cos, delta, outside): the count nearest 2**N (1 + cos(2 pi
    turns)) / 2, the substitute cosine 2 count / 2**N - 1, the distance in
    turns of its angle from ``turns`` as the nearest double, and whether that
    distance is at least ``window``, an exact tie being outside.  A cosine in
    {0, +-1/2, +-1} has a rational angle: a rational cos(2 pi turns) gives
    the count exactly (at N = 1, +-1/2 falls halfway and the lower count is
    taken), a rational substitute cosine the window test, and neither touches
    mpmath.  Otherwise each decision is read off one enclosure at prec bits:
    the count is the one integer within 1/2 of the whole enclosure, and
    delta's double is the one both ends of its enclosure round to; None while
    an enclosure leaves one open.

    An enclosure is one mpmath value, cos(2 pi turns) or the substitute's
    acos / 2 pi, as a fixed-point integer over 2**prec, widened by
    _KERNEL_SLACK units.  That bounds its error if each mpmath kernel is
    within 2**(10 - prec) of its value relatively, the bound mpmath's own
    interval cosine (``libmpi.mpi_cos``) allows its kernels: the argument
    2 pi turns is then within 2**(13 - prec) and cos is 1-Lipschitz, the
    quotient acos / 2 pi within 2**(12 - prec), and the fixed point cuts
    less than 2**-prec more.  Every step after that is exact integer
    arithmetic."""
    length = 1 << n_bits
    cos_t = cos_exact(ExactAngle(turns))
    if cos_t is not None:
        count = int((1 + cos_t) * (length >> 1))
    else:
        from mpmath.libmp import from_rational, mpf_cos, mpf_mul, mpf_pi, mpf_shift, to_fixed

        two_pi = mpf_shift(mpf_pi(prec), 1)
        cos_fixed = to_fixed(mpf_cos(mpf_mul(two_pi, from_rational(turns.numerator, turns.denominator, prec),
                                             prec), prec), prec)
        # 2**N (1 + cos) / 2 lies in [lo, hi] / 2**(prec + 1), and is never a half-integer;
        # count is the integer nearest the lower end, so the enclosure decides it if hi is below count + 1/2
        lo, hi = (((1 << prec) + cos_fixed + slack) << n_bits for slack in (-_KERNEL_SLACK, _KERNEL_SLACK))
        count = (lo + (1 << prec)) >> (prec + 1)
        if hi >= (2 * count + 1) << prec:
            return None
    sub_cos = Fraction(2 * count - length, length)
    sub_turns = acos_exact(sub_cos)
    if sub_turns is not None:
        delta = abs(sub_turns - turns)
        return count, sub_cos, float(delta), delta >= window
    # the substitute cosine is irrational-angled, so cos_t was irrational and two_pi is set
    from mpmath.libmp import from_man_exp, mpf_acos, mpf_div

    sub_fixed = to_fixed(mpf_div(mpf_acos(from_man_exp(2 * count - length, -n_bits), prec), two_pi, prec), prec)
    # delta = |sub - turns| lies in [lo, hi] / (den 2**prec), and is never 0: the substitute angle is irrational
    den = turns.denominator << prec
    lo, hi = ((sub_fixed + slack) * turns.denominator - (turns.numerator << prec)
              for slack in (-_KERNEL_SLACK, _KERNEL_SLACK))
    if lo <= 0 <= hi:
        return None
    lo, hi = (lo, hi) if lo > 0 else (-hi, -lo)
    near = lo / den  # int / int: the double nearest the quotient
    if near != hi / den:
        return None
    if lo * window.denominator >= window.numerator * den:
        return count, sub_cos, near, True
    return (count, sub_cos, near, False) if hi * window.denominator < window.numerator * den else None


def substitute_describable(requested_turns: Fraction, n_bits: int, window_turns: Fraction) -> AngleSubstitution:
    """Nearest angle whose cos^2(theta/2) is describable by N bits.

    ``requested_turns`` is a relative orientation folded into [0, 1/2].
    Raises NoAdmissibleAngle when the substitute is farther (in turns) than
    the window, which models the finite precision of a real apparatus; near
    the poles the cosine grid is angularly coarse, so tight windows refuse
    rather than stretch.  Substitutions are always reported, never silent.

    The nearest count, delta's double and delta >= window are each certified
    (``_decide``) at max(DEFAULT_PREC, N + GUARD_BITS) bits; while one is
    left open the precision doubles (Ziv's strategy).  An irrational cosine
    never gives a half-integer count, an irrational-angled substitute never a
    delta on a rounding boundary or an exact tie, so the loop ends.
    """
    prec = working_prec(n_bits)
    while (decided := _decide(requested_turns, n_bits, window_turns, prec)) is None:
        prec *= 2
    count, cos_value, delta, outside = decided
    if outside:
        raise NoAdmissibleAngle(
            f"no describable angle within {window_turns} turns of {requested_turns} at N={n_bits}"
        )
    return AngleSubstitution(requested_turns, count, cos_value, delta)


class ChshConfig(_Record):
    """The four settings, N and the substitution window, 2**-(N-2) turns by
    default.  A window given as an int or float is taken at its exact value,
    so every substitution route compares it as a Fraction."""

    __slots__ = ("n_bits", "a1", "a2", "b1", "b2", "window_turns")

    def __init__(self, n_bits: int, a1: ExactAngle, a2: ExactAngle, b1: ExactAngle, b2: ExactAngle,
                 window_turns: Fraction | None = None) -> None:
        if window_turns is not None and type(window_turns) is not Fraction:
            window_turns = Fraction(window_turns)
        super().__init__(n_bits, a1, a2, b1, b2, window_turns)

    @property
    def window(self) -> Fraction:
        return self.window_turns if self.window_turns is not None else Fraction(1, 1 << (self.n_bits - 2))


class ChshReport(_Record):
    """``substitutions`` maps each of the four pairs and the two bridges to
    its substitution.  Each pair is measured on its own sub-ensemble: its
    agreement a is its count over 2**N and its correlation 2a - 1, the
    substituted cosine."""

    __slots__ = ("n_bits", "window_turns", "substitutions", "s_value", "admissibility")

    def record(self) -> dict:
        def sub_ensemble(pair: str) -> dict:
            sub = self.substitutions[pair]
            return {
                "pair": pair,
                "substitution": sub.record(pair),
                "agreement": fraction_str(Fraction(sub.first_count, 1 << self.n_bits)),
                "correlation": fraction_str(sub.cos_value),
                "correlation_float_derived": float(sub.cos_value),
            }

        return {
            "n_bits": self.n_bits,
            "window_turns": fraction_str(self.window_turns),
            "sub_ensembles": {pair: sub_ensemble(pair) for pair in PAIR_NAMES},
            "s_value": fraction_str(self.s_value),
            "s_value_float_derived": float(self.s_value),
            "bridges": {name: self.substitutions[name].record(name) for name in BRIDGE_NAMES},
            "admissibility": self.admissibility,
        }


def _admissibility_matrix(subs: dict[str, AngleSubstitution], n_bits: int) -> dict[str, dict[str, dict]]:
    """Verdict per (actual, counterfactual) pair: each bridge on the way asks
    whether the summed setting's cosine can still be describable.  Each
    distinct (bridge cosine, current cosine) pair is decided once, keyed by
    integers: a tuple of ints hashes in C, a Fraction does not."""
    verdicts: dict[tuple[int, int, int, int], ObstructionVerdict] = {}

    def decide(bridge_cos: Fraction, cos: Fraction) -> ObstructionVerdict:
        key = (*bridge_cos.as_integer_ratio(), *cos.as_integer_ratio())
        if key not in verdicts:
            verdicts[key] = simultaneous_describability(bridge_cos, cos, n_bits)
        return verdicts[key]

    def cell(actual: str, counterfactual: str) -> dict:
        if counterfactual == actual:
            return {"verdict": "actual", "reason": REASON_DESCRIBABLE, "via": []}
        chain = ["A1A2"] * (actual[:2] != counterfactual[:2]) + ["B1B2"] * (actual[2:] != counterfactual[2:])
        current = subs[actual].cos_value
        for bridge in chain:
            verdict = decide(subs[bridge].cos_value, current)
            if verdict.excluded:
                return {"verdict": "excluded", "reason": verdict.reason, "via": chain}
            current = combine_degenerate_cosine(current, subs[bridge].cos_value)
        return {"verdict": "admissible", "reason": REASON_DESCRIBABLE, "via": chain}

    return {actual: {counterfactual: cell(actual, counterfactual) for counterfactual in PAIR_NAMES}
            for actual in PAIR_NAMES}


def chsh_run(cfg: ChshConfig) -> ChshReport:
    """Run the four sub-experiments on separate sub-ensembles and assemble
    S = |C(A1,B1) - C(A1,B2)| + |C(A2,B1) + C(A2,B2)| exactly.  Pairs and
    bridges at the same folded angle share one substitution.  A
    correlation is its pair's substituted cosine: the Bell strings' closed
    form, so no labels are built."""
    settings = {"A1": cfg.a1, "A2": cfg.a2, "B1": cfg.b1, "B2": cfg.b2}
    substitute = functools.cache(lambda t: substitute_describable(t, cfg.n_bits, cfg.window))
    subs = {name: substitute(relative_turns(settings[name[:2]], settings[name[2:]]))
            for name in (*PAIR_NAMES, *BRIDGE_NAMES)}
    c = {pair: subs[pair].cos_value for pair in PAIR_NAMES}
    s_value = abs(c["A1B1"] - c["A1B2"]) + abs(c["A2B1"] + c["A2B2"])
    return ChshReport(cfg.n_bits, cfg.window, subs, s_value, _admissibility_matrix(subs, cfg.n_bits))


WHICH_WAY = "which_way"
INTERFERENCE = "interference"


class MzReport(_Record):
    """``phase_gate``: phi/2pi is describable by N-1 bits; ``amplitude_gate``:
    cos^2(phi/2) is describable by N bits."""

    __slots__ = ("mode", "phi_turns", "probabilities", "phase_gate", "amplitude_gate")

    def record(self) -> dict:
        """The other mode is the counterfactual, admissible where its gate
        passes; a phase passing both gates is exceptional: cos(phi) in
        {0, +-1/2, +-1} on the grid."""
        which_way = self.mode == WHICH_WAY
        return {
            "mode": self.mode,
            "phi_turns": fraction_str(self.phi_turns),
            "probabilities": {k: fraction_str(v) for k, v in self.probabilities.items()},
            "probabilities_float_derived": {k: float(v) for k, v in self.probabilities.items()},
            "phase_gate": self.phase_gate,
            "amplitude_gate": self.amplitude_gate,
            "counterfactual_mode": INTERFERENCE if which_way else WHICH_WAY,
            "counterfactual_admissible": self.amplitude_gate if which_way else self.phase_gate,
            "exceptional": self.phase_gate and self.amplitude_gate,
        }


def _gate(gate, angle: ExactAngle, n_bits: int) -> int | NotOnInvariantSet:
    """The gate's count for angle, or the NotOnInvariantSet it raised."""
    try:
        return gate(angle, n_bits)
    except NotOnInvariantSet as exc:
        return exc


def mz_run(mode: str, phi: ExactAngle, n_bits: int) -> MzReport:
    """Which-way mode sends the input to the balanced string at phase phi
    (detector probabilities exactly 1/2); interference mode sends it to the
    amplitude-phi string at phase zero (bright-port probability exactly
    cos^2(phi/2)).  The mode whose gate fails is off the invariant set and
    raises that gate's exception; each gate runs once."""
    shift, count = _gate(gate_phase, phi, n_bits), _gate(gate_amplitude, phi, n_bits)
    if mode == WHICH_WAY:
        decided, first_count, tag = shift, 1 << (n_bits - 1), "b"
    elif mode == INTERFERENCE:
        decided, first_count, tag = count, count, "c"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(decided, NotOnInvariantSet):
        raise decided
    p = Fraction(first_count, 1 << n_bits)  # the string's first-label fraction
    return MzReport(mode, phi.turns, {f"D_{tag}": p, f"D_not_{tag}": 1 - p},
                   type(shift) is int, type(count) is int)


def pbr_values(alpha: ExactAngle, beta: ExactAngle, theta: ExactAngle, prec: int = DEFAULT_PREC):
    """(X, Z) in closed form, with c, s the cosine and sine of theta/2:

    - X = c^4 + s^4 + 2c^2 s^2 cos(a-2b), the probability of the
      distinguishing outcome for the matched preparation;
    - Z = X - 4c^2 s^2 - 4c^3 s cos(a-b) - 4c s^3 cos(b), the value whose
      vanishing the circuit parameters must achieve for the mismatched one.

    Each is an exact Fraction when every trigonometric value its nonzero
    terms need is rational, else an mpf at prec bits.  Z is exact only where
    X is."""
    delta, diff = alpha - beta - beta, alpha - beta
    ct, st, cd = cos_exact(theta), sin_exact(theta), cos_exact(delta)
    x = None
    if ct is not None:
        c2, s2 = (1 + ct) / 2, (1 - ct) / 2
        if c2 * s2 == 0 or cd is not None:  # the mixed term vanishes or is rational
            x = c2 * c2 + s2 * s2 + 2 * c2 * s2 * (cd or 0)
            cdiff, cb = cos_exact(diff), cos_exact(beta)
            # each phase cosine is needed only where its coefficient is nonzero
            if st is not None and (c2 * st == 0 or cdiff is not None) and (s2 * st == 0 or cb is not None):
                cs = st / 2
                return x, x - 4 * c2 * s2 - 4 * c2 * cs * (cdiff or 0) - 4 * s2 * cs * (cb or 0)
    import mpmath  # the inexact path only

    with mpmath.workprec(prec):
        half = mpmath.pi * to_mpf(theta.turns, prec)
        c, s = mpmath.cos(half), mpmath.sin(half)
        x_mp = c**4 + s**4 + 2 * c**2 * s**2 * cos_turns(delta.turns, prec)
        z = (
            x_mp
            - 4 * c**2 * s**2
            - 4 * c**3 * s * cos_turns(diff.turns, prec)
            - 4 * c * s**3 * cos_turns(beta.turns, prec)
        )
    return (x_mp if x is None else x), z


def pbr_simultaneity(alpha: ExactAngle, beta: ExactAngle, n_bits: int) -> ObstructionVerdict:
    """Angle-level wrapper: both cos(a-2b) and cos(b) must be rational and
    describable (precondition), then simultaneous_describability decides on
    cos(a-b), as for the CHSH counterfactuals.
    A vanishing sine on either side is degenerate - cos(a-b) then reduces to
    (plus or minus) one of the actual cosines - and is admissible without
    further preconditions."""
    delta = alpha - beta - beta
    if sin_exact(beta) == 0 or sin_exact(delta) == 0:
        return ObstructionVerdict(False, REASON_DESCRIBABLE)
    cd, cb = cos_exact(delta), cos_exact(beta)
    if cd is None or cb is None:
        raise ValueError("precondition: cos(alpha-2beta) and cos(beta) must be rational")
    return simultaneous_describability(cd, cb, n_bits)


class PbrReport(_Record):
    """X and Z, each a Fraction when exact and an mpf otherwise, and the
    obstruction's verdict."""

    __slots__ = ("x_value", "z_value", "simultaneity")

    def record(self) -> dict:
        def num(v):
            if isinstance(v, Fraction):
                return {"exact": fraction_str(v), "float_derived": float(v)}
            import mpmath  # an inexact value is an mpf, so mpmath is loaded already

            return {"exact": None, "float_derived": float(v), "highprec_derived": mpmath.nstr(v, 50)}

        return {
            "X": num(self.x_value),
            "Z": num(self.z_value),
            "simultaneity": self.simultaneity,
        }


def pbr_run(alpha: ExactAngle, beta: ExactAngle, theta: ExactAngle, n_bits: int) -> PbrReport:
    """X, Z and the obstruction as ``pbr_simultaneity`` decides it; where its
    precondition fails, the obstruction is not applicable."""
    x, z = pbr_values(alpha, beta, theta)
    try:
        v = pbr_simultaneity(alpha, beta, n_bits)
    except ValueError:
        sim = {"applicable": False, "reason": "cos(alpha-2beta) or cos(beta) not describable"}
    else:
        sim = {"applicable": True, "verdict": v.verdict, "reason": v.reason}
    return PbrReport(x, z, sim)
