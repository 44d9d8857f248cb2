import hashlib
import random
import re
from fractions import Fraction
from math import isqrt

import pytest

from invset import checks, exactmath
from invset.exactmath import (
    ExactAngle,
    NotOnInvariantSet,
    ObstructionVerdict,
    REASON_DESCRIBABLE,
    REASON_IRRATIONAL_SINE,
    ResourceBound,
    combine_degenerate_cosine,
    cos_exact,
    gate_amplitude,
    gate_phase,
    is_describable,
    pythagorean_solutions,
    rational_sqrt,
    simultaneous_describability,
    sin_exact,
)
import mpmath

from invset.experiments import mz_run
from invset.highprec import best_rational_approx, cos_turns, nearest_describable, sin_turns, to_mpf
from invset.multiqubit import TwoQubitParams, amplitude_table, multi_sample, two_qubit_predict
from invset.samplespace import phase_string, sample

TINY_150 = mpmath.mpf(2) ** -150
GAP_100 = mpmath.mpf(2) ** -100


def assert_far_from_rationals(approx) -> None:
    """Oracle for an irrationality verdict: the value is farther than 2^-100
    from every 64-bit-describable rational and from the best continued-
    fraction approximant with denominator <= 2^40."""
    assert abs(approx - to_mpf(nearest_describable(approx, 64))) > GAP_100
    best = best_rational_approx(approx, 1 << 40)
    assert abs(approx - to_mpf(best)) > GAP_100


class TestExactAngle:
    def test_normalized_into_unit_turn(self):
        assert ExactAngle(Fraction(5, 4)).turns == Fraction(1, 4)
        assert ExactAngle(Fraction(-1, 4)).turns == Fraction(3, 4)

    def test_addition_associative_and_exact(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b, c = (
                ExactAngle(Fraction(rng.randrange(-400, 400), rng.randrange(1, 97)))
                for _ in range(3)
            )
            assert ((a + b) + c).turns == (a + (b + c)).turns


class _Turns(Fraction):
    """A Fraction subclass: ExactAngle stores it as a plain Fraction."""


class TestExactAngleCanonical:
    """An angle built from any rational equals and hashes like the one built
    from its residue Fraction(t) % 1, and stores a plain Fraction."""

    @pytest.mark.parametrize(
        "t",
        [Fraction(0), Fraction(1, 3), Fraction(5, 6), Fraction(1023, 1024),  # canonical
         Fraction(1), Fraction(5, 4), Fraction(-1, 4), Fraction(-7, 3), Fraction(-1),  # outside [0, 1)
         0, 1, 3, -2, True,  # ints
         _Turns(1, 6), _Turns(9, 4), _Turns(-1, 8)],
        ids=repr,
    )
    def test_equals_and_hashes_like_its_residue(self, t):
        angle, residue = ExactAngle(t), ExactAngle(Fraction(t) % 1)
        assert angle == residue and hash(angle) == hash(residue)
        assert type(angle.turns) is Fraction and angle.turns == Fraction(t) % 1


class TestDescribability:
    def test_examples(self):
        assert is_describable(Fraction(3, 8), 3)  # 3/8 = 3/2^3
        assert not is_describable(Fraction(3, 8), 2)
        for n in (1, 5, 20, 64):
            assert not is_describable(Fraction(1, 3), n)  # odd denominator never divides 2^N

    def test_phase_form_accepted_up_to_n_minus_1(self):
        # phases are fractions k/2^(N-1): describable by N-1 bits exactly when the
        # dyadic exponent is at most N-1
        n = 8
        for k in range(1 << (n - 1)):
            turns = Fraction(k, 1 << (n - 1))
            assert is_describable(turns, n - 1)
        assert not is_describable(Fraction(1, 1 << n), n - 1)

    def test_monotone_in_n(self):
        rng = random.Random(11)
        values = [Fraction(rng.randrange(0, 3000), rng.randrange(1, 3000)) for _ in range(300)]
        values += [Fraction(rng.randrange(0, 1 << 12), 1 << rng.randrange(0, 13)) for _ in range(300)]
        for x in values:
            for n in range(1, 14):
                if is_describable(x, n):
                    assert is_describable(x, n + 1)

    @pytest.mark.parametrize(
        "x, n_bits, answer",
        [
            (3, 1, True), (0, 1, True), (True, 1, True), (False, 4, True),
            (Fraction(3, 8), 3, True), (Fraction(3, 8), 2, False), (Fraction(-5, 4), 2, True),
            (0.375, 3, True), (0.375, 2, False), (0.1, 54, False), (0.1, 55, True),
            ("3/8", 3, True), ("3/8", 2, False), ("-0.75", 2, True), ("1/3", 64, False),
            (Fraction(1, 1 << 64), 10**30, True),  # 2**N is never built
        ],
    )
    def test_input_types(self, x, n_bits, answer):
        assert is_describable(x, n_bits) is answer

    @pytest.mark.parametrize("x", [1, True, Fraction(1, 2), 0.5, "1/2", "not a number"])
    @pytest.mark.parametrize("n_bits", [0, -1])
    def test_n_bits_below_one_raises_before_reading_x(self, x, n_bits):
        with pytest.raises(ValueError, match="^n_bits must be >= 1$"):
            is_describable(x, n_bits)


class TestRationalCosine:
    def test_exceptional_values(self):
        assert cos_exact(ExactAngle(Fraction(1, 6))) == Fraction(1, 2)  # 60 degrees
        assert cos_exact(ExactAngle(Fraction(0))) == 1
        assert cos_exact(ExactAngle(Fraction(1, 2))) == -1
        assert cos_exact(ExactAngle(Fraction(1, 4))) == 0
        assert cos_exact(ExactAngle(Fraction(1, 3))) == Fraction(-1, 2)

    def test_eighth_turn_is_irrational(self):
        # independent oracle on the 200-bit value of cos(pi/4)
        angle = ExactAngle(Fraction(1, 8))
        assert cos_exact(angle) is None
        assert_far_from_rationals(cos_turns(angle.turns))

    @pytest.mark.parametrize("den", range(1, 61))
    def test_grid_against_highprec_oracle(self, den):
        for num in range(0, den):
            angle = ExactAngle(Fraction(num, den))
            value = cos_exact(angle)
            approx = cos_turns(angle.turns)
            if value is not None:
                assert abs(approx - to_mpf(value)) < TINY_150
            else:
                assert_far_from_rationals(approx)

    def test_sin_exact_matches_oracle(self):
        for den in range(1, 25):
            for num in range(0, den):
                angle = ExactAngle(Fraction(num, den))
                value = sin_exact(angle)
                approx = sin_turns(angle.turns)
                if value is not None:
                    assert abs(approx - to_mpf(value)) < TINY_150

    # each edit of the exceptional-cosine table must fail the integer certificate: a sign swap of every
    # nonzero entry, a dropped entry, and 1/5 -> 1, which the value test D_5(2) = 2 alone would pass
    @pytest.mark.parametrize("turns, value", [
        ("0", "-1"), ("1/6", "-1/2"), ("1/3", "1/2"), ("1/2", "1"), ("2/3", "1/2"), ("5/6", "-1/2"),
        ("1/6", None), ("1/5", "1"),
    ])
    def test_grid_row_fails_on_an_edited_table(self, monkeypatch, turns, value):
        table = dict(exactmath._EXCEPTIONAL_COS)
        if value is None:
            del table[Fraction(turns)]
        else:
            table[Fraction(turns)] = Fraction(value)
        monkeypatch.setattr(exactmath, "_EXCEPTIONAL_COS", table)
        assert not checks.rational_cosine_grid(40)[0].passed

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 16)) == Fraction(3, 4)
        assert rational_sqrt(Fraction(7, 16)) is None
        assert rational_sqrt(Fraction(-1, 4)) is None


def turns(text: str) -> ExactAngle:
    return ExactAngle(Fraction(text))


# cos(2 pi t) on the eight Niven residues, written out independently of cos_exact.
NIVEN_COS = {
    "0": 1, "1/6": Fraction(1, 2), "1/4": 0, "1/3": Fraction(-1, 2),
    "1/2": -1, "2/3": Fraction(-1, 2), "3/4": 0, "5/6": Fraction(1, 2),
}


class TestGates:
    @pytest.mark.parametrize("n_bits", range(1, 13))
    def test_amplitude_count_on_niven_residues(self, n_bits):
        for t, c in NIVEN_COS.items():
            share = (1 + Fraction(c)) / 2 * (1 << n_bits)
            if share.denominator == 1:
                assert gate_amplitude(turns(t), n_bits) == share
            else:
                with pytest.raises(NotOnInvariantSet):
                    gate_amplitude(turns(t), n_bits)

    @pytest.mark.parametrize("n_bits", range(0, 13))
    def test_table_gate_matches_the_rational_gate(self, n_bits):
        """On every Niven residue and some irrational-cosine turns, the table
        gate gives (1 + cos)/2 * 2**N gated by is_describable, or raises the
        same exception type and message: irrational first, then N < 1, then
        not describable."""

        def rational_gate(theta):
            cos = cos_exact(theta)
            if cos is None:
                raise NotOnInvariantSet(f"cos(theta) for theta={theta} is irrational")
            amp = (1 + cos) / 2
            if not is_describable(amp, n_bits):
                raise NotOnInvariantSet(f"cos^2(theta/2)={amp} is not describable by {n_bits} bits")
            return int(amp * (1 << n_bits))

        def outcome(gate, theta):
            try:
                return gate(theta)
            except ValueError as exc:
                return type(exc), str(exc)

        residues = list(exactmath._EXCEPTIONAL_COS) + [Fraction(t) for t in ("1/5", "1/8", "3/7", "5/12", "1/1024")]
        for t in residues:
            theta = ExactAngle(t)
            assert outcome(lambda a: gate_amplitude(a, n_bits), theta) == outcome(rational_gate, theta)

    def test_amplitude_symmetric_under_reflection(self):
        for t in NIVEN_COS:
            theta = turns(t)
            assert gate_amplitude(theta, 8) == gate_amplitude(ExactAngle(1 - theta.turns), 8)

    def test_amplitude_irrational_cosine_raises(self):
        with pytest.raises(NotOnInvariantSet):
            gate_amplitude(turns("1/5"), 12)

    @pytest.mark.parametrize("n_bits", range(2, 13))
    def test_phase_count(self, n_bits):
        half = 1 << (n_bits - 1)
        for k in range(half):
            assert gate_phase(ExactAngle(Fraction(k, half)), n_bits) == k
        with pytest.raises(NotOnInvariantSet):
            gate_phase(ExactAngle(Fraction(1, 1 << n_bits)), n_bits)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: sample(5, turns("1/5"), turns("0")), "cos(theta) for theta=1/5 turns is irrational"),
            (lambda: sample(5, turns("1/6"), turns("1/3")), "phase 1/3 turns is not a multiple of 1/2**4 of a turn"),
            (lambda: phase_string(5, turns("1/32")), "phase 1/32 turns is not a multiple of 1/2**4 of a turn"),
            (lambda: multi_sample(1, [turns("1/6")]), "cos^2(theta/2)=3/4 is not describable by 1 bits"),
            pytest.param(  # the id is the one the case had before its message named N, the node and its angle
                lambda: multi_sample(3, [turns("1/6")] * 3),
                "conditional count 9/2 of preorder node 1 (theta=1/6 turns) at N=3 is not an integer: "
                "joint amplitude not describable",
                id="<lambda>-conditional count 9/2 is not an integer: joint amplitude not describable",
            ),
            (
                lambda: two_qubit_predict(TwoQubitParams(*[turns("0")] * 5, turns("1/64")), 6),
                "phase 1/64 turns is not a multiple of 1/2**5 of a turn",
            ),
            pytest.param(
                lambda: amplitude_table(
                    [turns("1/2"), turns("1/5"), turns("0")], [turns("1/3"), turns("0"), turns("0")], 6
                ),
                "cos(theta) for theta=1/5 turns is irrational",
                id="amplitude_table-gates-every-amplitude-before-any-phase",
            ),
            (lambda: mz_run("interference", turns("1/8"), 10), "cos(theta) for theta=1/8 turns is irrational"),
            (lambda: mz_run("which_way", turns("1/5"), 10), "phase 1/5 turns is not a multiple of 1/2**9 of a turn"),
        ],
    )
    def test_exclusion_messages(self, call, message):
        with pytest.raises(NotOnInvariantSet, match=f"^{re.escape(message)}$"):
            call()


class TestPinnedGates:
    """gate_amplitude and gate_phase, value or exception type and message,
    at every angle k/d turns with d <= 40 or d in {64, 128, 256, 1024, 3072}
    and -2d <= k <= 2d (each distinct angle once, in increasing order), and
    N in -2..25; the digest pins every outcome."""

    DENOMINATORS = (*range(1, 41), 64, 128, 256, 1024, 3072)
    DIGEST = "c3756b6a403faea3e796a9e08d86beb11e9ed0e96d28e405b146eaec0f428819"

    def test_outcomes_digest(self):
        angles = sorted({ExactAngle(Fraction(k, d)).turns for d in self.DENOMINATORS for k in range(-2 * d, 2 * d + 1)})
        digest = hashlib.sha256()
        for t in angles:
            theta = ExactAngle(t)
            for n_bits in range(-2, 26):
                for gate in (gate_amplitude, gate_phase):
                    try:
                        outcome = repr(gate(theta, n_bits))
                    except ValueError as exc:
                        outcome = f"{type(exc).__name__}: {exc}"
                    digest.update(outcome.encode() + b"\n")
        assert digest.hexdigest() == self.DIGEST


class TestPythagoreanObstruction:
    def test_small_k_empty(self):
        assert pythagorean_solutions(1) == []  # scans a, b in 1..2
        assert pythagorean_solutions(4) == []
        assert pythagorean_solutions(10) == []

    def test_cross_checked_by_square_set_oracle(self):
        # second-route oracle: membership scan in a precomputed set of squares
        for k in range(1, 9):
            target = 1 << (2 * k)
            squares = {b * b for b in range(1, isqrt(target) + 1)}
            hits = [(a, target - a * a) for a in range(1, isqrt(target) + 1) if target - a * a in squares]
            assert hits == []
            assert pythagorean_solutions(k) == []

    def test_resource_bound(self):
        with pytest.raises(ResourceBound):
            pythagorean_solutions(25)
        with pytest.raises(ValueError):
            pythagorean_solutions(0)


class TestAdditionObstruction:
    def test_spec_pair_excluded(self):
        # 1 - (3/4)^2 = 7/16 is not a rational square
        v = simultaneous_describability(Fraction(3, 4), Fraction(1, 2), 2)
        assert v.excluded and v.reason == REASON_IRRATIONAL_SINE
        assert v.verdict == "sum_excluded"

    def test_degenerate_same_setting(self):
        v = simultaneous_describability(Fraction(1), Fraction(3, 4), 2)
        assert not v.excluded and v.reason == REASON_DESCRIBABLE

    def test_zero_cosine_pair_admissible(self):
        # both angles 90 degrees: cos(A+B) = -1, describable
        v = simultaneous_describability(Fraction(0), Fraction(0), 4)
        assert not v.excluded
        assert combine_degenerate_cosine(Fraction(0), Fraction(0)) == -1

    def test_zero_cosine_against_generic_excluded(self):
        v = simultaneous_describability(Fraction(0), Fraction(3, 4), 4)
        assert v.excluded and v.reason == REASON_IRRATIONAL_SINE

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            simultaneous_describability(Fraction(3, 5), Fraction(1, 2), 4)  # not describable
        with pytest.raises(ValueError):
            simultaneous_describability(Fraction(3, 2), Fraction(1, 2), 4)  # outside [-1, 1]

    def test_describable_cos_and_sin_never_coexist(self):
        # exhaustive at small N: every nonzero, non-unit describable cosine has an
        # irrational sine - the executable content of the empty Pythagorean scan
        n = 6
        for num in range(-(1 << n) + 1, 1 << n):
            c = Fraction(num, 1 << n)
            if c == 0 or abs(c) == 1:
                continue
            v = simultaneous_describability(c, Fraction(1, 2), n)
            assert v.excluded and v.reason == REASON_IRRATIONAL_SINE

    def test_combine_degenerate_requires_degenerate(self):
        with pytest.raises(ValueError):
            combine_degenerate_cosine(Fraction(1, 2), Fraction(1, 2))


class TestRecordConstructor:
    """_Record's one constructor fills the fields in order, then by name, and
    refuses what the positional-or-keyword signatures it stands for refused."""

    def test_positional_then_named(self):
        assert ObstructionVerdict(True, reason="r") == ObstructionVerdict(reason="r", excluded=True)
        assert ObstructionVerdict(True, "r") == ObstructionVerdict(True, reason="r")

    @pytest.mark.parametrize("args, named, message", [
        ((True, "r", 1), {}, "ObstructionVerdict takes 2 fields but 3 were given"),
        ((True,), {}, "ObstructionVerdict is missing field 'reason'"),
        ((), {"reason": "r"}, "ObstructionVerdict is missing field 'excluded'"),
        ((True,), {"reason": "r", "verdict": "x"}, "ObstructionVerdict got an unknown or repeated field 'verdict'"),
        ((True, "r"), {"reason": "s"}, "ObstructionVerdict got an unknown or repeated field 'reason'"),
    ], ids=["surplus", "missing", "missing-first", "unknown", "repeated"])
    def test_refuses_a_surplus_missing_or_unknown_field(self, args, named, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            ObstructionVerdict(*args, **named)

    def test_other_records_check_their_fields_the_same_way(self):
        angles = [ExactAngle(Fraction(k, 8)) for k in range(6)]
        assert TwoQubitParams(*angles).phi3 == angles[5]
        with pytest.raises(TypeError, match="^TwoQubitParams is missing field 'phi3'$"):
            TwoQubitParams(*angles[:5])
        with pytest.raises(TypeError):
            checks.CheckResult("x", True, "", "surplus")
