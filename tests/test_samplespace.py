import random
from fractions import Fraction

import pytest

from invset.exactmath import ExactAngle, NotOnInvariantSet, ResourceBound
from invset.samplespace import (
    _lowest_set_mask,
    _rot_left,
    BitString,
    OrbitDescriptor,
    canonical_string,
    even_mask,
    first_label_count,
    fraction,
    full_mask,
    from_text,
    hilbert_shadow,
    negate,
    pair_shift,
    phase_string,
    quarter_turn,
    require_explicit,
    rotation_table,
    sample,
    sample_from_counts,
    to_text,
)

# Frozen golden table at N=4 (also stored in invset/data/canonical_table_n4.txt):
# the canonical string and its pair-shifts by 1, 2 and 4.
N4_TABLE = [
    "0000101011110101",
    "0010101111010100",
    "1010111101010000",
    "1111010100001010",
]


def angle(num, den=1):
    return ExactAngle(Fraction(num, den))


def random_string(rng, n_bits, tag="a"):
    return BitString(n_bits, rng.getrandbits(1 << n_bits), tag, None)


class TestCanonical:
    def test_n4_table(self):
        base = canonical_string(4)
        assert [to_text(pair_shift(base, n)) for n in (0, 1, 2, 4)] == N4_TABLE

    def test_n3_block_construction(self):
        assert to_text(canonical_string(3)) == "00101101"

    def test_half_labels_are_first_regime(self):
        for n_bits in range(3, 12):
            assert fraction(canonical_string(n_bits)) == Fraction(1, 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            canonical_string(2)


class TestPairShift:
    def test_full_rotation_is_identity(self):
        rng = random.Random(5)
        for n_bits in (3, 5, 8):
            s = random_string(rng, n_bits)
            assert pair_shift(s, 1 << (n_bits - 1)) == s

    def test_shift_four_negates_canonical_at_n4(self):
        base = canonical_string(4)
        assert pair_shift(base, 4).bits == negate(base).bits

    def test_composition(self):
        rng = random.Random(6)
        s = random_string(rng, 6)
        assert pair_shift(pair_shift(s, 3), 11).bits == pair_shift(s, 14).bits


class TestQuarterTurn:
    def test_square_is_negation(self):
        rng = random.Random(8)
        for _ in range(20):
            s = random_string(rng, 5)
            assert quarter_turn(s, 2).bits == s.bits ^ ((1 << 32) - 1)

    def test_fourth_power_is_identity(self):
        rng = random.Random(9)
        s = random_string(rng, 7)
        assert quarter_turn(s, 4) == s
        assert quarter_turn(quarter_turn(s, 3), 1) == s

    def test_single_application_rule(self):
        # adjacent pairs (x, y) -> (not-y, x)
        s = from_text("00101101")
        assert to_text(quarter_turn(s)) == "10110100"

    @pytest.mark.parametrize("n_bits", range(3, 13))
    def test_equals_eighth_period_shift_on_canonical(self, n_bits):
        base = canonical_string(n_bits)
        assert quarter_turn(base, 1) == pair_shift(base, 1 << (n_bits - 3))

    def test_commutes_with_pair_shift(self):
        rng = random.Random(10)
        s = random_string(rng, 6)
        assert quarter_turn(pair_shift(s, 5)).bits == pair_shift(quarter_turn(s), 5).bits


class TestPhaseString:
    def test_zero_phase_is_canonical(self):
        assert phase_string(6, angle(0)) == canonical_string(6)

    def test_quarter_phase_is_one_quarter_turn(self):
        # phase 1/4 turn = 2^(N-3) pair-shifts = one quarter-turn at N=4
        assert phase_string(4, angle(1, 4)) == quarter_turn(canonical_string(4), 1)

    def test_inadmissible_phase_raises(self):
        with pytest.raises(NotOnInvariantSet):
            phase_string(8, angle(1, 3))
        with pytest.raises(NotOnInvariantSet):
            phase_string(8, angle(1, 256))  # needs N-1 = 7 bits at most

    def test_shadow_additivity_under_shift(self):
        n_bits = 9
        rng = random.Random(12)
        for _ in range(50):
            k = rng.randrange(1 << (n_bits - 1))
            n = rng.randrange(1 << (n_bits - 1))
            phi = angle(k, 1 << (n_bits - 1))
            shadow = hilbert_shadow(pair_shift(phase_string(n_bits, phi), n))
            expected = (phi.turns + Fraction(n, 1 << (n_bits - 1))) % 1
            assert shadow.phase_turns == expected


class TestSample:
    def test_pure_states(self):
        phi = angle(3, 8)
        assert to_text(sample(4, angle(0), phi)) == "0" * 16
        assert to_text(sample(4, angle(1, 2), phi)) == "1" * 16

    def test_balanced_theta_keeps_phase_string(self):
        phi = angle(3, 16)
        assert sample(5, angle(1, 4), phi) == phase_string(5, phi)

    @pytest.mark.parametrize(
        "theta_turns,amp",
        [(Fraction(0), Fraction(1)), (Fraction(1, 6), Fraction(3, 4)), (Fraction(1, 4), Fraction(1, 2)),
         (Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 2), Fraction(0))],
    )
    def test_fraction_is_cos_squared_half(self, theta_turns, amp):
        for n_bits in range(3, 9):
            for k in range(0, 1 << (n_bits - 1), 3):
                s = sample(n_bits, ExactAngle(theta_turns), angle(k, 1 << (n_bits - 1)))
                assert fraction(s) == amp

    def test_theta_normalized_beyond_half_turn(self):
        # 5/6 of a turn has the same cosine as 1/6
        assert fraction(sample(5, angle(5, 6), angle(0))) == Fraction(3, 4)

    def test_gates(self):
        with pytest.raises(NotOnInvariantSet):
            sample(6, angle(1, 8), angle(0))  # cos(2pi/8) irrational
        with pytest.raises(NotOnInvariantSet):
            sample(6, angle(1, 6), angle(1, 3))  # bad phase
        # amp 3/4 needs only two bits, so even N=3 admits it
        assert fraction(sample(3, angle(1, 6), angle(0))) == Fraction(3, 4)

    def test_flip_counts_from_phase_string(self):
        # amp 3/4 flips the first quarter of negated labels to the first regime
        n_bits = 5
        base = phase_string(n_bits, angle(3, 16))
        s = sample(n_bits, angle(1, 6), angle(3, 16))
        changed = base.bits ^ s.bits
        assert changed.bit_count() == 1 << (n_bits - 2)
        assert changed & base.bits == changed  # only previously-negated labels changed
        low_neg = [j for j in range(1 << n_bits) if (base.bits >> j) & 1][: 1 << (n_bits - 2)]
        assert changed == sum(1 << j for j in low_neg)  # and exactly the first ones


class TestSampleEquivalence:
    """Sample-space equality is equality of the first-label count: the same
    labels up to order."""

    def test_permutation_invariance(self):
        rng = random.Random(21)
        s = random_string(rng, 6)
        for n in (1, 7, 13):
            assert first_label_count(pair_shift(s, n)) == first_label_count(s)

    def test_canonical_vs_quarter_turn(self):
        base = canonical_string(4)
        assert first_label_count(quarter_turn(base)) == first_label_count(base)

    def test_opposite_constants_differ(self):
        all_a = sample(4, angle(0), angle(0))
        all_not = sample(4, angle(1, 2), angle(0))
        assert first_label_count(all_a) != first_label_count(all_not)

    def test_length_mismatch(self):
        # equal fractions, but strings of different lengths hold different counts
        short, longer = canonical_string(4), canonical_string(5)
        assert fraction(short) == fraction(longer)
        assert first_label_count(short) != first_label_count(longer)


class TestHilbertShadow:
    def test_pure_state_phase_irrelevant(self):
        shadow = hilbert_shadow(sample(6, angle(0), angle(5, 32)))
        assert shadow.amplitude_sq == 1
        assert not shadow.phase_relevant

    def test_parameter_readout(self):
        shadow = hilbert_shadow(sample(6, angle(1, 4), angle(1, 4)))
        assert shadow.amplitude_sq == Fraction(1, 2)
        assert shadow.phase_turns == Fraction(1, 4)
        assert shadow.phase_relevant

    def test_injection_and_round_trip_on_admissible_parameters(self):
        seen = {}
        n_bits = 5
        half = 1 << (n_bits - 1)
        for theta, amp in ((angle(0), 4), (angle(1, 6), 3), (angle(1, 4), 2), (angle(1, 3), 1), (angle(1, 2), 0)):
            for k in range(half):
                s = sample(n_bits, theta, angle(k, half))
                shadow = hilbert_shadow(s)
                # reading the shadow gives back exactly the construction parameters
                assert shadow.amplitude_sq == Fraction(amp, 4)
                assert shadow.phase_turns == Fraction(k, half)
                key = (shadow.amplitude_sq, shadow.phase_turns if shadow.phase_relevant else None)
                if key in seen:
                    assert seen[key] == s.bits  # same shadow only from the same string
                seen[key] = s.bits

    def test_raw_strings_rejected(self):
        with pytest.raises(ValueError):
            hilbert_shadow(from_text("0011010111001010"))

    def test_theta_flip_drops_descriptor(self):
        s = sample(5, angle(1, 6), angle(0))
        assert pair_shift(s, 1).descriptor is None
        with pytest.raises(ValueError):
            hilbert_shadow(pair_shift(s, 1))


class TestNegation:
    def test_descriptor_tracks_negation(self):
        for n_bits in (4, 5):
            for count in range(0, (1 << n_bits) + 1, 3):
                for rot in (0, 1, 5):
                    s = sample_from_counts(n_bits, count, rot)
                    ns = negate(s)
                    rebuilt = sample_from_counts(n_bits, (1 << n_bits) - count, rot + (1 << (n_bits - 2)))
                    assert ns.bits == rebuilt.bits
                    assert ns.descriptor == rebuilt.descriptor


class TestDualRepresentation:
    def test_descriptor_only_beyond_limit(self):
        s = canonical_string(26)
        assert s.packed is None
        assert fraction(s) == Fraction(1, 2)
        shifted = pair_shift(s, 123456)
        assert shifted.descriptor.rotation == 123456
        turned = quarter_turn(shifted)
        assert turned.descriptor.rotation == 123456 + (1 << 23)
        assert negate(turned).descriptor.first_count == 1 << 25
        with pytest.raises(ResourceBound, match=r"^2\*\*26 labels exceed the explicit limit$"):
            s.bits
        with pytest.raises(ResourceBound, match=r"^2\*\*26 labels exceed the explicit limit$"):
            to_text(turned)

    @pytest.mark.parametrize("n_bits", [24, 25, 10**30])
    def test_the_limit_is_checked_without_building_2_to_the_n(self, n_bits):
        if n_bits <= 24:
            require_explicit(n_bits)
        else:
            with pytest.raises(ResourceBound, match=rf"^2\*\*{n_bits} labels exceed the explicit limit$"):
                require_explicit(n_bits)

    def test_descriptor_only_flipped_strings_cannot_shift(self):
        s = sample_from_counts(26, 5)
        with pytest.raises(ResourceBound):
            pair_shift(s, 1)

    def test_representations_agree_where_both_exist(self):
        # a constructed string and a raw copy of its labels: every operator
        # gives the same labels and label count through either route
        n_bits = 10
        for count in (0, 17, 512, 700, 1024):
            for rot in (0, 3, 511):
                constructed = sample_from_counts(n_bits, count, rot)
                assert constructed == BitString(n_bits, None, "a", OrbitDescriptor(n_bits, rot, count))
                raw = BitString(n_bits, constructed.bits)
                assert first_label_count(constructed) == first_label_count(raw) == count
                for op in (lambda x: pair_shift(x, 9), quarter_turn, lambda x: quarter_turn(x, 3), negate):
                    assert op(constructed).bits == op(raw).bits
                    assert first_label_count(op(constructed)) == first_label_count(op(raw))
        # on phase strings the descriptor decides every operator
        phase = sample_from_counts(n_bits, 512, 7)
        assert pair_shift(phase, 9).descriptor == OrbitDescriptor(n_bits, 16, 512)
        assert quarter_turn(phase).descriptor == OrbitDescriptor(n_bits, 7 + 128, 512)
        assert negate(phase).descriptor == OrbitDescriptor(n_bits, 7 + 256, 512)
        for op in (lambda x: pair_shift(x, 9), quarter_turn, negate):
            assert op(phase).packed is None
            assert op(phase).bits == op(BitString(n_bits, phase.bits)).bits

    def test_same_labels_tag_and_descriptor_compare_and_hash_equal(self):
        built = sample_from_counts(8, 100, 5)
        read = sample_from_counts(8, 100, 5)
        read.bits  # labels built and kept on one of them only
        assert built == read and hash(built) == hash(read)
        phase = sample_from_counts(8, 128, 3)
        assert pair_shift(phase, 128) == phase and hash(pair_shift(phase, 128)) == hash(phase)
        raw = from_text(to_text(built))
        assert raw == BitString(8, built.bits) and hash(raw) == hash(BitString(8, built.bits))
        assert raw != built  # same labels, but only one carries a construction
        assert BitString(8, built.bits, "b") != raw

    def test_a_string_carries_labels_or_a_descriptor(self):
        with pytest.raises(ValueError, match="either packed labels or a descriptor"):
            BitString(5, None, "a", None)
        with pytest.raises(ValueError, match="either packed labels or a descriptor"):
            BitString(5, 0, "a", OrbitDescriptor(5, 0, 32))


class TestSerialization:
    def test_round_trip(self):
        line = "0010101111010100"
        assert to_text(from_text(line)) == line

    def test_rotation_table_matches_frozen(self):
        assert rotation_table(4) == N4_TABLE

    def test_descriptor_record(self):
        s = sample_from_counts(6, 48, 5)
        assert s.descriptor.record() == {"n_bits": 6, "rotation": 5, "theta_count": 48}

    def test_from_text_validation(self):
        with pytest.raises(ValueError):
            from_text("0101")  # length 4 means N=2, below the minimum
        with pytest.raises(ValueError):
            from_text("00000002")

    # int(..., 2) accepts each of these read in one direction or the other
    @pytest.mark.parametrize("line", ["0_010101", "+0010101", "1010100+", "0000000\uff10"])
    def test_from_text_rejects_what_int_accepts(self, line):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            from_text(line)

    @pytest.mark.parametrize("n_bits", range(3, 15))
    def test_text_io_agrees_with_the_per_label_loop(self, n_bits):
        def per_label_text(s):  # the definition: character j is label j
            return "".join("1" if (s.bits >> j) & 1 else "0" for j in range(s.size))

        rng = random.Random(n_bits)
        for bits in (0, (1 << (1 << n_bits)) - 1, rng.getrandbits(1 << n_bits)):
            s = BitString(n_bits, bits)
            line = per_label_text(s)
            assert to_text(s) == line
            assert from_text(line).bits == sum(1 << j for j, ch in enumerate(line) if ch == "1") == bits
        desc_only = BitString(n_bits, None, "a", OrbitDescriptor(n_bits, rng.randrange(1 << n_bits),
                                                                 rng.randrange((1 << n_bits) + 1)))
        assert to_text(desc_only) == per_label_text(desc_only)


def binary_search_lowest_set_mask(x, k):
    """The reference: a binary search on the popcount of every prefix of x."""
    if k == 0:
        return 0
    if x.bit_count() < k:
        raise ValueError("fewer set bits than requested")
    lo, hi = 1, x.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (x & ((1 << mid) - 1)).bit_count() >= k:
            hi = mid
        else:
            lo = mid + 1
    return x & ((1 << lo) - 1)


class TestLowestSetMask:
    @pytest.mark.parametrize("n_bits", range(3, 21))
    def test_agrees_with_the_binary_search(self, n_bits):
        rng = random.Random(n_bits)
        length = 1 << n_bits
        # half the bits set, one in eight, five, and one run of set bits
        xs = [rng.getrandbits(length), rng.getrandbits(length) & rng.getrandbits(length) & rng.getrandbits(length),
              sum(1 << rng.randrange(length) for _ in range(5)), ((1 << (length // 3)) - 1) << (length // 2)]
        for x in xs:
            total = x.bit_count()
            for k in {0, 1, total, total // 2, rng.randint(0, total)}:
                assert _lowest_set_mask(x, k) == binary_search_lowest_set_mask(x, k)
            with pytest.raises(ValueError, match="fewer set bits"):
                _lowest_set_mask(x, total + 1)

    def test_zero_has_no_set_bits(self):
        assert _lowest_set_mask(0, 0) == 0
        with pytest.raises(ValueError, match="fewer set bits"):
            _lowest_set_mask(0, 1)


class TestMasks:
    @pytest.mark.parametrize("n_bits", [3, 4, 7])
    def test_masks_and_rotation_by_every_count(self, n_bits):
        length = 1 << n_bits
        assert full_mask(length) == int("1" * length, 2)
        assert even_mask(length) == int("01" * (length // 2), 2)
        bits = random.Random(n_bits).getrandbits(length)
        text = format(bits, f"0{length}b")[::-1]  # label j is character j
        for s in range(2 * length):
            rotated = format(_rot_left(bits, s, length), f"0{length}b")[::-1]
            assert rotated == text[s % length:] + text[:s % length]

    @pytest.mark.parametrize("n_bits", [3, 5])
    def test_bitstring_accepts_exactly_the_ints_below_two_to_the_size(self, n_bits):
        size = 1 << n_bits
        for bits in (0, 1, (1 << (size - 1)), (1 << size) - 1):
            assert BitString(n_bits, bits).bits == bits
        for bits in (-1, -(1 << size), 1 << size, (1 << size) + 1, 1 << (2 * size)):
            with pytest.raises(ValueError, match="out of range"):
                BitString(n_bits, bits)

