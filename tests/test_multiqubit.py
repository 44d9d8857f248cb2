import copy
import hashlib
import itertools
import pickle
import random
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invset import checks, exactmath, multiqubit
from invset.exactmath import ExactAngle, NotOnInvariantSet, ResourceBound, cos_exact, gate_amplitude, gate_phase
from invset.multiqubit import (
    MultiSample,
    TwoQubitParams,
    amplitude_table,
    bell_sample,
    bell_sample_from_amplitude,
    bell_statistics,
    compose_pair,
    expand_counts,
    joint_counts,
    joint_frequencies,
    marginal,
    multi_sample,
    row_descriptor_status,
    two_qubit_predict,
    two_qubit_sample,
)
from invset.samplespace import BitString, canonical_string, first_label_count, negate, pair_shift, sample_from_counts

from numeric_oracles import amplitude_table_mp

ZERO = ExactAngle(Fraction(0))
# amplitude angles admissible for rational turns: cos in {1, 1/2, 0, -1/2, -1}
THETAS = {
    Fraction(1): ExactAngle(Fraction(0)),
    Fraction(3, 4): ExactAngle(Fraction(1, 6)),
    Fraction(1, 2): ExactAngle(Fraction(1, 4)),
    Fraction(1, 4): ExactAngle(Fraction(1, 3)),
    Fraction(0): ExactAngle(Fraction(1, 2)),
}


def params_for(a1, a2, a3, phis=(ZERO, ZERO, ZERO)):
    return TwoQubitParams(THETAS[Fraction(a1)], THETAS[Fraction(a2)], THETAS[Fraction(a3)], *phis)


class TestAmplitudeGate:
    def test_quarter_amplitudes(self):
        for amp, theta in THETAS.items():
            assert gate_amplitude(theta, 6) == amp * 64

    def test_irrational_cos_rejected(self):
        with pytest.raises(NotOnInvariantSet):
            gate_amplitude(ExactAngle(Fraction(1, 5)), 6)


class TestComposePair:
    def test_factorization_when_sources_equal(self):
        params = params_for("3/4", "1/2", "1/2")
        ms = two_qubit_sample(params, 6)
        freqs = joint_frequencies(ms)
        pa, pb = marginal(ms, 0), marginal(ms, 1)
        assert freqs[0b00] == pa * pb
        assert freqs[0b01] == pa * (1 - pb)
        assert freqs[0b10] == (1 - pa) * pb

    def test_composed_row_loses_construction_descriptor(self):
        # the general composed row cannot be written as one amplitude-phase
        # construction; the diagnostic reports the reconstruction failure
        ms = bell_sample(THETAS[Fraction(3, 4)], 6)
        assert row_descriptor_status(ms) == [True, False]

    def test_first_cell_is_product_of_cos_squares(self):
        for a1 in ("1/4", "1/2", "3/4"):
            for a2 in ("1/4", "1/2", "3/4"):
                ms = two_qubit_sample(params_for(a1, a2, "1/2"), 6)
                assert joint_frequencies(ms)[0b00] == Fraction(a1) * Fraction(a2)

    def test_anticorrelated_sources_agreement(self):
        # negated second source at balanced head: agreement = cos^2(theta2/2)
        ms = bell_sample(THETAS[Fraction(3, 4)], 6)
        assert bell_statistics(ms)[0] == Fraction(3, 4)

    def test_length_mismatch(self):
        a6, b6 = two_qubit_sample(params_for("1/2", "1/2", "1/2"), 6).rows
        a5 = two_qubit_sample(params_for("1/2", "1/2", "1/2"), 5).rows[0]
        with pytest.raises(ValueError):
            compose_pair(a5, b6, b6)


class TestJointCounts:
    def test_counts_sum_to_length(self):
        ms = two_qubit_sample(params_for("3/4", "1/4", "1/2"), 7)
        counts = joint_counts(ms)
        assert sum(counts.values()) == 128
        assert sum(joint_frequencies(ms).values()) == 1

    def test_all_first_labels_single_cell(self):
        ms = two_qubit_sample(params_for("1", "1", "1"), 5)
        assert joint_counts(ms) == {0b00: 32, 0b01: 0, 0b10: 0, 0b11: 0}

    def test_bell_theta2_zero_perfect_agreement(self):
        ms = bell_sample(THETAS[Fraction(1)], 5)
        counts = joint_counts(ms)
        assert counts[0b01] == 0 and counts[0b10] == 0

    def test_gamma_table_exhaustive_small_n(self):
        for n_bits in (4, 5, 6):
            for a1 in THETAS.values():
                for a2 in THETAS.values():
                    for a3 in THETAS.values():
                        params = TwoQubitParams(a1, a2, a3, ZERO, ZERO, ZERO)
                        freqs = joint_frequencies(two_qubit_sample(params, n_bits))
                        probs = two_qubit_predict(params, n_bits).probs
                        assert [freqs[o] for o in range(4)] == list(probs)

    def test_joint_permutation_covariance(self):
        ms = two_qubit_sample(params_for("3/4", "1/4", "1/2"), 6)
        before = joint_counts(ms)
        shifted = MultiSample(6, tuple(pair_shift(r, 9) for r in ms.rows))
        assert joint_counts(shifted) == before


class TestPredict:
    def test_theta1_zero_reduces_to_one_qubit(self):
        p = two_qubit_predict(params_for("1", "3/4", "1/4"), 6)
        assert p.probs == (Fraction(3, 4), Fraction(1, 4), 0, 0)

    def test_all_balanced(self):
        p = two_qubit_predict(params_for("1/2", "1/2", "1/2"), 6)
        assert p.probs == (Fraction(1, 4),) * 4

    def test_phase_map(self):
        phis = (ExactAngle(Fraction(1, 8)), ExactAngle(Fraction(1, 16)), ExactAngle(Fraction(3, 8)))
        p = two_qubit_predict(params_for("1/2", "1/2", "1/2", phis), 6)
        assert p.phases[0].turns == 0
        assert p.phases[1] == phis[1]  # chi_1 = phi_2
        assert p.phases[2] == phis[0]  # chi_2 = phi_1
        assert p.phases[3] == phis[0] + phis[2]  # chi_3 = phi_1 + phi_3

    def test_phase_gate(self):
        phis = (ExactAngle(Fraction(1, 3)), ZERO, ZERO)
        with pytest.raises(NotOnInvariantSet):
            two_qubit_predict(params_for("1/2", "1/2", "1/2", phis), 6)

    def test_normalization_random(self):
        rng = random.Random(42)
        keys = list(THETAS.values())
        for _ in range(1000):
            params = TwoQubitParams(*(rng.choice(keys) for _ in range(3)), ZERO, ZERO, ZERO)
            assert sum(two_qubit_predict(params, 10).probs) == 1

    def test_marginal_consistency(self):
        # row-b marginal equals the theta1-weighted mixture of the two sources
        for a1 in ("1/4", "1/2", "3/4"):
            for a2 in ("1/4", "3/4"):
                for a3 in ("1/2", "1/4"):
                    ms = two_qubit_sample(params_for(a1, a2, a3), 6)
                    expected = Fraction(a1) * Fraction(a2) + (1 - Fraction(a1)) * Fraction(a3)
                    assert marginal(ms, 1) == expected


class TestBell:
    def test_extreme_orientations(self):
        assert bell_statistics(bell_sample(THETAS[Fraction(1)], 6))[1] == 1  # theta2 = 0
        assert bell_statistics(bell_sample(THETAS[Fraction(0)], 6))[1] == -1  # theta2 = pi

    def test_sixty_degrees(self):
        ms = bell_sample(ExactAngle(Fraction(1, 6)), 6)  # cos theta2 = 1/2
        assert bell_statistics(ms) == (Fraction(3, 4), Fraction(1, 2))

    def test_correlation_equals_cosine_for_every_amplitude(self):
        n_bits = 8
        for count in range(0, 257, 5):
            amp = Fraction(count, 256)
            ms = bell_sample_from_amplitude(amp, n_bits)
            assert bell_statistics(ms) == (amp, 2 * amp - 1)
            assert joint_counts(ms) == joint_counts(MultiSample(n_bits, ms.rows))

    def test_inadmissible_amplitude(self):
        with pytest.raises(NotOnInvariantSet):
            bell_sample_from_amplitude(Fraction(1, 3), 8)

    def test_bell_sample_gates_its_amplitude_once(self, monkeypatch):
        describable, calls = exactmath.is_describable, []

        def counting(x, n_bits):
            calls.append(x)
            return describable(x, n_bits)

        monkeypatch.setattr(exactmath, "is_describable", counting)
        monkeypatch.setattr(multiqubit, "is_describable", counting)
        ms = bell_sample(ExactAngle(Fraction(1, 6)), 6)
        assert calls == [Fraction(3, 4)]
        assert ms == bell_sample_from_amplitude(Fraction(3, 4), 6)

    @pytest.mark.parametrize("n_bits", range(6, 11))
    def test_rows_equal_the_composed_negated_pair(self, n_bits):
        # row b is built as sb1 xor head, the composition of head, sb1 and sb1's negation
        head = canonical_string(n_bits, "a")
        for count in range((1 << n_bits) + 1):
            sb1 = sample_from_counts(n_bits, count, 0, "b")
            ms = bell_sample_from_amplitude(Fraction(count, 1 << n_bits), n_bits)
            assert ms == compose_pair(head, sb1, negate(sb1))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 20), st.data())
    def test_strings_realize_the_closed_form(self, n_bits, data):
        # chsh reports the closed form (agreement = count/2^N); the composed
        # and counted strings must give exactly the same statistics
        amp = Fraction(data.draw(st.integers(0, 1 << n_bits)), 1 << n_bits)
        ms = bell_sample_from_amplitude(amp, n_bits)
        assert bell_statistics(ms) == (amp, 2 * amp - 1)
        assert joint_counts(ms) == joint_counts(MultiSample(n_bits, ms.rows))

    def test_closed_form_builds_no_row(self, monkeypatch):
        for name in ("BitString", "canonical_string", "sample_from_counts"):
            monkeypatch.setattr(multiqubit, name, lambda *args: pytest.fail("a row was built"))
        counts = joint_counts(bell_sample_from_amplitude(Fraction(37, 256), 8))
        statistics = bell_statistics(bell_sample(ExactAngle(Fraction(1, 6)), 6))
        assert counts == {0b00: 37, 0b01: 91, 0b10: 128, 0b11: 0}
        assert statistics == (Fraction(3, 4), Fraction(1, 2))

    @pytest.mark.parametrize("n_bits, count", [(3, 0), (3, 5), (6, 32), (8, 37), (10, 1000)])
    def test_a_built_sample_is_its_raw_twin(self, n_bits, count):
        def built():
            return bell_sample_from_amplitude(Fraction(count, 1 << n_bits), n_bits)

        twin = MultiSample(n_bits, built().rows)
        assert built() == twin and twin == built() and built() == built()
        assert hash(built()) == hash(twin) and repr(built()) == repr(twin)
        assert pickle.dumps(built()) == pickle.dumps(twin)
        for made in (copy.copy, copy.deepcopy, lambda ms: pickle.loads(pickle.dumps(ms))):
            other = made(built())
            assert type(other) is MultiSample and other == twin and repr(other) == repr(twin)
        ms = built()
        assert ms.rows is ms.rows and ms.size == 1 << n_bits

    def test_a_check_of_the_closed_form_counts_the_labels_of_the_rows(self, monkeypatch):
        bell_rows = multiqubit._bell_rows

        def one_label_flipped(n_bits, counts):
            head, row_b = bell_rows(n_bits, counts)
            return head, BitString(n_bits, row_b.bits ^ 1, row_b.tag)

        assert checks.bell_agreement_correlation(6, 3)[0].passed
        monkeypatch.setattr(multiqubit, "_bell_rows", one_label_flipped)
        result = checks.bell_agreement_correlation(6, 3)[0]
        assert not result.passed and result.detail == "N=6 amplitude 0"


class TestComposeMany:
    def test_m2_matches_compose_pair(self):
        # N=6, head 3/4: labels [0, 48) are its first regime; b's left branch (1/4) has 12 first-regime
        # labels there, its right branch (1/2) 8 of the other 16
        pair = two_qubit_sample(params_for("3/4", "1/4", "1/2"), 6)
        head, _ = pair.rows
        assert head.bits == ((1 << 16) - 1) << 48
        # each source holds its branch's labels where compose_pair reads it, arbitrary labels elsewhere
        noise, first_48 = random.Random(5).getrandbits(64), (1 << 48) - 1
        sb1 = BitString(6, (((1 << 36) - 1) << 12) | (noise & ~first_48), "b", None)
        sb2 = BitString(6, (((1 << 8) - 1) << 56) | (noise & first_48), "b", None)
        assert [r.bits for r in compose_pair(head, sb1, sb2).rows] == [r.bits for r in pair.rows]

    def test_equal_branches_make_head_independent(self):
        sub = [THETAS[Fraction(1, 4)], THETAS[Fraction(1, 2)], THETAS[Fraction(3, 4)]]
        thetas = [THETAS[Fraction(3, 4)]] + sub + sub
        ms = multi_sample(6, thetas)
        freqs = joint_frequencies(ms)
        pa = marginal(ms, 0)
        for o in range(8):
            sub = o & 0b11
            sub_prob = freqs[sub] + freqs[0b100 | sub]
            assert freqs[o] == (pa if o < 4 else 1 - pa) * sub_prob

    def test_m3_matches_expander(self):
        rng = random.Random(77)
        keys = list(THETAS.values())
        for _ in range(100):
            thetas = [rng.choice(keys) for _ in range(7)]
            ms = multi_sample(6, thetas)
            freqs = joint_frequencies(ms)
            table = amplitude_table(thetas, [ZERO] * 7, 6)
            assert [freqs[o] for o in range(8)] == [p for p, _ in table]

    def test_m4_matches_expander(self):
        keys = list(THETAS.values())
        rng = random.Random(15)
        for _ in range(10):
            thetas = [rng.choice(keys) for _ in range(15)]
            ms = multi_sample(10, thetas)
            assert [r.tag for r in ms.rows] == ["a", "b", "c", "d"]
            freqs = joint_frequencies(ms)
            table = amplitude_table(thetas, [ZERO] * 15, 10)
            assert [freqs[o] for o in range(16)] == [p for p, _ in table]

    def test_refused_exactly_when_a_joint_probability_is_not_a_multiple_of_2_to_the_minus_n(self):
        rng = random.Random(24)
        for _ in range(2000):
            m, n_bits = rng.randint(2, 4), rng.randint(3, 8)
            thetas = [rng.choice(TestPinnedTwoQubit.NIVEN_FULL_TURN) for _ in range((1 << m) - 1)]
            probs = [p for p, _ in amplitude_table(thetas, [ZERO] * len(thetas), n_bits)]
            if all((p * (1 << n_bits)).denominator == 1 for p in probs):
                freqs = joint_frequencies(multi_sample(n_bits, thetas))
                assert [freqs[o] for o in range(1 << m)] == probs
            else:
                with pytest.raises(NotOnInvariantSet, match="is not an integer"):
                    multi_sample(n_bits, thetas)

    def test_a_refusal_names_n_and_the_first_node_in_preorder_whose_share_is_not_an_integer(self):
        def first_refused(thetas, i, size, labels):
            share = (1 + cos_exact(thetas[i])) / 2 * labels
            if share.denominator != 1:
                return i, share
            if size == 1:
                return None
            h = size // 2
            return first_refused(thetas, i + 1, h, share) or first_refused(thetas, i + 1 + h, h, labels - share)

        rng = random.Random(26)
        refused = 0
        for _ in range(1000):
            m, n_bits = rng.randint(2, 4), rng.randint(3, 6)
            thetas = [rng.choice(TestPinnedTwoQubit.NIVEN_FULL_TURN) for _ in range((1 << m) - 1)]
            first = first_refused(thetas, 0, len(thetas), Fraction(1 << n_bits))
            if first is None:
                multi_sample(n_bits, thetas)
                continue
            node, share = first
            message = (f"conditional count {share} of preorder node {node} (theta={thetas[node]}) at N={n_bits} "
                       "is not an integer: joint amplitude not describable")
            with pytest.raises(NotOnInvariantSet, match=f"^{re.escape(message)}$"):
                multi_sample(n_bits, thetas)
            refused += 1
        assert 100 < refused < 900

    def test_a_branch_without_labels_is_not_refused(self):
        # N=3: the head's first regime holds every label, so the right subtree (1/6; 0, 1/6), whose
        # counts would not be integers on 8 labels, fills none
        thetas = [ExactAngle(Fraction(t)) for t in ("0", "0", "0", "0", "1/6", "0", "1/6")]
        freqs = joint_frequencies(multi_sample(3, thetas))
        assert [freqs[o] for o in range(8)] == [p for p, _ in amplitude_table(thetas, [ZERO] * 7, 3)] == [1] + [0] * 7

    def test_nonrealizable_raises(self):
        # N=3: head count 6, conditional 6 * 3/4 = 4.5 labels
        with pytest.raises(NotOnInvariantSet):
            multi_sample(3, [THETAS[Fraction(3, 4)], THETAS[Fraction(3, 4)], THETAS[Fraction(1, 2)]])

    def test_explicit_label_limit(self, monkeypatch):
        quarter = [ExactAngle(Fraction(1, 4))] * 3
        assert [first_label_count(r) for r in multi_sample(24, quarter).rows] == [1 << 23] * 2
        # past the limit the joint counts are read from the fill, and the one ResourceBound is raised
        # when the rows are read, before any is built
        ms = multi_sample(25, quarter)
        assert joint_counts(ms) == {o: 1 << 23 for o in range(4)}
        monkeypatch.setattr(multiqubit, "BitString", lambda *args: pytest.fail("a row was built"))
        with pytest.raises(ResourceBound, match=r"^2\*\*25 labels exceed the explicit limit$"):
            ms.rows
        with pytest.raises(NotOnInvariantSet):  # the amplitude gates come at the call
            multi_sample(25, [ExactAngle(Fraction(1, 8))] * 3)


class TestFillRoute:
    """multi_sample's joint counts are the lengths of its fill's leaf
    intervals; its rows, built from the same fill when first read, count to
    the same joint counts, and the sample is its raw twin
    MultiSample(n_bits, rows) in every record operation."""

    NIVEN_5 = [ExactAngle(Fraction(t)) for t in ("0", "1/6", "1/4", "1/3", "1/2")]

    def trees(self):
        """Every m <= 2 tree of NIVEN_5 at N 3..10, then 400 seeded m = 3 trees."""
        for n_bits in range(3, 11):
            for m in (1, 2):
                for thetas in itertools.product(self.NIVEN_5, repeat=(1 << m) - 1):
                    yield n_bits, list(thetas)
        rng = random.Random(35)
        for _ in range(400):
            yield rng.randint(3, 10), [rng.choice(self.NIVEN_5) for _ in range(7)]

    def test_counts_equal_the_counted_labels_of_the_rows(self):
        built = 0
        for n_bits, thetas in self.trees():
            try:
                ms = multi_sample(n_bits, thetas)
            except NotOnInvariantSet:
                continue
            counts = joint_counts(ms)
            assert counts == joint_counts(MultiSample(ms.n_bits, ms.rows)), (n_bits, thetas)
            assert list(counts) == list(range(len(thetas) + 1))
            built += 1
        assert built > 1200

    def test_counts_are_a_new_dict_on_every_call(self):
        ms = multi_sample(6, self.NIVEN_5[1:4])
        counts = joint_counts(ms)
        counts[0] += 1
        assert joint_counts(ms) == {0: 24, 1: 24, 2: 4, 3: 12} and joint_counts(ms) is not joint_counts(ms)

    def test_joint_frequencies_builds_no_row(self, monkeypatch):
        thetas = [self.NIVEN_5[i] for i in (1, 2, 3, 1, 2, 3, 4)]
        params = TwoQubitParams(*self.NIVEN_5[1:4], ZERO, ZERO, ZERO)
        monkeypatch.setattr(multiqubit, "BitString", lambda *args: pytest.fail("a row was built"))
        tree = joint_frequencies(multi_sample(8, thetas))
        pair = joint_frequencies(two_qubit_sample(params, 6))
        monkeypatch.undo()
        assert [tree[o] for o in range(8)] == [p for p, _ in amplitude_table(thetas, [ZERO] * 7, 8)]
        assert [pair[o] for o in range(4)] == list(two_qubit_predict(params, 6).probs)

    @pytest.mark.parametrize("n_bits, picks", [(6, (1, 2, 3)), (8, (3, 1, 2, 2, 0, 4, 1)), (10, (2,) * 15)])
    def test_a_built_sample_is_its_raw_twin(self, n_bits, picks):
        thetas = [self.NIVEN_5[i] for i in picks]
        twin = MultiSample(n_bits, multi_sample(n_bits, thetas).rows)
        # each operation on a sample whose rows have not been read yet
        assert multi_sample(n_bits, thetas) == twin and twin == multi_sample(n_bits, thetas)
        assert multi_sample(n_bits, thetas) == multi_sample(n_bits, thetas)
        assert hash(multi_sample(n_bits, thetas)) == hash(twin)
        assert repr(multi_sample(n_bits, thetas)) == repr(twin)
        assert pickle.dumps(multi_sample(n_bits, thetas)) == pickle.dumps(twin)
        for made in (copy.copy, copy.deepcopy, lambda ms: pickle.loads(pickle.dumps(ms))):
            other = made(multi_sample(n_bits, thetas))
            assert type(other) is MultiSample and other == twin and repr(other) == repr(twin)
        ms = multi_sample(n_bits, thetas)
        assert ms.rows is ms.rows and ms.n_bits == n_bits and ms.size == 1 << n_bits
        assert multi_sample(n_bits, [self.NIVEN_5[0]] * len(thetas)) != twin
        with pytest.raises(AttributeError):
            ms.unlisted

    def test_refusals_and_the_label_limit_are_pinned(self, monkeypatch):
        cases = [(3, ("1/6", "1/6", "1/4"), "9/2 of preorder node 1 (theta=1/6 turns) at N=3"),
                 (4, ("1/3", "1/6", "0", "1/6", "1/6", "1/4", "0"), "3/4 of preorder node 3 (theta=1/6 turns) at N=4")]
        for n_bits, turns, where in cases:
            message = f"conditional count {where} is not an integer: joint amplitude not describable"
            with pytest.raises(NotOnInvariantSet, match=f"^{re.escape(message)}$"):
                multi_sample(n_bits, [ExactAngle(Fraction(t)) for t in turns])
        with pytest.raises(NotOnInvariantSet, match=r"^cos\(theta\) for theta=1/8 turns is irrational$"):
            multi_sample(25, [ExactAngle(Fraction(1, 8))] * 3)  # the amplitude gates are decided at the call
        ms = two_qubit_sample(params_for("1/2", "1/2", "1/2"), 25)
        assert joint_counts(ms) == {o: 1 << 23 for o in range(4)}
        monkeypatch.setattr(multiqubit, "BitString", lambda *args: pytest.fail("a row was built"))
        with pytest.raises(ResourceBound, match=r"^2\*\*25 labels exceed the explicit limit$"):
            ms.rows

    def test_three_qubit_check_counts_the_labels_of_the_rows(self, monkeypatch):
        fill_rows = multiqubit._fill_rows

        def one_label_flipped(n_bits, counts):
            head, *rest = fill_rows(n_bits, counts)
            return (BitString(n_bits, head.bits ^ 1, head.tag), *rest)

        assert checks.three_qubit_vs_expander(6, count=5, seed=3)[0].passed
        monkeypatch.setattr(multiqubit, "_fill_rows", one_label_flipped)
        result = checks.three_qubit_vs_expander(6, count=5, seed=3)[0]
        assert not result.passed and result.detail.startswith("N=6 thetas ")


class TestPastTheLabelLimit:
    """A built sample's joint counts are exact at any N whose counts fit in
    N-bit integers; past the explicit-label limit, each record operation,
    which reads the rows, raises the one ResourceBound."""

    TREE = [TestFillRoute.NIVEN_5[i] for i in (1, 2, 3, 0, 4, 2, 1)]

    @classmethod
    def tree_probabilities(cls, thetas):
        """Per outcome, the product of cos^2 and sin^2 half-angles down its path, in outcome order."""
        first = (1 + cos_exact(thetas[0])) / 2
        if len(thetas) == 1:
            return [first, 1 - first]
        h = len(thetas) // 2
        left, right = cls.tree_probabilities(thetas[1:1 + h]), cls.tree_probabilities(thetas[1 + h:])
        return [first * p for p in left] + [(1 - first) * p for p in right]

    @pytest.mark.parametrize("n_bits", [64, 1000, 10**4])
    def test_bell_counts_equal_the_closed_form_and_the_expander(self, n_bits):
        size, half = 1 << n_bits, 1 << (n_bits - 1)
        for count in (0, 1, size // 8 * 3, half, half + 1, size - 1, size):
            counts = joint_counts(bell_sample_from_amplitude(Fraction(count, size), n_bits))
            lo, hi = min(count, half), max(count, half)
            assert counts == {0b00: lo, 0b01: half - lo, 0b10: size - hi, 0b11: hi - half}
            assert counts[0b00] + counts[0b11] == count and counts[0b00] + counts[0b01] == half
            # the same table as the 2-qubit tree of a balanced head and b's conditional counts
            table = expand_counts([half, 2 * lo, 2 * (size - hi)], [0] * 3, n_bits)
            assert [k for k, _ in table] == [counts[o] << n_bits for o in range(4)]

    @pytest.mark.parametrize("n_bits", [64, 1000, 10**4])
    def test_tree_counts_equal_the_closed_form_and_the_expander(self, n_bits):
        counts = joint_counts(multi_sample(n_bits, self.TREE))
        assert [Fraction(counts[o], 1 << n_bits) for o in range(8)] == self.tree_probabilities(self.TREE)
        table = expand_counts([gate_amplitude(t, n_bits) for t in self.TREE], [0] * 7, n_bits)
        assert [k for k, _ in table] == [counts[o] << (2 * n_bits) for o in range(8)]

    @pytest.mark.parametrize("n_bits", [25, 64])
    @pytest.mark.parametrize("kind", ["bell", "tree"])
    def test_record_operations_raise_the_label_limit(self, n_bits, kind):
        def built():
            if kind == "bell":
                return bell_sample_from_amplitude(Fraction(3, 8), n_bits)
            return multi_sample(n_bits, self.TREE)

        message = rf"^2\*\*{n_bits} labels exceed the explicit limit$"
        reads = [lambda ms: ms.rows, lambda ms: ms == built(), hash, repr, pickle.dumps, copy.copy]
        for read in reads:
            ms = built()
            assert sum(joint_counts(ms).values()) == 1 << n_bits
            with pytest.raises(ResourceBound, match=message):
                read(ms)


class TestAmplitudeExpander:
    def test_probabilities_sum_to_one(self):
        thetas = [THETAS[Fraction(3, 4)], THETAS[Fraction(1, 4)], THETAS[Fraction(1, 2)]]
        table = amplitude_table(thetas, [ZERO] * 3, 6)
        assert sum(p for p, _ in table) == 1

    def test_phase_accumulation(self):
        phis = [ExactAngle(Fraction(1, 8)), ExactAngle(Fraction(1, 16)), ExactAngle(Fraction(5, 16))]
        thetas = [THETAS[Fraction(1, 2)]] * 3
        table = amplitude_table(thetas, phis, 6)
        assert table[0b00][1].turns == 0
        assert table[0b01][1] == phis[1]
        assert table[0b10][1] == phis[0]
        assert table[0b11][1] == phis[0] + phis[2]

    def test_amplitude_table_wraps_the_integer_expander(self):
        rng = random.Random(25)
        for _ in range(300):
            m, n_bits = rng.randint(1, 4), rng.randint(3, 10)
            half = 1 << (n_bits - 1)
            thetas = [rng.choice(TestPinnedTwoQubit.NIVEN_FULL_TURN) for _ in range((1 << m) - 1)]
            phis = [ExactAngle(Fraction(rng.randrange(half), half)) for _ in thetas]
            counts, shifts = [gate_amplitude(t, n_bits) for t in thetas], [gate_phase(p, n_bits) for p in phis]
            expected = [(Fraction(k, 1 << (m * n_bits)), ExactAngle(Fraction(s, half)))
                        for k, s in expand_counts(counts, shifts, n_bits)]
            assert amplitude_table(thetas, phis, n_bits) == expected

    def test_three_qubit_check_reports_a_wrong_count(self, monkeypatch):
        assert checks.three_qubit_vs_expander(6, count=5, seed=3)[0].passed
        realized = multiqubit.joint_counts
        monkeypatch.setattr(multiqubit, "joint_counts", lambda ms: {**realized(ms), 7: realized(ms)[7] + 1})
        result = checks.three_qubit_vs_expander(6, count=5, seed=3)[0]
        assert not result.passed and result.detail.startswith("N=6 thetas ")

    def test_unequal_angle_lists_are_named(self):
        with pytest.raises(ValueError, match="^need equally many amplitude and phase angles$"):
            amplitude_table_mp([Fraction(1, 3)], [])
        with pytest.raises(ValueError, match="^need equally many amplitude and phase angles$"):
            amplitude_table_mp([Fraction(1, 3)] * 3, [Fraction(0)])

    def test_empty_tree_is_refused(self):
        with pytest.raises(ValueError, match=r"^need 2\*\*m - 1 angles$"):
            amplitude_table_mp([], [])

    def test_numeric_expander_matches_exact(self):
        thetas = [THETAS[Fraction(3, 4)], THETAS[Fraction(1, 4)], THETAS[Fraction(1, 2)]]
        phis = [ExactAngle(Fraction(1, 8)), ZERO, ExactAngle(Fraction(3, 8))]
        exact = amplitude_table(thetas, phis, 6)
        numeric = amplitude_table_mp([t.turns for t in thetas], [p.turns for p in phis])
        with mpmath.workprec(240):
            for (prob, phase), amp in zip(exact, numeric):
                assert abs(abs(amp) ** 2 - mpmath.mpf(prob.numerator) / prob.denominator) < mpmath.mpf(2) ** -200
                if prob != 0:
                    angle = mpmath.arg(amp) / (2 * mpmath.pi) % 1
                    target = mpmath.mpf(phase.turns.numerator) / phase.turns.denominator
                    assert min(abs(angle - target), abs(angle - target + 1), abs(angle - target - 1)) < mpmath.mpf(2) ** -200


class TestPinnedTwoQubit:
    """The two-qubit sample and prediction, or their exclusion messages, over
    every Niven amplitude triple on the full turn, a grid of phase triples
    (admissible at every N, from N=5, from N=7, and never) and N in 3..8;
    the digest pins every output and message."""

    NIVEN_FULL_TURN = [ExactAngle(Fraction(t)) for t in ("0", "1/6", "1/4", "1/3", "1/2", "2/3", "3/4", "5/6")]
    PHASE_GRID = [tuple(ExactAngle(Fraction(t)) for t in triple) for triple in (
        ("0", "0", "0"), ("1/4", "0", "1/2"), ("1/8", "1/16", "3/8"), ("3/4", "7/8", "1/2"),
        ("1/3", "0", "0"), ("0", "0", "1/64"))]
    DIGEST = "90c57cb6355578a5f8942538c914e90f721fc3ea67f6029781988a775cf27b68"

    @staticmethod
    def outcome(call) -> str:
        try:
            return repr(call())
        except (NotOnInvariantSet, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"

    def test_outputs_and_messages_digest(self):
        digest = hashlib.sha256()
        for n_bits in (3, 4, 5, 6, 8):
            for thetas in itertools.product(self.NIVEN_FULL_TURN, repeat=3):
                params = TwoQubitParams(*thetas, *self.PHASE_GRID[0])
                digest.update(self.outcome(lambda: two_qubit_sample(params, n_bits)).encode())
                for phis in self.PHASE_GRID:
                    params = TwoQubitParams(*thetas, *phis)
                    digest.update(self.outcome(lambda: two_qubit_predict(params, n_bits)).encode())
        assert digest.hexdigest() == self.DIGEST


class TestPinnedTrees:
    """amplitude_table at m = 1 and m = 3, and the joint counts of the m = 3
    multi_sample as CSV lines, or their exclusion messages, over the Niven
    angles on the full turn (every eighth m = 3 tree with one irrational-cosine angle),
    phase grids admissible from N = 3, from N = 5, from N = 7 or 8, and never,
    and N in 3..8; the digests pin every output and message.  m = 2 is pinned
    by TestPinnedTwoQubit."""

    NIVEN_FULL_TURN = TestPinnedTwoQubit.NIVEN_FULL_TURN
    IRRATIONAL = [ExactAngle(Fraction(t)) for t in ("1/5", "1/8")]
    PHASE_GRIDS = [[ExactAngle(Fraction(t)) for t in ("0", "1/4", "1/2", "3/4", *extra)]
                   for extra in ((), ("1/8", "5/16"), ("31/64", "1/128"), ("1/3",))]
    AMPLITUDE_DIGEST = "32c94b3c927c9c1c2c095c2a28a6bcb4cf6105ad7ae00ae1a0ccab9d9b7a8d53"
    COUNTS_DIGEST = "e461af2c634600fff0ba7e23dcb6c9f1703e9a7e05220db4ed96f0bef97b909f"

    def trees(self, count: int, seed: int):
        rng = random.Random(seed)
        for i in range(count):
            tree = [rng.choice(self.NIVEN_FULL_TURN) for _ in range(7)]
            if i % 8 == 7:
                tree[rng.randrange(7)] = rng.choice(self.IRRATIONAL)
            yield tree

    def test_amplitude_table_digest(self):
        outcome = TestPinnedTwoQubit.outcome
        digest = hashlib.sha256()
        rng = random.Random(8)
        for n_bits in range(3, 9):
            for theta in self.NIVEN_FULL_TURN:
                for phi in itertools.chain(*self.PHASE_GRIDS):
                    digest.update(outcome(lambda: amplitude_table([theta], [phi], n_bits)).encode())
            for thetas in self.trees(200, n_bits):
                for grid in self.PHASE_GRIDS:
                    phis = [rng.choice(grid) for _ in range(7)]
                    digest.update(outcome(lambda: amplitude_table(thetas, phis, n_bits)).encode())
        assert digest.hexdigest() == self.AMPLITUDE_DIGEST

    @staticmethod
    def counts_csv(ms: MultiSample) -> str:
        """Outcome bitmask, count and exact frequency, one CSV line each."""
        lines = ["outcome,count,freq_numerator,freq_denominator\n"]
        for outcome, count in joint_counts(ms).items():
            fr = Fraction(count, ms.size)
            lines.append(f"{outcome},{count},{fr.numerator},{fr.denominator}\n")
        return "".join(lines)

    def test_counts_csv_digest(self):
        outcome = TestPinnedTwoQubit.outcome
        digest = hashlib.sha256()
        for n_bits in range(3, 9):
            for thetas in self.trees(400, 100 + n_bits):
                digest.update(outcome(lambda: self.counts_csv(multi_sample(n_bits, thetas))).encode())
        assert digest.hexdigest() == self.COUNTS_DIGEST
