import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invset.exactmath import ResourceBound, fraction_str
from invset.padic import (
    MILLER_RABIN_LIMIT,
    CantorInterval,
    PadicInt,
    cantor_iterates,
    cantor_map,
    cantor_numerators,
    euclid_padic_probe,
    interval_for,
    interval_for_path,
    is_prime,
    ord_p,
    padic_dist,
    padic_norm,
    require_cantor_size,
    similarity_dimension,
)


def rand_fraction(rng, bound=80):
    return Fraction(rng.randrange(-bound, bound + 1), rng.randrange(1, bound + 1))


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        assert [n for n in range(10**5) if is_prime(n) != trial_division(n)] == []

    @pytest.mark.parametrize(
        "n",
        [
            2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,  # strong pseudoprimes
            341550071728321, 3825123056546413051, 318665857834031151167461,
            561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,  # Carmichael numbers
            (2**61 - 1) * 1_000_003,
        ],
    )
    def test_rejects_pseudoprimes_and_carmichael_numbers(self, n):
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [1_000_003, 1_000_000_007, 2**61 - 1, 2**64 - 59])
    def test_accepts_large_primes(self, n):
        assert is_prime(n)

    def test_the_least_strong_pseudoprime_to_all_bases_is_a_resource_bound(self):
        # 3317044064679887385961981 is composite and passes every base, so it
        # and everything above it without a small factor is refused, not guessed.
        with pytest.raises(ResourceBound):
            is_prime(MILLER_RABIN_LIMIT)
        with pytest.raises(ResourceBound):
            is_prime(2**89 - 1)
        assert not is_prime(MILLER_RABIN_LIMIT + 1)  # even: decided by a base


class TestOrder:
    def test_integer_examples(self):
        assert ord_p(8, 2) == 3
        assert ord_p(Fraction(1, 2), 2) == -1
        assert ord_p(Fraction(18, 5), 3) == 2  # 18 = 2 * 3^2, 5 coprime to 3

    def test_zero_is_infinite(self):
        assert ord_p(0, 5) == math.inf
        assert padic_norm(0, 5) == 0

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            ord_p(10, 6)
        with pytest.raises(ValueError):
            padic_dist(1, 2, 9)


class TestMetric:
    def test_displayed_distances(self):
        assert padic_dist(1 + 2 + 4, 1 + 2, 2) == Fraction(1, 4)
        assert padic_dist(1 + 2 + 4 + 8, 1 + 2 + 4, 2) == Fraction(1, 8)

    def test_identity(self):
        assert padic_dist(Fraction(22, 7), Fraction(22, 7), 3) == 0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_ultrametric_inequality(self, p):
        rng = random.Random(100 + p)
        for _ in range(3000):
            a, b, c = (rand_fraction(rng) for _ in range(3))
            assert padic_dist(a, c, p) <= max(padic_dist(a, b, p), padic_dist(b, c, p))

    @pytest.mark.parametrize("p", [2, 3, 5, 1_000_003, 1_000_000_007])
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_dist_is_the_norm_of_the_difference(self, p, data):
        # padic_dist works on integer valuations; padic_norm of the Fraction difference is the reference
        def rational():
            return st.builds(lambda n, d, e: Fraction(n, d) * Fraction(p) ** e,
                             st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(-3, 3))

        a = data.draw(rational())
        b = data.draw(st.one_of(st.just(a), st.builds(lambda x: -x, st.just(a)), rational(),
                                st.builds(lambda x, e: a + x * Fraction(p) ** e, rational(), st.integers(0, 4))))
        for x, y in ((a, b), (b, a), (int(a), b), (a, int(b))):
            assert padic_dist(x, y, p) == padic_norm(Fraction(x) - Fraction(y), p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_norm_multiplicative(self, p):
        rng = random.Random(200 + p)
        for _ in range(3000):
            x, y = rand_fraction(rng), rand_fraction(rng)
            assert padic_norm(x * y, p) == padic_norm(x, p) * padic_norm(y, p)


class TestPadicInt:
    def test_digit_validation(self):
        with pytest.raises(ValueError):
            PadicInt(3, (0, 3))
        with pytest.raises(ValueError):
            PadicInt(3, ())

    def test_from_int_round_trip(self):
        z = PadicInt.from_int(11, 2, 6)
        assert z.digits == (1, 1, 0, 1, 0, 0)
        assert z.value() == 11

    @pytest.mark.parametrize("p", [2, 3, 13, 1_000_003])
    def test_value_is_the_digit_sum(self, p):
        rng = random.Random(p)
        for precision in (1, 2, 7, 40, 300):
            digits = tuple(rng.randrange(p) for _ in range(precision))
            assert PadicInt(p, digits).value() == sum(d * p**k for k, d in enumerate(digits))

    def test_equality_up_to_shared_precision(self):
        a = PadicInt(2, (1, 0, 1))
        b = PadicInt(2, (1, 0, 1, 1, 0))
        assert a.shared_prefix(b) == min(a.precision, b.precision)  # equal up to the shared precision
        assert a.shared_prefix(PadicInt(2, (1, 1, 1))) == 1


class TestCantor:
    def test_map_examples(self):
        assert cantor_map(PadicInt(2, (0, 0, 0))) == 0
        assert cantor_map(PadicInt(2, (1, 0, 0))) == Fraction(2, 3)
        assert cantor_map(PadicInt(2, (1, 1))) == Fraction(8, 9)  # 2/3 + 2/9

    def test_ternary_level_one(self):
        iv = cantor_iterates(2, 1)
        assert [(i.left, i.right) for i in iv] == [
            (Fraction(0), Fraction(1, 3)),
            (Fraction(2, 3), Fraction(1)),
        ]

    def test_level_zero_is_unit_interval(self):
        (iv,) = cantor_iterates(2, 0)
        assert (iv.left, iv.right) == (0, 1)

    def test_p3_level_one(self):
        iv = cantor_iterates(3, 1)
        assert [i.left for i in iv] == [Fraction(0), Fraction(2, 5), Fraction(4, 5)]
        assert all(i.right - i.left == Fraction(1, 5) for i in iv)

    @pytest.mark.parametrize("p,k", [(2, 5), (3, 4), (5, 3), (4, 3)])
    def test_counts_widths_nesting(self, p, k):
        iv = cantor_iterates(p, k)
        assert len(iv) == p**k
        assert all(i.right - i.left == Fraction(1, (2 * p - 1) ** k) for i in iv)
        assert all(Fraction(0) <= i.left and i.right <= 1 for i in iv)
        for i in iv:
            parent = interval_for_path(p, i.path[:-1])
            assert parent.left <= i.left and i.right <= parent.right

    def test_similarity_dimension(self):
        assert similarity_dimension(2) == pytest.approx(math.log(2) / math.log(3))
        assert similarity_dimension(1000) < 1

    def test_resource_bound(self):
        with pytest.raises(ResourceBound):
            cantor_iterates(2, 25)
        with pytest.raises(ResourceBound, match=r"^3\*\*13 intervals exceed the bound 1048576$"):
            cantor_numerators(3, 13)
        assert len(cantor_numerators(2, 20)) == 1 << 20
        require_cantor_size(3, 12)
        require_cantor_size(1_000_003, 0)
        with pytest.raises(ResourceBound, match=r"^2\*\*1000000000 intervals exceed the bound 1048576$"):
            require_cantor_size(2, 10**9)
        with pytest.raises(ValueError):
            require_cantor_size(3, -1)

    @pytest.mark.parametrize("p,level", [(2, 0), (2, 7), (3, 4), (4, 3), (13, 2)])
    def test_numerators_are_the_path_numerators(self, p, level):
        paths = itertools.product(range(p), repeat=level)
        assert cantor_numerators(p, level) == [interval_for_path(p, path).numerator for path in paths]

    @pytest.mark.parametrize("p,levels", [(2, range(0, 9)), (3, range(0, 6)), (5, range(0, 4)), (7, range(0, 3))])
    def test_iterates_are_the_path_intervals(self, p, levels):
        # reference: left endpoints summed term by term, 2c_k/(2p-1)^(k+1)
        q = 2 * p - 1
        for level in levels:
            iterates = cantor_iterates(p, level)
            paths = list(itertools.product(range(p), repeat=level))
            assert iterates == [interval_for_path(p, path) for path in paths]
            assert [i.record() for i in iterates] == [interval_for_path(p, path).record() for path in paths]
            for i, path in zip(iterates, paths):
                left = sum((Fraction(2 * c, q ** (k + 1)) for k, c in enumerate(path)), Fraction(0))
                assert (i.left, i.right) == (left, left + Fraction(1, q**level))

    @pytest.mark.parametrize("p,level", [(2, 8), (3, 5), (5, 3), (7, 3)])
    def test_record_endpoints_are_the_term_sums(self, p, level):
        # reference: both endpoints summed term by term, written by fraction_str
        q = 2 * p - 1
        for i in cantor_iterates(p, level):
            left = sum((Fraction(2 * c, q ** (k + 1)) for k, c in enumerate(i.path)), Fraction(0))
            record = i.record()
            assert (record["left"], record["right"]) == (fraction_str(left), fraction_str(left + Fraction(1, q**level)))
            assert (record["p"], record["level"], record["path"]) == (p, level, list(i.path))

    def test_map_is_the_left_endpoint_of_its_interval(self):
        rng = random.Random(47)
        for p in (2, 3, 5, 7):
            for precision in range(1, 9):
                z = PadicInt(p, tuple(rng.randrange(p) for _ in range(precision)))
                assert cantor_map(z) == interval_for(z, z.precision).left

    def test_map_lands_in_its_interval(self):
        rng = random.Random(31)
        for p in (2, 3, 5):
            for _ in range(50):
                digits = tuple(rng.randrange(p) for _ in range(8))
                z = PadicInt(p, digits)
                iv = interval_for(z, z.precision)
                assert iv.left <= cantor_map(z) <= iv.right

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_prefix_law(self, p):
        # sharing exactly l leading digits <=> d_p = p^-l <=> same level-l interval
        rng = random.Random(500 + p)
        for ell in range(0, 13):
            digits_a = [rng.randrange(p) for _ in range(ell + 2)]
            digits_b = list(digits_a)
            digits_b[ell] = (digits_a[ell] + rng.randrange(1, p)) % p
            za, zb = PadicInt(p, tuple(digits_a)), PadicInt(p, tuple(digits_b))
            assert za.shared_prefix(zb) == ell
            assert padic_dist(za.value(), zb.value(), p) == Fraction(1, p**ell)
            iv = interval_for(za, ell)
            assert iv == interval_for(zb, ell)
            assert interval_for(za, ell + 1) != interval_for(zb, ell + 1)
            assert iv.left <= cantor_map(zb) <= iv.right


class TestProbe:
    def test_examples(self):
        r = euclid_padic_probe(PadicInt.from_int(1, 2, 4), Fraction(1, 2))
        assert r.padic_gap == 2

        r = euclid_padic_probe(PadicInt.from_int(1, 2, 4), Fraction(5, 4))
        assert r.padic_gap == 4  # ord_2(-1/4) = -2
        assert r.euclid_gap == Fraction(1, 4)

        r = euclid_padic_probe(PadicInt.from_int(3, 5, 4), Fraction(16, 5))
        assert r.padic_gap == 5  # ord_5(-1/5) = -1

    def test_lower_bound_always_p(self):
        rng = random.Random(77)
        for p in (2, 3, 5):
            for _ in range(100):
                a = PadicInt.from_int(rng.randrange(0, 200), p, 6)
                b_off = Fraction(rng.randrange(1, 50) * p + rng.randrange(1, p), p ** rng.randrange(1, 4))
                if ord_p(b_off, p) >= 0:
                    continue
                r = euclid_padic_probe(a, b_off)
                assert r.padic_gap >= p
                assert r.record()["padic_gap_lower_bound"] == p

    def test_precondition(self):
        with pytest.raises(ValueError):
            euclid_padic_probe(PadicInt.from_int(1, 2, 4), Fraction(3, 1))

    def test_record_serialization(self):
        r = euclid_padic_probe(PadicInt.from_int(1, 2, 4), Fraction(5, 4))
        rec = r.record()
        assert rec["padic_gap"] == "4/1"
        assert rec["euclid_gap"] == "1/4"
        iv = interval_for_path(2, (1, 0))
        assert iv.record() == {"p": 2, "level": 2, "path": [1, 0], "left": "2/3", "right": "7/9"}
