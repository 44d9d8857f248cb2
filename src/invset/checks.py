"""Named invariant suites behind the ``check`` subcommand, and the invariants
they share with the acceptance suite.

Each shared invariant is one function of its sizes, and of a seed where it
draws random inputs, that returns ``CheckResult`` rows: ``invset check``
calls it at small sizes and ``tests/test_acceptance.py`` at full sizes.  A
failing row's detail names the first input that broke the law.
"""

from __future__ import annotations

import itertools
import os
import random
from collections.abc import Iterable
from fractions import Fraction

from . import dirac, exactmath, multiqubit, padic, samplespace
from .exactmath import ZERO_ANGLE, ExactAngle, _Record

DEFAULT_SEED = 12345

#: Amplitude angles admissible for rational-turn inputs: the exceptional
#: cosine set mapped into [0, pi].
NIVEN_THETAS = [ExactAngle(Fraction(t)) for t in ("0", "1/6", "1/4", "1/3", "1/2")]


class CheckResult(_Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        super().__init__(name, passed, detail)


def _row(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), "" if passed else detail)


def _first_failure(name: str, failures: Iterable[str]) -> CheckResult:
    """A row that passes when ``failures`` yields nothing; otherwise its detail
    is the first failure, and later inputs are not tried."""
    detail = next(iter(failures), "")
    return CheckResult(name, not detail, detail)


def _golden_text(name: str) -> str:
    """A golden file of the ``data`` directory beside this module, read by a
    plain open: ``importlib.resources`` loads ``inspect`` and ``typing`` on
    Python 3.12 and later."""
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as fh:
        return fh.read()


def _random_fraction(rng: random.Random) -> Fraction:
    num = rng.randrange(-90, 91)
    den = rng.randrange(1, 91)
    return Fraction(num, den)


def golden_table() -> list[CheckResult]:
    """The canonical N=4 string table equals the stored golden file, byte for byte."""
    produced = "\n".join(samplespace.rotation_table(4)) + "\n"
    return [_row("golden-table-n4", produced == _golden_text("canonical_table_n4.txt"),
                 "rotation_table(4) differs from the golden file")]


def golden_d2() -> list[CheckResult]:
    """The 2-adic distances d(7, 3) and d(15, 7) equal the stored golden values."""
    produced = "".join(exactmath.fraction_str(padic.padic_dist(a, b, 2)) + "\n" for a, b in ((7, 3), (15, 7)))
    return [_row("d2-examples", produced == _golden_text("padic_d2.txt"),
                 "d(7, 3) or d(15, 7) differs from the golden file")]


def operator_algebra(n_range: Iterable[int], seed: int) -> list[CheckResult]:
    """One row per N: the pair shift is cyclic of order exactly 2^(N-1) on the
    canonical string, the quarter turn has order 4 and its square negates a
    seeded random string, one quarter turn of the canonical string is the pair
    shift by 2^(N-3), and the canonical string has fraction 1/2."""
    rng = random.Random(seed)
    rows = []
    for n_bits in n_range:
        base = samplespace.canonical_string(n_bits)
        length = 1 << n_bits
        half = length >> 1
        raw = samplespace.BitString(n_bits, rng.getrandbits(length), "a", None)
        laws = {
            "pair_shift(base, 2^(N-1)) == base": samplespace.pair_shift(base, half) == base,
            "quarter_turn(raw, 4) == raw": samplespace.quarter_turn(raw, 4) == raw,
            "quarter_turn(raw, 2) negates raw": samplespace.quarter_turn(raw, 2).bits == raw.bits ^ ((1 << length) - 1),
            "quarter_turn(base, 1) == pair_shift(base, 2^(N-3))":
                samplespace.quarter_turn(base, 1) == samplespace.pair_shift(base, 1 << (n_bits - 3)),
            "fraction(base) == 1/2": samplespace.fraction(base) == Fraction(1, 2),
            "pair_shift(base, 2^(N-2)) != base": samplespace.pair_shift(base, half >> 1) != base,
        }
        rows.append(_first_failure(f"operator-algebra-N{n_bits}", (law for law, ok in laws.items() if not ok)))
    return rows


def padic_laws(count: int, levels: int, seed: int) -> list[CheckResult]:
    """The 2-adic golden distances, then per p in (2, 3, 5): the ultrametric
    inequality and the multiplicativity of the norm, each on ``count``
    seeded rational inputs whose p is drawn with them, and the prefix law at
    every level below ``levels``: two p-adic integers that first differ in
    digit ell are 1/p^ell apart and share their level-ell Cantor interval
    but not their level-(ell+1) one."""
    rows = golden_d2()
    rng = random.Random(seed)
    primes = (2, 3, 5)
    first: dict[str, str] = {}  # row name -> the first input that broke its law
    for _ in range(count):
        p = rng.choice(primes)
        a, b, c = _random_fraction(rng), _random_fraction(rng), _random_fraction(rng)
        if padic.padic_dist(a, c, p) > max(padic.padic_dist(a, b, p), padic.padic_dist(b, c, p)):
            first.setdefault(f"ultrametric-p{p}", f"a={a} b={b} c={c}")
    for _ in range(count):
        p = rng.choice(primes)
        x, y = _random_fraction(rng), _random_fraction(rng)
        if padic.padic_norm(x * y, p) != padic.padic_norm(x, p) * padic.padic_norm(y, p):
            first.setdefault(f"norm-multiplicativity-p{p}", f"x={x} y={y}")
    for p in primes:
        for ell in range(levels):
            digits_a = [rng.randrange(p) for _ in range(ell + 2)]
            digits_b = list(digits_a)
            digits_b[ell] = (digits_a[ell] + rng.randrange(1, p)) % p
            za, zb = padic.PadicInt(p, tuple(digits_a)), padic.PadicInt(p, tuple(digits_b))
            if (padic.padic_dist(za.value(), zb.value(), p) != Fraction(1, p**ell)
                    or padic.interval_for(za, ell) != padic.interval_for(zb, ell)
                    or padic.interval_for(za, ell + 1) == padic.interval_for(zb, ell + 1)):
                first.setdefault(f"prefix-law-p{p}", f"digits {digits_a} and {digits_b}")
    names = [f"{law}-p{p}" for p in primes for law in ("ultrametric", "norm-multiplicativity", "prefix-law")]
    return rows + [_row(name, name not in first, first.get(name, "")) for name in names]


def two_qubit_gamma_table(n_range: Iterable[int]) -> list[CheckResult]:
    """One row per N: for every triple of Niven amplitude angles, the joint
    frequencies of the two-qubit sample equal the gamma-table probabilities."""

    def failures(n_bits: int) -> Iterable[str]:
        for t1, t2, t3 in itertools.product(NIVEN_THETAS, repeat=3):
            params = multiqubit.TwoQubitParams(t1, t2, t3, ZERO_ANGLE, ZERO_ANGLE, ZERO_ANGLE)
            freqs = multiqubit.joint_frequencies(multiqubit.two_qubit_sample(params, n_bits))
            if [freqs[o] for o in range(4)] != list(multiqubit.two_qubit_predict(params, n_bits).probs):
                yield f"thetas {t1.turns}, {t2.turns}, {t3.turns}"

    return [_first_failure(f"two-qubit-gamma-table-N{n_bits}", failures(n_bits)) for n_bits in n_range]


def bell_agreement_correlation(n_bits: int, stride: int) -> list[CheckResult]:
    """For every ``stride``-th describable amplitude a at N, the Bell sample's
    agreement is exactly a and its correlation exactly 2a - 1: the closed form chsh reports.
    Its joint counts also equal the counts of its rows' labels."""

    def failures() -> Iterable[str]:
        for count in range(0, (1 << n_bits) + 1, stride):
            amp = Fraction(count, 1 << n_bits)
            ms = multiqubit.bell_sample_from_amplitude(amp, n_bits)
            labelled = multiqubit.joint_counts(multiqubit.MultiSample(n_bits, ms.rows))
            if multiqubit.bell_statistics(ms) != (amp, 2 * amp - 1) or multiqubit.joint_counts(ms) != labelled:
                yield f"N={n_bits} amplitude {amp}"

    return [_first_failure("bell-agreement-correlation", failures())]


def three_qubit_vs_expander(n_bits: int, count: int | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """The joint counts of the three-qubit sample at N, over 2**N, equal the
    inductive amplitude expander's numerators, over 2**(3N), and the counts
    of its rows' labels, for every one of the 5^7 trees of Niven amplitude
    angles when ``count`` is None, else for ``count`` trees drawn from
    ``random.Random(seed)``.  The comparison is on integers; the Fractions
    that joint_frequencies and amplitude_table wrap around them are compared
    by two_qubit_gamma_table."""
    angles = range(len(NIVEN_THETAS))  # a tree is drawn as indices into NIVEN_THETAS
    if count is None:
        picks = itertools.product(angles, repeat=7)
    else:
        rng = random.Random(seed)
        picks = ([rng.choice(angles) for _ in range(7)] for _ in range(count))

    def failures() -> Iterable[str]:
        gated = [exactmath.gate_amplitude(t, n_bits) for t in NIVEN_THETAS]
        no_shifts = [0] * 7
        for pick in picks:
            tree = [NIVEN_THETAS[i] for i in pick]
            ms = multiqubit.multi_sample(n_bits, tree)
            counts = multiqubit.joint_counts(ms)
            labelled = multiqubit.joint_counts(multiqubit.MultiSample(n_bits, ms.rows))
            table = multiqubit.expand_counts([gated[i] for i in pick], no_shifts, n_bits)
            if counts != labelled or [counts[o] << (2 * n_bits) for o in range(8)] != [k for k, _ in table]:
                yield f"N={n_bits} thetas " + ", ".join(str(t.turns) for t in tree)

    return [_first_failure("three-qubit-vs-expander", failures())]


def skeleton_matches_gamma(n_bits: int) -> list[CheckResult]:
    """On every axis, the one-step evolution matrix at N has the gamma matrix's skeleton."""
    return [_first_failure("skeleton-matches-gamma", (
        f"axis {axis}" for axis in range(4)
        if dirac.evolution_matrix(axis, 1, n_bits).skeleton(1) != dirac.gamma_pattern(axis)))]


def rest_period(n_range: Iterable[int]) -> list[CheckResult]:
    """One row per N: the rest step has period exactly 2^(N-1) on the default spinor."""
    rows = []
    for n_bits in n_range:
        psi = dirac.spinor(n_bits)
        half = 1 << (n_bits - 1)
        laws = {"rest_step(psi, 2^(N-1)) == psi": dirac.rest_step(psi, half).components == psi.components,
                "rest_step(psi, 2^(N-2)) != psi": dirac.rest_step(psi, half >> 1).components != psi.components}
        rows.append(_first_failure(f"rest-period-N{n_bits}", (law for law, ok in laws.items() if not ok)))
    return rows


def dispersion_3_4_5() -> list[CheckResult]:
    """Mass 3 at wavevector (4, 0, 0) has the exact frequency 5."""
    omega = dirac.dispersion_check(3, (4, 0, 0)).omega
    return [_row("dispersion-3-4-5", omega == 5, f"omega = {omega}")]


def pythagorean_empty() -> list[CheckResult]:
    """No exponent k in 1..12 has a Pythagorean witness."""
    return [_first_failure("pythagorean-empty-k1-12",
                           (f"k={k}" for k in range(1, 13) if exactmath.pythagorean_solutions(k)))]


def rational_cosine_grid(n_max: int) -> list[CheckResult]:
    """Niven's theorem on every angle m*pi/n with n <= ``n_max``, in integers.
    At a/b turns in lowest terms, y = 2cos(2 pi a/b) has D_k(y) = 2cos(2 pi k a/b)
    for the Dickson recurrence D_0 = 2, D_1 = y, D_(k+1) = y D_k - D_(k-1).  So b
    is the least k >= 1 with D_k(y) = 2, and y is a root of the monic integer
    polynomial D_b(y) - 2: by the rational root theorem a rational y is an
    integer c in [-2, 2].  ``cos_exact`` must give c/2 for the c whose least k
    is b, and None where there is none.  (D_b(c) = 2 alone passes c = 2 at b = 5.)"""
    cosine_of_order = {}  # least k with D_k(c) = 2 -> c/2
    for c in range(-2, 3):
        prev, cur, k = 2, c, 1
        while cur != 2:  # periodic for these five c, of period 1, 6, 4, 3 or 2
            prev, cur, k = cur, c * cur - prev, k + 1
        cosine_of_order[k] = Fraction(c, 2)

    def failures() -> Iterable[str]:
        for n in range(1, n_max + 1):
            for m in range(0, 2 * n):
                angle = ExactAngle(Fraction(m, 2 * n))  # the angle m*pi/n
                if exactmath.cos_exact(angle) != cosine_of_order.get(angle.turns.denominator):
                    yield f"m={m} n={n}"

    return [_first_failure(f"rational-cosine-grid-n{n_max}", failures())]


def suite_algebra(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rows = golden_table() + operator_algebra(range(3, 13), seed)
    # phase composition: shifting a phase string adds to the shadow phase
    n_bits = 8
    phi = ExactAngle(Fraction(3, 1 << (n_bits - 1)))
    shifted = samplespace.pair_shift(samplespace.phase_string(n_bits, phi), 5)
    shadow = samplespace.hilbert_shadow(shifted)
    rows.append(_row("shadow-phase-additivity", shadow.phase_turns == Fraction(8, 1 << (n_bits - 1))))
    return rows


def suite_padic(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rows = padic_laws(6000, 9, seed)
    iv = padic.cantor_iterates(2, 1)
    rows.append(
        _row(
            "cantor-ternary-level1",
            [(i.left, i.right) for i in iv] == [(Fraction(0), Fraction(1, 3)), (Fraction(2, 3), Fraction(1))],
        )
    )
    probe = padic.euclid_padic_probe(padic.PadicInt.from_int(1, 2, 4), Fraction(5, 4))
    rows.append(_row("euclid-padic-probe", probe.padic_gap == 4 and probe.euclid_gap == Fraction(1, 4)))
    return rows


def suite_multiqubit(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rows = two_qubit_gamma_table((4, 6)) + bell_agreement_correlation(8, 8) + three_qubit_vs_expander(6, 50, seed)
    rng = random.Random(seed)
    ok_norm = True
    for _ in range(200):
        t1, t2, t3 = (rng.choice(NIVEN_THETAS) for _ in range(3))
        params = multiqubit.TwoQubitParams(t1, t2, t3, ZERO_ANGLE, ZERO_ANGLE, ZERO_ANGLE)
        ok_norm &= sum(multiqubit.two_qubit_predict(params, 10).probs) == 1
    rows.append(_row("gamma-normalization", ok_norm))
    return rows


def suite_dirac(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rows = skeleton_matches_gamma(6) + rest_period(range(3, 13)) + dispersion_3_4_5()
    disp2 = dirac.dispersion_check(1, (1, 0, 0))
    rows.append(_row("dispersion-irrational-flag", disp2.omega is None and disp2.omega_sq == 2))
    psi = dirac.spinor(6, mass=1)
    ok_rest = dirac.full_evolve(psi, 3, 7, 7, 7).components == dirac.rest_step(psi, 3).components
    rows.append(_row("zero-wavevector-reduces-to-rest", ok_rest))
    return rows


def suite_numbertheory(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rows = pythagorean_empty() + rational_cosine_grid(40)
    rows.append(
        _row(
            "describability-examples",
            exactmath.is_describable(Fraction(3, 8), 3)
            and not exactmath.is_describable(Fraction(1, 3), 30)
            and not exactmath.is_describable(Fraction(3, 8), 2),
        )
    )
    v = exactmath.simultaneous_describability(Fraction(3, 4), Fraction(1, 2), 2)
    rows.append(_row("addition-obstruction", v.excluded and v.reason == exactmath.REASON_IRRATIONAL_SINE))
    return rows


SUITES = {
    "algebra": suite_algebra,
    "padic": suite_padic,
    "multiqubit": suite_multiqubit,
    "dirac": suite_dirac,
    "numbertheory": suite_numbertheory,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    if name == "all":
        rows: list[CheckResult] = []
        for suite in SUITES.values():
            rows.extend(suite(seed))
        return rows
    return SUITES[name](seed)
