"""Expected outputs computed without importing invset.

Every check here is written from the mathematics the program implements, not
from its code: a hand-written Niven table for cos^2(theta/2), label strings
rebuilt as text from the canonical block pattern, Cantor endpoints as
integers over (2p-1)^L, and p-adic distances from an integer valuation loop.
Each check returns None when the output is right and a one-line reason when
it is not.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

# cos(2*pi*t) for the rational turns t where it is rational (Niven's theorem).
NIVEN_COS = {
    Fraction(0): Fraction(1),
    Fraction(1, 6): Fraction(1, 2),
    Fraction(1, 4): Fraction(0),
    Fraction(1, 3): Fraction(-1, 2),
    Fraction(1, 2): Fraction(-1),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(3, 4): Fraction(0),
    Fraction(5, 6): Fraction(1, 2),
}


def cos2_half(turns: Fraction) -> Fraction:
    """cos^2(theta/2) = (1 + cos theta)/2 for a Niven angle theta."""
    return (1 + NIVEN_COS[turns % 1]) / 2


def frac_text(x: Fraction) -> str:
    """The program's rational format: lowest terms, always with a slash."""
    return f"{x.numerator}/{x.denominator}"


def parse_frac(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def tree_probabilities(turns: list[Fraction]) -> list[Fraction]:
    """Joint outcome probabilities of a full binary tree of amplitude angles.

    The head angle splits on row 0 (outcome bit 0 = first regime, weight
    cos^2); the left subtree continues the first regime, the right subtree
    the negated one.  Outcome index: row 0 most significant.
    """
    a = cos2_half(turns[0])
    if len(turns) == 1:
        return [a, 1 - a]
    h = (len(turns) - 1) // 2
    left = tree_probabilities(turns[1 : 1 + h])
    right = tree_probabilities(turns[1 + h :])
    return [a * p for p in left] + [(1 - a) * p for p in right]


def check_frequencies(freqs: dict, turns: list[Fraction]) -> str | None:
    want = tree_probabilities(turns)
    got = [freqs.get(o) for o in range(len(want))]
    if len(freqs) != len(want) or got != want:
        return f"joint frequencies {got} != {want}"
    return None


def check_two_qubit(freqs: dict, predicted_probs, phases, op: dict) -> str | None:
    t1, t2, t3 = (Fraction(t) for t in op["thetas"])
    a1, a2, a3 = cos2_half(t1), cos2_half(t2), cos2_half(t3)
    want = [a1 * a2, a1 * (1 - a2), (1 - a1) * a3, (1 - a1) * (1 - a3)]
    if [freqs.get(o) for o in range(4)] != want or len(freqs) != 4:
        return f"2-qubit frequencies {freqs} != {want}"
    if list(predicted_probs) != want:
        return f"2-qubit prediction {predicted_probs} != {want}"
    p1, p2, p3 = (Fraction(x) for x in op["phis"])
    want_phases = [Fraction(0), p2 % 1, p1 % 1, (p1 + p3) % 1]
    if [ph.turns for ph in phases] != want_phases:
        return f"2-qubit phases {[ph.turns for ph in phases]} != {want_phases}"
    return None


def check_bell(counts: dict, count: int, n_bits: int) -> str | None:
    """Agreement (outcomes 00 and 11) is the amplitude count; the head is
    balanced; counts cover all 2^N labels."""
    size = 1 << n_bits
    if sum(counts.values()) != size or len(counts) != 4:
        return f"Bell counts {counts} do not cover {size} labels"
    if counts[0] + counts[3] != count:
        return f"Bell agreement {counts[0] + counts[3]} != {count}"
    if counts[0] + counts[1] != size // 2:
        return f"Bell head marginal {counts[0] + counts[1]} != {size // 2}"
    return None


def canonical_text(n_bits: int) -> str:
    """All-first block followed by its first, second and third quarter-turns;
    a quarter-turn maps each label pair (x, y) to (not-y, x)."""
    q = 1 << (n_bits - 2)
    return "0" * q + "10" * (q // 2) + "1" * q + "01" * (q // 2)


def sample_text(n_bits: int, theta: Fraction, phi: Fraction) -> str:
    """The string at amplitude theta and phase phi: the canonical string
    rotated left by phi*2^(N-1) label pairs, then the first occurrences of
    one label flipped until cos^2(theta/2)*2^N labels are 0."""
    length = 1 << n_bits
    half = length // 2
    r = int(phi * half) % half
    base = canonical_text(n_bits)
    text = base[2 * r :] + base[: 2 * r]
    zeros = int(cos2_half(theta) * length)
    if zeros >= half:
        return text.replace("1", "0", zeros - half)
    return text.replace("0", "1", half - zeros)


def check_sample_report(report: dict, csv_bytes: bytes | None, n_bits: int, theta: Fraction,
                        phi: Fraction) -> str | None:
    """Sample report: exact label string (when present), descriptor rotation
    phi*2^(N-1), a zero count of cos^2(theta/2)*2^N, and the derived
    fractions."""
    length = 1 << n_bits
    half = length // 2
    zeros = cos2_half(theta) * length
    rotation = int(phi * half) % half
    if report.get("n_bits") != n_bits:
        return f"n_bits {report.get('n_bits')} != {n_bits}"
    desc = report.get("descriptor", {})
    if desc.get("rotation") != rotation or desc.get("theta_count") != zeros:
        return f"descriptor {desc} != rotation {rotation}, count {zeros}"
    if report["fraction"] != frac_text(Fraction(int(zeros), length)):
        return f"fraction {report['fraction']} != {zeros}/{length}"
    shadow = report.get("shadow", {})
    if shadow.get("phase_turns") != frac_text(Fraction(rotation, half)):
        return f"phase_turns {shadow.get('phase_turns')} != {rotation}/{half}"
    if "string" not in report:
        return None if length > 1 << 24 else "report has no label string"
    text = report["string"]
    if len(text) != length or text.count("0") != zeros:
        return f"string of length {len(text)} with {text.count('0')} zeros != {length}, {zeros}"
    if text != sample_text(n_bits, theta, phi):
        return "label string differs from the expected construction"
    if csv_bytes is not None and csv_bytes != f"name,labels\nsample,{text}\n".encode():
        return "report.csv differs from the label string"
    return None


def check_rotation_table(report: dict, n_bits: int) -> str | None:
    base = canonical_text(n_bits)
    want = [base[2 * n :] + base[: 2 * n] for n in (0, 1, 2, 4)]
    if report.get("strings") != want:
        return "rotation table differs from the pair-shifted canonical string"
    return None


def check_bits(bits: int, n_bits_got: int, n_bits: int, text: str) -> str | None:
    """A parsed string: label j is bit j."""
    if n_bits_got != n_bits or bits != int(text[::-1], 2):
        return "parsed labels differ from the report string"
    return None


S_TOLERANCE = Fraction(1, 1 << 10)


def check_chsh(report: dict) -> str | None:
    """S within 2^-10 of 2*sqrt(2) (compared by squaring), every
    counterfactual cell excluded."""
    s = Fraction(*parse_frac(report["s_value"]))
    if not (s - S_TOLERANCE) ** 2 <= 8 <= (s + S_TOLERANCE) ** 2:
        return f"S = {report['s_value']} is not within 2^-10 of 2*sqrt(2)"
    matrix = report["admissibility"]
    for actual, row in matrix.items():
        for other, cell in row.items():
            want = "actual" if other == actual else "excluded"
            if cell.get("verdict") != want:
                return f"admissibility[{actual}][{other}] = {cell.get('verdict')} != {want}"
    if len(matrix) != 4 or any(len(row) != 4 for row in matrix.values()):
        return "admissibility matrix is not 4x4"
    return None


def mz_expectation(mode: str, phi: Fraction, n_bits: int) -> dict | None:
    """Detector probabilities, or None when the run must be excluded
    (which-way needs phi*2^(N-1) integral; interference needs a rational
    cosine with (1+cos)/2 a multiple of 2^-N)."""
    if mode == "which_way":
        if (phi * (1 << (n_bits - 1))).denominator != 1:
            return None
        return {"D_b": Fraction(1, 2), "D_not_b": Fraction(1, 2)}
    c = NIVEN_COS.get(phi % 1)
    if c is None or (((1 + c) / 2) * (1 << n_bits)).denominator != 1:
        return None
    return {"D_c": (1 + c) / 2, "D_not_c": (1 - c) / 2}


def check_mz(report: dict, want: dict) -> str | None:
    got = {k: Fraction(*parse_frac(v)) for k, v in report["probabilities"].items()}
    if got != want:
        return f"mz probabilities {got} != {want}"
    return None


def check_dirac(report: dict, op: dict) -> str | None:
    """Rest-frame trace: components 1-2 advance and 3-4 retreat n_t pair
    shifts per step; every component stays balanced."""
    n_bits, n_t = op["n_bits"], op["steps"][0]
    half = 1 << (n_bits - 1)
    mass = Fraction(op["mass"])
    if report["omega_sq"] != frac_text(mass * mass) or report["physical"] is not True:
        return f"omega_sq {report['omega_sq']} != {mass * mass} or not physical"
    if len(report["trace"]) != op["trace_length"] + 1:
        return f"trace has {len(report['trace'])} steps"
    for entry in report["trace"]:
        step = entry["step"]
        for comp in entry["components"]:
            sign = 1 if comp["component"] <= 2 else -1
            turns = Fraction((sign * step * n_t) % half, half)
            if comp["first_count"] != half or comp["phase_turns"] != frac_text(turns):
                return f"step {step} component {comp['component']}: {comp} != {turns}, {half}"
    return None


def cantor_left_numerators(p: int, level: int) -> list[int]:
    """Left endpoints times (2p-1)^level, paths in lexicographic order: digit
    c at depth k contributes 2c/(2p-1)^(k+1)."""
    q = 2 * p - 1
    nums = [0]
    for _ in range(level):
        nums = [n * q + 2 * c for n in nums for c in range(p)]
    return nums


def check_cantor(intervals: list, p: int, level: int) -> str | None:
    nums = cantor_left_numerators(p, level)
    scale = (2 * p - 1) ** level
    if len(intervals) != len(nums):
        return f"{len(intervals)} Cantor intervals != {len(nums)}"
    for i, (iv, num) in enumerate(zip(intervals, nums)):
        ln, ld = parse_frac(iv["left"])
        rn, rd = parse_frac(iv["right"])
        if ln * scale != num * ld or rn * scale != (num + 1) * rd or iv["level"] != level:
            return f"interval {i} [{iv['left']}, {iv['right']}] != [{num}, {num + 1}]/{scale}"
        path, k = iv["path"], i
        for d in reversed(path):
            if d != k % p:
                return f"interval {i} path {path} is out of lexicographic order"
            k //= p
    return None


def _ord(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def padic_distance(a: str, b: str, p: int) -> str:
    """|a - b|_p as 'num/den', from the valuations of the unreduced
    difference's numerator and denominator."""
    an, ad = parse_frac(a)
    bn, bd = parse_frac(b)
    num, den = an * bd - bn * ad, ad * bd
    if num == 0:
        return "0/1"
    v = _ord(abs(num), p) - _ord(den, p)
    return f"1/{p ** v}" if v >= 0 else f"{p ** -v}/1"


def check_padic(report: dict, csv_bytes: bytes | None, op: dict) -> str | None:
    p = op["p"]
    if report.get("p") != p:
        return f"p {report.get('p')} != {p}"
    for (a, b), d in zip(op["pairs"], report["distances"]):
        want = padic_distance(a, b, p)
        if d["distance"] != want:
            return f"d_{p}({a}, {b}) = {d['distance']} != {want}"
    if len(report["distances"]) != len(op["pairs"]):
        return "distance count differs from the pair count"
    if not math.isclose(report["similarity_dimension_float"], math.log(p) / math.log(2 * p - 1), rel_tol=1e-12):
        return "similarity dimension differs from log p / log(2p-1)"
    rows = "".join(f"{a},{b},{padic_distance(a, b, p)}\n" for a, b in op["pairs"])
    if csv_bytes is not None and csv_bytes != ("a,b,distance\n" + rows).encode():
        return "report.csv differs from the distances"
    if "cantor_level" in op:
        reason = check_cantor(report.get("cantor_intervals", []), p, op["cantor_level"])
        if reason:
            return reason
    if "probe" in op:
        digits, (kn, kd) = op["probe"]["a_digits"], parse_frac(op["probe"]["b_off"])
        a_value = sum(d * p**i for i, d in enumerate(digits))
        gap = Fraction(a_value) - Fraction(kn, kd)
        probe = report["probe"]
        if probe["a_value"] != a_value or probe["euclid_gap"] != frac_text(abs(gap)):
            return f"probe {probe} != a_value {a_value}, gap {abs(gap)}"
        if probe["padic_gap"] != padic_distance(str(a_value), op["probe"]["b_off"], p):
            return f"probe padic_gap {probe['padic_gap']} is wrong"
    return None


def report_digest(files: dict[str, bytes]) -> str:
    """output_sha256 as the manifest defines it: SHA-256 over each report
    file's name, a zero byte and its bytes, in name order."""
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode() + b"\0" + files[name])
    return digest.hexdigest()
