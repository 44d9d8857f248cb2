"""p-adic valuation, norm and metric on rationals; truncated p-adic integers;
the digit-wise homeomorphism onto the Cantor set C(p); distance probes.

C(p) is the Cantor set whose level-k iterate splits each interval into 2p-1
equal pieces and keeps every second one (p pieces); its similarity dimension
is log p / log(2p-1).  A truncated p-adic integer maps into C(p) by sending
digit a_k to the term 2*a_k/(2p-1)^(k+1).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .exactmath import RationalLike, ResourceBound, _Record, _set, fraction_str

CANTOR_ITERATE_BOUND = 1 << 20  # max number of intervals of an iterate that is listed or written

Infinity = math.inf


#: The first 13 primes: as Miller-Rabin bases they decide primality exactly
#: below MILLER_RABIN_LIMIT (Sorenson & Webster 2015), the least n that is a
#: strong pseudoprime to all of them.
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality, exact for every p below
    MILLER_RABIN_LIMIT or with a factor among the bases; any other p raises
    ResourceBound rather than get a probable answer.  Miller-Rabin runs once
    per p; later calls look its verdict up."""
    if p < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    if p >= MILLER_RABIN_LIMIT:
        raise ResourceBound(f"primality of {p} is decided exactly only below {MILLER_RABIN_LIMIT}")
    return _miller_rabin(p)


@lru_cache(maxsize=1024)
def _miller_rabin(p: int) -> bool:
    """True iff odd p, coprime to the bases and below MILLER_RABIN_LIMIT, is a
    strong probable prime to every base, which there means prime."""
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime; the p-adic metric needs a prime")


def _int_ord(n: int, p: int) -> int:
    k = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        k += 1
    return k


def ord_p(x: RationalLike, p: int):
    """The p-adic order: highest power of p dividing x (ord of a minus ord of
    b for x = a/b); +infinity for x = 0."""
    _require_prime(p)
    fr = Fraction(x)
    if fr == 0:
        return Infinity
    return _int_ord(fr.numerator, p) - _int_ord(fr.denominator, p)


def padic_norm(x: RationalLike, p: int) -> Fraction:
    """|x|_p = p**(-ord_p(x)) = d_p(x, 0); 0 for x = 0."""
    return padic_dist(Fraction(x), 0, p)


def padic_dist(a: RationalLike, b: RationalLike, p: int) -> Fraction:
    """The ultrametric d_p(a, b) = |a - b|_p, exact, for ints or Fractions
    a = r/s and b = t/u: ord_p(a - b) = ord_p(r*u - t*s) - ord_p(s) - ord_p(u)."""
    _require_prime(p)
    s, u = a.denominator, b.denominator
    difference = a.numerator * u - b.numerator * s
    if not difference:
        return Fraction(0)
    o = _int_ord(difference, p) - _int_ord(s, p) - _int_ord(u, p)
    return Fraction(1, p**o) if o >= 0 else Fraction(p ** (-o))


class PadicInt(_Record):
    """A base-p digit sequence a_0..a_{K-1}, truncated at precision K.

    Results that depend on digits are K-truncations; equality is compared only
    up to the shared precision.
    """

    __slots__ = ("p", "digits")

    def __init__(self, p: int, digits: tuple[int, ...]) -> None:
        _require_prime(p)
        if len(digits) < 1:
            raise ValueError("at least one digit required")
        if any(not 0 <= d < p for d in digits):
            raise ValueError(f"digits must lie in 0..{p - 1}")
        super().__init__(p, tuple(digits))

    @property
    def precision(self) -> int:
        return len(self.digits)

    @classmethod
    def from_int(cls, n: int, p: int, precision: int = 16) -> "PadicInt":
        _require_prime(p)
        n %= p**precision
        digits = []
        for _ in range(precision):
            n, d = divmod(n, p)
            digits.append(d)
        return cls(p, tuple(digits))

    def value(self) -> int:
        """The truncated integer sum(a_k * p**k), by Horner's rule from the
        last digit."""
        n = 0
        for d in reversed(self.digits):
            n = n * self.p + d
        return n

    def shared_prefix(self, other: "PadicInt") -> int:
        if self.p != other.p:
            raise ValueError("mixed primes")
        n = min(self.precision, other.precision)
        for i in range(n):
            if self.digits[i] != other.digits[i]:
                return i
        return n


def _left_numerator(q: int, path: Iterable[int]) -> int:
    """Numerator over q**len(path) of sum 2*c_k/q**(k+1), by Horner's rule:
    each digit maps n to q*n + 2c."""
    n = 0
    for c in path:
        n = q * n + 2 * c
    return n


def cantor_map(z: PadicInt) -> Fraction:
    """K-digit truncation of the homeomorphism into C(p).

    Returns sum over k < K of 2*a_k/(2p-1)^(k+1); the image lies in the
    level-K interval selected by the digits.
    """
    q = 2 * z.p - 1
    return Fraction(_left_numerator(q, z.digits), q**z.precision)


class CantorInterval(_Record):
    """A level-k interval of C(p), addressed by its digit path: the interval
    [n/q**k, (n+1)/q**k] for q = 2p-1 and the left numerator n."""

    __slots__ = ("p", "level", "path", "numerator")

    def __init__(self, p: int, level: int, path: tuple[int, ...], numerator: int) -> None:
        _set(self, "p", p)  # an iterate builds up to CANTOR_ITERATE_BOUND of these
        _set(self, "level", level)
        _set(self, "path", path)
        _set(self, "numerator", numerator)

    @property
    def left(self) -> Fraction:
        return Fraction(self.numerator, (2 * self.p - 1) ** self.level)

    @property
    def right(self) -> Fraction:
        return Fraction(self.numerator + 1, (2 * self.p - 1) ** self.level)

    def record(self) -> dict:
        """JSON-serializable record with exact endpoints, each in lowest
        terms as ``fraction_str`` writes it."""
        n, den = self.numerator, (2 * self.p - 1) ** self.level
        g, h = math.gcd(n, den), math.gcd(n + 1, den)
        return {
            "p": self.p,
            "level": self.level,
            "path": list(self.path),
            "left": f"{n // g}/{den // g}",
            "right": f"{(n + 1) // h}/{den // h}",
        }


def interval_for_path(p: int, path: Iterable[int]) -> CantorInterval:
    path = tuple(path)
    if any(not 0 <= c < p for c in path):
        raise ValueError(f"path entries must lie in 0..{p - 1}")
    return CantorInterval(p, len(path), path, _left_numerator(2 * p - 1, path))


def interval_for(z: PadicInt, level: int) -> CantorInterval:
    """The level-l interval containing the image of z (l <= precision)."""
    if level > z.precision:
        raise ValueError("level exceeds the stored precision")
    return interval_for_path(z.p, z.digits[:level])


def require_cantor_size(p: int, level: int) -> None:
    """Raise ResourceBound when the p**level intervals of the level-th iterate
    exceed CANTOR_ITERATE_BOUND: the one check before any interval is listed or written.
    p >= 2 here need not be prime: the keep-every-second-subinterval
    construction is pure geometry."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if level < 0:
        raise ValueError("level must be >= 0")
    # p**level >= 2**level > the bound once level >= its bit length: no need to compute p**level
    if level >= CANTOR_ITERATE_BOUND.bit_length() or p**level > CANTOR_ITERATE_BOUND:
        raise ResourceBound(f"{p}**{level} intervals exceed the bound {CANTOR_ITERATE_BOUND}")


def cantor_numerators(p: int, level: int) -> list[int]:
    """The left numerators over (2p-1)**level of all p**level intervals of the
    level-th iterate, in path-lexicographic order."""
    require_cantor_size(p, level)
    q = 2 * p - 1
    numerators = [0]
    for _ in range(level):  # the Horner step of _left_numerator, for every path at once
        numerators = [q * n + 2 * c for n in numerators for c in range(p)]
    return numerators


def cantor_iterates(p: int, level: int) -> list[CantorInterval]:
    """All p**level intervals of the level-th iterate, in the order of
    cantor_numerators."""
    numerators = cantor_numerators(p, level)
    return [CantorInterval(p, level, path, n) for path, n in zip(product(range(p), repeat=level), numerators)]


class _CantorArray(_Record):
    """The intervals of the level-th Cantor iterate as a report value: the
    writer gives it the JSON text of ``[iv.record() for iv in
    cantor_iterates(p, level)]`` without building an interval, a record or
    the list of all p**level numerators: _cantor_text renders it from the
    numerators of path heads and tails, by the gcd rule stated there."""

    __slots__ = ("p", "level")

    def pieces(self, newline: str):
        return _cantor_text(self, newline)


def _digit_paths(p: int, digits: range, newline: str) -> list[str]:
    """JSON text of every path of the given digit positions, in
    lexicographic order, without the closing bracket: position 0 opens the
    list, each later one follows a comma."""
    texts = [""]
    for k in digits:
        sep = ("[" if k == 0 else ",") + newline
        texts = [text + sep + str(c) for text in texts for c in range(p)]
    return texts


def _heads(p: int, h: int, newline: str):
    """(left numerator, path text) of every path of h digits, as
    cantor_numerators and _digit_paths list them, from the p**(h - 1)
    prefixes of the first h - 1 digits: a path's last digit is added as the
    path is read."""
    if not h:
        return [(0, "")]
    q, sep = 2 * p - 1, ("[" if h == 1 else ",") + newline
    prefixes = zip(cantor_numerators(p, h - 1), _digit_paths(p, range(h - 1), newline))
    return ((q * n + 2 * c, f"{path}{sep}{c}") for n, path in prefixes for c in range(p))


def _tail_gcd(m: int, qt: int, q: int) -> int:
    """gcd(m, qt) for qt = q**t when every prime of q divides qt // gcd(m, qt),
    which makes it gcd(H * qt + m, q**level) for every head H (see
    _cantor_text); else 0.  No prime's exponent in q reaches q.bit_length(),
    so q divides that power of qt // gcd(m, qt) exactly when every prime does."""
    g = math.gcd(m, qt)
    return 0 if pow(qt // g, q.bit_length(), q) else g


def _cantor_text(array: _CantorArray, newline: str):
    """The JSON text of `array` on a line whose newline and indent are
    `newline`, in pieces of whole intervals: as many as fit in
    report.PIECE_BYTES at the widest text an interval of this p and level
    can have (at least one).

    A path is a head of level - t digits and a tail of the last t = level // 2,
    so with q = 2p - 1 its left numerator over q**level is n = H * q**t + m,
    H and m the head's and the tail's numerators: only the numerators and path
    texts of the p**t tails and the p**(level - t - 1) head prefixes are
    listed (see _heads).  The gcd rule: if 0 < m and every prime r of q has
    v_r(m) < v_r(q**t), then gcd(n, q**level) = gcd(m, q**t) for every head,
    as v_r(H * q**t) >= v_r(q**t) > v_r(m) gives v_r(n) = v_r(m).
    _tail_gcd decides the condition; it holds for every 0 < m < q**t when q is
    a prime power.  The right endpoint is the same with m + 1.  A tail that
    passes for both carries its divisors and "/den" texts, so each of its
    intervals formats two integers; the others (for a prime power q, m = 0
    and m + 1 = q**t) take both gcds per interval.  Each interval's text ends
    with the comma that would follow it, so a piece is one join of its
    intervals; the last interval's comma gives way to the closing bracket."""
    from .report import PIECE_BYTES  # here, not at the top: `import invset` loads no report writer

    p, level = array.p, array.level
    q, t = 2 * p - 1, level // 2
    den, qt = q**level, q**t
    item, key = newline + "  ", newline + "    "
    sep = "," + item
    left, right = "{" + key + '"left": "', "," + key + '"right": "'
    fields, end = f'",{key}"level": {level},{key}"p": {p},{key}"path": ', '"' + item + "}" + sep
    close = key + "]" if level else "[]"
    tails = []  # (m, left divisor, left text after n, path close, right divisor, right text after n + 1)
    for m, path in zip(cantor_numerators(p, t), _digit_paths(p, range(level - t, level), key + "  ")):
        g, h = _tail_gcd(m, qt, q), _tail_gcd(m + 1, qt, q)
        if not (g and h):
            g = h = 0  # depends on the head: both gcds per interval
        tails.append((m, g, f"/{den // g}{fields}" if g else "", path + close + right,
                      h, f"/{den // h}{end}" if h else ""))
    # an endpoint's text is at most that of den/den, and a head's path text at most that of digits p - 1;
    # a piece holds whole runs of a head's tails
    width = len(left + fields + end) + 2 * len(f"{den}/{den}") + (level - t) * len(f",{key}  {p - 1}") + \
        max(len(tail[3]) for tail in tails)
    per_piece = max(1, PIECE_BYTES // width)
    step = min(len(tails), per_piece)
    runs = [tails[i:i + step] for i in range(0, len(tails), step)]
    gcd, parts = math.gcd, ["[" + item]
    for head_numerator, head in _heads(p, level - t, key + "  "):
        base = head_numerator * qt
        for run in runs:
            if len(parts) + len(run) > per_piece:
                yield "".join(parts)
                parts.clear()
            for m, g, after_left, path, h, after_right in run:
                n = base + m
                if g:
                    parts.append(f"{left}{n // g}{after_left}{head}{path}{(n + 1) // h}{after_right}")
                else:
                    g, h = gcd(n, den), gcd(n + 1, den)
                    parts.append(f"{left}{n // g}/{den // g}{fields}{head}{path}{(n + 1) // h}/{den // h}{end}")
    parts[-1] = parts[-1][:-len(sep)] + newline + "]"
    yield "".join(parts)


def similarity_dimension(p: int) -> float:
    """log p / log(2p-1); tends to 1 from below as p grows."""
    return math.log(p) / math.log(2 * p - 1)


class ProbeReport(_Record):
    """Euclid-close versus p-adically-far demonstration record."""

    __slots__ = ("p", "a_value", "b_off", "euclid_gap", "padic_gap")

    def record(self) -> dict:
        return {
            "p": self.p,
            "a_value": self.a_value,
            "b_off": fraction_str(self.b_off),
            "euclid_gap": fraction_str(self.euclid_gap),
            "padic_gap": fraction_str(self.padic_gap),
            "padic_gap_lower_bound": self.p,  # d_p >= p, which euclid_padic_probe guarantees
        }


def euclid_padic_probe(a: PadicInt, b_off: RationalLike) -> ProbeReport:
    """Compare Euclidean and p-adic gaps between a p-adic integer and a point
    outside the p-adic integers.

    Precondition: ord_p(b_off) < 0, so b_off is a p-adic rational that is not
    a p-adic integer; then d_p(a, b_off) >= p always, however small the
    Euclidean gap on the coordinate line.  (No inverse map from arbitrary unit
    interval rationals is assumed; the probe works in p-adic coordinates.)
    """
    b = Fraction(b_off)
    if ord_p(b, a.p) >= 0:
        raise ValueError(f"ord_{a.p}({b}) >= 0: probe point must lie outside the p-adic integers")
    av = a.value()
    euclid = abs(Fraction(av) - b)
    padic = padic_dist(av, b, a.p)
    return ProbeReport(a.p, av, b, euclid, padic)
