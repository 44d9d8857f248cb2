"""Bit-string sample spaces over a two-outcome regime alphabet and the
permutation operators that realize complex roots of unity on them.

A string holds 2**N labels from {first regime, negated regime}; serialized,
the first label is the leftmost character, 0 for the first regime and 1 for
its negation.  Internally labels are packed into one arbitrary-precision int
(bit j = label j), so rotations, pairwise quarter-turns, negation, selection
masks and label counts are all word-level operations.

Two operators act on strings:

* ``pair_shift`` rotates the labels left in pairs; 2**(N-1) shifts are the
  identity, so shifts realize the 2**(N-1)-th roots of unity.
* ``quarter_turn`` maps each adjacent pair (x, y) to (not-y, x); two
  applications negate every label and four are the identity, so it realizes
  the imaginary unit.

On the canonical string (four concatenated blocks generated from an all-first
block by repeated quarter-turns) one quarter-turn equals 2**(N-3) pair-shifts,
which ties the two groups together and lets a phase of n/2**(N-1) turns act as
n pair-shifts.  Amplitudes enter by flipping the first occurrences of one
label in the constructed order; the resulting first-label fraction is exactly
cos^2(theta/2) whenever that value is describable by N bits.  Parameters that
fail a describability gate raise NotOnInvariantSet - they are never rounded.

A constructed string carries only its orbit descriptor; a raw string (read
from text or composed) carries its packed labels.  Operators take the
descriptor route wherever it decides the result, so phase strings, negations
and label counts work at any N.  Labels are built only where they are read:
``to_text``, composition, and operators on raw or amplitude-flipped strings.
That first read and ``multiqubit.multi_sample`` check the explicit-label
limit (2**24 labels) through one helper, ``require_explicit``.

Every value is immutable and every operation pure, so parameter sweeps are
embarrassingly parallel and merge deterministically.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache

from .exactmath import ExactAngle, ResourceBound, _Record, _set, gate_amplitude, gate_phase

EXPLICIT_LABEL_LIMIT = 1 << 24
TABLE_SHIFTS = (0, 1, 2, 4)  # the pair-shifts rotation_table lists


class OrbitDescriptor(_Record):
    """Compact construction record: expanding it reproduces the string.

    ``rotation`` counts pair-shifts applied to the canonical string (mod
    2**(N-1)); ``first_count`` is the number of first-regime labels after the
    amplitude flips.
    """

    __slots__ = ("n_bits", "rotation", "first_count")

    def __init__(self, n_bits: int, rotation: int, first_count: int) -> None:
        rotation %= 1 << (n_bits - 1)
        if not 0 <= first_count <= (1 << n_bits):
            raise ValueError("first_count out of range")
        _set(self, "n_bits", n_bits)
        _set(self, "rotation", rotation)
        _set(self, "first_count", first_count)

    def record(self) -> dict:
        return {"n_bits": self.n_bits, "rotation": self.rotation, "theta_count": self.first_count}


class BitString(_Record):
    """An ordered string of 2**n_bits two-valued labels.

    Exactly one of ``packed`` (the packed label int of a raw string) and
    ``descriptor`` (the construction record of a constructed string) is set,
    so strings with the same labels, tag and descriptor compare equal however
    they were built.  ``tag`` names the regime pair, e.g. "a" for regimes
    a / not-a.  The labels ``bits`` are kept outside the fields, in the
    instance ``__dict__``.
    """

    __slots__ = ("n_bits", "packed", "tag", "descriptor", "__dict__")

    def __init__(self, n_bits: int, packed: int | None, tag: str = "a",
                 descriptor: OrbitDescriptor | None = None) -> None:
        if n_bits < 3:
            raise ValueError("n_bits must be >= 3 so quarter-turns are pair-shift powers")
        if (packed is None) == (descriptor is None):
            raise ValueError("a string carries either packed labels or a descriptor")
        if packed is not None:
            if packed < 0 or packed.bit_length() > 1 << n_bits:
                raise ValueError("packed labels out of range")
            _set(self, "bits", packed)  # a raw string's labels are read as they are
        _set(self, "n_bits", n_bits)
        _set(self, "packed", packed)
        _set(self, "tag", tag)
        _set(self, "descriptor", descriptor)

    @property
    def size(self) -> int:
        return 1 << self.n_bits

    def __repr__(self) -> str:  # labels shown as ``bits``, the name pinned digests of reprs hash
        return (f"BitString(n_bits={self.n_bits!r}, bits={self.packed!r}, tag={self.tag!r}, "
                f"descriptor={self.descriptor!r})")

    @cached_property
    def bits(self) -> int:
        """The packed labels (bit j = label j); a constructed string's are
        built from its descriptor on first read and kept."""
        require_explicit(self.n_bits)
        d, length = self.descriptor, self.size
        bits = _rot_left(_canonical_bits(self.n_bits), 2 * d.rotation, length)
        if d.first_count >= length >> 1:
            return bits ^ _lowest_set_mask(bits, d.first_count - (length >> 1))
        return bits | _lowest_set_mask(bits ^ full_mask(length), (length >> 1) - d.first_count)


def require_explicit(n_bits: int) -> None:
    """Raise ResourceBound when 2**n_bits labels exceed EXPLICIT_LABEL_LIMIT:
    the one check on every path that builds labels.  2**n_bits is not built."""
    if n_bits >= EXPLICIT_LABEL_LIMIT.bit_length():
        raise ResourceBound(f"2**{n_bits} labels exceed the explicit limit")


# Masks are cached per string length: lengths are powers of two, and labels
# are built only up to EXPLICIT_LABEL_LIMIT, so each cache holds a few MB at most.
@lru_cache(maxsize=None)
def full_mask(length: int) -> int:
    """All length bits set, built once per length."""
    return (1 << length) - 1


@lru_cache(maxsize=None)
def even_mask(length: int) -> int:
    """Bits 0, 2, 4, ... of a length-bit word, built once per length."""
    return full_mask(length) // 3


@lru_cache(maxsize=None)
def _canonical_bits(n_bits: int) -> int:
    quarter = 1 << (n_bits - 2)
    evens = ((1 << quarter) - 1) // 3
    ones = (1 << quarter) - 1
    return (evens << quarter) | (ones << (2 * quarter)) | ((evens << 1) << (3 * quarter))


def _rot_left(bits: int, labels: int, length: int) -> int:
    s = labels % length
    if s == 0:
        return bits
    return (bits >> s) | ((bits << (length - s)) & full_mask(length))


def _quarter_once(bits: int, length: int) -> int:
    even = even_mask(length)
    return (((bits >> 1) ^ full_mask(length)) & even) | ((bits & even) << 1)


_MASK_BLOCK = 2048  # bytes of x counted per popcount in _lowest_set_mask


def _lowest_set_mask(x: int, k: int) -> int:
    """Mask of the k lowest set bits of x: a binary search on prefix popcount
    inside the block of _MASK_BLOCK bytes that holds the k-th set bit, found
    by one popcount per block from the low end."""
    if k == 0:
        return 0
    block, offset = x, 0
    if x.bit_length() > 8 * _MASK_BLOCK:
        data = memoryview(x.to_bytes((x.bit_length() + 7) // 8, "little"))
        for start in range(0, len(data), _MASK_BLOCK):
            block = int.from_bytes(data[start : start + _MASK_BLOCK], "little")
            count = block.bit_count()
            if count >= k:
                break
            k -= count
        else:
            raise ValueError("fewer set bits than requested")
        offset = 8 * start
    elif x.bit_count() < k:
        raise ValueError("fewer set bits than requested")
    lo, hi = 1, block.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (block & ((1 << mid) - 1)).bit_count() >= k:
            hi = mid
        else:
            lo = mid + 1
    return x & ((1 << (offset + lo)) - 1)


def canonical_string(n_bits: int, tag: str = "a") -> BitString:
    """The canonical string: all-first block, then its first, second and third
    quarter-turns, concatenated.  Exactly half the labels are the first
    regime, and one quarter-turn equals 2**(n_bits-3) pair-shifts on it."""
    return sample_from_counts(n_bits, 1 << (n_bits - 1), 0, tag)


def sample_from_counts(n_bits: int, first_count: int, rotation: int = 0, tag: str = "a") -> BitString:
    """The constructed string with the given rotation and first-label count:
    the canonical string rotated by ``rotation`` pair-shifts, then the first
    occurrences of one label flipped until ``first_count`` labels are the
    first regime.  Only the descriptor is stored; ``bits`` builds the labels."""
    return BitString(n_bits, None, tag, OrbitDescriptor(n_bits, rotation, first_count))


def first_label_count(s: BitString) -> int:
    d = s.descriptor
    return d.first_count if d is not None else s.size - s.bits.bit_count()


def fraction(s: BitString) -> Fraction:
    """Probability that a randomly chosen label is the first regime: exact
    count over 2**N."""
    return Fraction(first_label_count(s), s.size)


def pair_shift(s: BitString, n: int = 1) -> BitString:
    """Rotate labels left by 2n positions (n pair-steps); order 2**(N-1)."""
    d = s.descriptor
    if d is not None and d.first_count in (0, s.size):
        return s  # constant string: rotation is invisible
    if d is not None and d.first_count == s.size >> 1:
        return sample_from_counts(s.n_bits, d.first_count, d.rotation + n, s.tag)
    # amplitude-flipped strings do not commute with rotation: the result is raw
    return BitString(s.n_bits, _rot_left(s.bits, 2 * (n % (s.size >> 1)), s.size), s.tag, None)


def negate(s: BitString) -> BitString:
    """Flip every label; equals two quarter-turns and 2**(N-2) pair-shifts."""
    d = s.descriptor
    if d is None:
        return BitString(s.n_bits, s.bits ^ full_mask(s.size), s.tag, None)
    return sample_from_counts(s.n_bits, s.size - d.first_count, d.rotation + (1 << (s.n_bits - 2)), s.tag)


def quarter_turn(s: BitString, n: int = 1) -> BitString:
    """Apply the pairwise (x, y) -> (not-y, x) operator n times.

    Order four; two applications negate the string.  On canonical-derived
    phase strings one application equals 2**(N-3) pair-shifts.
    """
    q = n % 4
    if q >= 2:
        s = negate(s)
        q -= 2
    if q == 0:
        return s
    if s.descriptor is not None and s.descriptor.first_count == s.size >> 1:
        return pair_shift(s, 1 << (s.n_bits - 3))
    return BitString(s.n_bits, _quarter_once(s.bits, s.size), s.tag, None)


def phase_string(n_bits: int, phi: ExactAngle, tag: str = "a") -> BitString:
    """The canonical string advanced by the phase phi.

    Admissible phases have phi (as a fraction of a full turn) equal to
    n/2**(N-1): exactly the phases whose exponential the pair-shift group can
    realize.
    """
    return sample_from_counts(n_bits, 1 << (n_bits - 1), gate_phase(phi, n_bits), tag)


def sample(n_bits: int, theta: ExactAngle, phi: ExactAngle) -> BitString:
    """The string whose first-label fraction is cos^2(theta/2) at phase phi.

    Starting from the phase string, the first 2**(N-1)cos(theta) negated
    labels are flipped to the first regime when 0 <= theta <= pi/2, and the
    first -2**(N-1)cos(theta) first-regime labels are flipped the other way
    when pi/2 <= theta <= pi.  Gates: cos^2(theta/2) must be describable by N
    bits and the phase by N-1 bits.
    """
    return sample_from_counts(n_bits, gate_amplitude(theta, n_bits), gate_phase(phi, n_bits))


class HilbertShadow(_Record):
    """Exact parameters of the unit vector a constructed string corresponds
    to: cos(theta/2)|first> + e^(i phi) sin(theta/2)|negated>.
    ``phase_relevant`` is False for the pure states theta = 0, pi."""

    __slots__ = ("amplitude_sq", "phase_turns", "phase_relevant")  # cos^2(theta/2), phi in turns


def hilbert_shadow(s: BitString) -> HilbertShadow:
    """Read the Hilbert-vector parameters off a constructed string.

    The correspondence is an injection from constructions, not a surjection
    from raw strings: strings without an orbit descriptor are rejected.
    """
    d = s.descriptor
    if d is None:
        raise ValueError("raw string: no Hilbert correspondence without a construction descriptor")
    return HilbertShadow(
        amplitude_sq=Fraction(d.first_count, s.size),
        phase_turns=Fraction(d.rotation, s.size >> 1),
        phase_relevant=d.first_count not in (0, s.size),
    )


def to_text(s: BitString) -> str:
    """Serialize: one character per label, first label leftmost, 0 = first
    regime, 1 = negated."""
    return format(s.bits, f"0{s.size}b")[::-1]


def from_text(line: str) -> BitString:
    line = line.strip()
    length = len(line)
    n_bits = length.bit_length() - 1
    if length != 1 << n_bits or n_bits < 3:
        raise ValueError("line length must be 2**N with N >= 3")
    # int(..., 2) alone would also accept "_", a sign and non-ASCII digits
    if line.count("0") + line.count("1") != length:
        raise ValueError("labels must be 0 or 1")
    return BitString(n_bits, int(line[::-1], 2))


def rotation_table(n_bits: int) -> list[str]:
    """Serialized canonical string and its pair-shifts by TABLE_SHIFTS."""
    base = canonical_string(n_bits)
    return [to_text(pair_shift(base, n)) for n in TABLE_SHIFTS]
