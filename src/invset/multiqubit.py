"""Composition of aligned bit strings into m-qubit sample spaces, exact joint
frequency tables, and the parameter correspondence with 2-qubit states.

The conditional rule is literal: row b takes its label from one source string
where the head label is the first regime and from the other where it is
negated.  The statistical assumptions behind the correspondence (head string
independent of the sources) are realized constructively: each node of the
tree fills the label interval its branch occupies proportionally, so every
joint frequency equals its amplitude-squared prediction as an exact rational.
A tree is refused with NotOnInvariantSet exactly when some joint probability
is not a multiple of 2**-N: some node's conditional count, 2**N times the
probability of an outcome prefix, is then not an integer.

Each joint count of a tree is the length of one leaf interval of that fill,
so a sample ``multi_sample`` builds keeps those lengths: its joint counts are
read from the fill, and its rows of labels are built from the same fill only
when they are read.  The Bell samples keep their joint counts in closed form
and build their rows, by the Bell construction, also only when read.  So
both run at any N whose counts fit in N-bit integers; the explicit-label
limit is checked where rows are built.  A sample made from given rows
(``compose_pair``, ``MultiSample(n_bits, rows)``) counts its labels.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from itertools import accumulate

from .exactmath import (
    ZERO_ANGLE,
    ExactAngle,
    NotOnInvariantSet,
    _Record,
    _set,
    gate_amplitude,
    gate_phase,
    is_describable,
)
from .samplespace import (
    BitString,
    canonical_string,
    first_label_count,
    full_mask,
    require_explicit,
    sample_from_counts,
)

_DEFAULT_TAGS = "abcdefgh"


class MultiSample(_Record):
    """m aligned bit strings of common length 2**N realizing an m-qubit
    sample space; row 1 is the independent source.

    A sample ``multi_sample`` or a Bell sample builds holds its joint counts
    and how its rows are made from them (the tree fill or the Bell
    construction) instead of its rows: the rows are built on first read,
    where the explicit-label limit is checked, and then kept, so it equals,
    hashes and pickles as ``MultiSample(n_bits, rows)``.
    """

    __slots__ = ("n_bits", "rows", "__dict__")
    _counts: dict[int, int] | None = None  # a built sample's joint counts, in its instance __dict__
    _rows_of: Callable[[int, dict[int, int]], tuple[BitString, ...]]  # set with _counts

    def __init__(self, n_bits: int, rows: tuple[BitString, ...]) -> None:
        if not rows:
            raise ValueError("at least one row required")
        for r in rows:
            if r.n_bits != n_bits:
                raise ValueError("row length mismatch")
        _set(self, "n_bits", n_bits)
        _set(self, "rows", tuple(rows))

    def __getattr__(self, name: str):
        """Reached only for a field not set: the rows of a built sample,
        refused with ResourceBound past the explicit-label limit."""
        if name != "rows" or self._counts is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        require_explicit(self.n_bits)
        _set(self, "rows", self._rows_of(self.n_bits, self._counts))
        return self.rows

    @property
    def size(self) -> int:
        return 1 << self.n_bits


def _built(n_bits: int, counts: dict[int, int], rows_of: Callable) -> MultiSample:
    """The sample of joint counts `counts` whose rows are ``rows_of(n_bits,
    counts)``, built when first read."""
    ms = MultiSample.__new__(MultiSample)
    _set(ms, "n_bits", n_bits)
    _set(ms, "_counts", counts)
    _set(ms, "_rows_of", rows_of)
    return ms


def _fill_rows(n_bits: int, counts: dict[int, int]) -> tuple[BitString, ...]:
    """The rows whose joint cells, side by side from label 0 in outcome
    order, have the lengths ``counts``: row i is negated on the runs of
    2**(m-1-i) outcomes whose bit for row i is set."""
    cells = list(counts.values())
    m = len(cells).bit_length() - 1
    ends = [0, *accumulate(cells)]
    rows = []
    for row in range(m):
        run = 1 << (m - 1 - row)
        bits = 0
        for start in range(run, len(cells), 2 * run):
            bits |= ((1 << (ends[start + run] - ends[start])) - 1) << ends[start]
        rows.append(BitString(n_bits, bits, _DEFAULT_TAGS[row] if row < len(_DEFAULT_TAGS) else f"q{row}"))
    return tuple(rows)


def _select(mask: int, where_first: int, where_negated: int, full: int) -> int:
    return (where_first & (mask ^ full)) | (where_negated & mask)


def compose_pair(sa: BitString, sb1: BitString, sb2: BitString) -> MultiSample:
    """Reduce three strings to two: b_i = sb1_i where sa_i is the first
    regime, else sb2_i."""
    if not sa.n_bits == sb1.n_bits == sb2.n_bits:
        raise ValueError("length mismatch")
    # The composed row is generally not a single-angle construction; it stays
    # one only in the degenerate equal-sources case.
    row_b = sb1 if sb1.bits == sb2.bits else BitString(
        sa.n_bits, _select(sa.bits, sb1.bits, sb2.bits, full_mask(sa.size)), sb1.tag, None)
    return MultiSample(sa.n_bits, (sa, row_b))


def joint_counts(ms: MultiSample) -> dict[int, int]:
    """Exact outcome counts over the 2**m joint outcomes.

    Outcome index: bit per row, row 0 most significant, 0 = first regime.
    Counts sum to 2**N.  Each row but the last splits every cell of the rows
    above it into its first-regime and negated part, so cells stay in outcome
    order.  The last row's split is only counted: a cell's first-regime count
    is its count less its negated part's, and no more than 2**(m-1) cells of
    2**N bits are alive at once.  A built sample (multi_sample's, or a Bell
    sample) already holds its counts.
    """
    built = ms._counts
    if built is not None:
        return built.copy()
    full = full_mask(1 << ms.n_bits)
    *heads, last = ms.rows
    cells = [full]
    for row in heads:
        bits, first = row.bits, row.bits ^ full
        cells = [part for cell in cells for part in (cell & first, cell & bits)]
    counts: dict[int, int] = {}
    for cell in cells:
        negated = (cell & last.bits).bit_count()
        counts[len(counts)] = cell.bit_count() - negated
        counts[len(counts)] = negated
    return counts


def joint_frequencies(ms: MultiSample) -> dict[int, Fraction]:
    """joint_counts over 2**N, one Fraction per distinct count."""
    counts = joint_counts(ms)
    size = ms.size
    freqs = {c: Fraction(c, size) for c in set(counts.values())}
    return {o: freqs[c] for o, c in counts.items()}


def marginal(ms: MultiSample, row: int) -> Fraction:
    return Fraction(first_label_count(ms.rows[row]), ms.size)


def row_descriptor_status(ms: MultiSample) -> list[bool]:
    """Which rows still carry a single-angle construction descriptor.

    Composed rows generally cannot be written as one amplitude-phase
    construction; this diagnostic exposes the reconstruction failure."""
    return [r.descriptor is not None for r in ms.rows]


def _realize(thetas: Sequence[ExactAngle], counts: Sequence[int], m: int, n_bits: int) -> dict[int, int]:
    """Joint counts, in outcome order, of the tree `counts` (preorder, gated
    from `thetas`) over 2**n_bits labels.  Each node fills the label interval
    [lo, hi) of its branch: its first counts[i]*(hi - lo)/2**n_bits labels are
    the first regime, its left subtree fills that share and its right subtree
    the rest, so a joint count is the length of a leaf interval.  Nodes are
    visited in preorder, so the node refused is the first in preorder whose
    share is not an integer, and the leaves come in outcome order."""
    cells: dict[int, int] = {}
    low_bits = (1 << n_bits) - 1
    pending = [(0, 1 << n_bits, 0)]  # (lo, hi, depth) of the next nodes, the next one last
    for node, count in enumerate(counts):
        lo, hi, depth = pending.pop()
        share = count * (hi - lo)
        if share & low_bits:
            raise NotOnInvariantSet(
                f"conditional count {Fraction(share, 1 << n_bits)} of preorder node {node} (theta={thetas[node]}) at "
                f"N={n_bits} is not an integer: joint amplitude not describable"
            )
        mid = lo + (share >> n_bits)
        if depth + 1 < m:
            pending += ((mid, hi, depth + 1), (lo, mid, depth + 1))
        else:
            cells[len(cells)] = mid - lo
            cells[len(cells)] = hi - mid
    return cells


def _arity(angles: Sequence) -> int:
    """m for a full binary tree of 2**m - 1 angles, m >= 1."""
    m = (len(angles) + 1).bit_length() - 1
    if m < 1 or (1 << m) - 1 != len(angles):
        raise ValueError("need 2**m - 1 angles")
    return m


def multi_sample(n_bits: int, thetas: Sequence[ExactAngle]) -> MultiSample:
    """Realize the m-qubit sample space for a full binary tree of 2**m - 1
    amplitude angles (phases do not affect label statistics; they live in the
    amplitude table).  The sample holds the fill's joint counts; its rows are
    built from the same fill when first read."""
    m = _arity(thetas)
    counts = [gate_amplitude(t, n_bits) for t in thetas]
    return _built(n_bits, _realize(thetas, counts, m, n_bits), _fill_rows)


def two_qubit_sample(params: "TwoQubitParams", n_bits: int) -> MultiSample:
    """The 2-qubit correspondence: the m = 2 tree of amplitudes (theta1, theta2, theta3)."""
    return multi_sample(n_bits, (params.theta1, params.theta2, params.theta3))


class TwoQubitParams(_Record):
    """The six angular degrees of freedom of the 2-qubit construction."""

    __slots__ = ("theta1", "theta2", "theta3", "phi1", "phi2", "phi3")


class PredictedTwoQubit(_Record):
    """Amplitude-squared table and phases of the composed 2-qubit state."""

    __slots__ = ("probs", "phases")


def two_qubit_predict(params: TwoQubitParams, n_bits: int) -> PredictedTwoQubit:
    """The m = 2 amplitude table: gamma_0^2 .. gamma_3^2 and phases (0, phi2, phi1, phi1 + phi3)."""
    thetas = (params.theta1, params.theta2, params.theta3)
    probs, phases = zip(*amplitude_table(thetas, (params.phi1, params.phi2, params.phi3), n_bits))
    return PredictedTwoQubit(probs, phases)


def amplitude_table(
    thetas: Sequence[ExactAngle], phis: Sequence[ExactAngle], n_bits: int
) -> list[tuple[Fraction, ExactAngle]]:
    """Symbolically expand the inductive m-qubit state: per outcome, the exact
    probability (product of cos^2/sin^2 half-angles) and accumulated phase.
    Gates every amplitude, then every phase, and wraps expand_counts: one
    Fraction per distinct numerator over 2**(m*N), one ExactAngle per
    distinct pair-shift sum over 2**(N-1).

    Outcome order matches joint_counts (row 0 most significant).  This is the
    brute-force oracle the string composition is tested against.
    """
    if len(thetas) != len(phis):
        raise ValueError("need equally many amplitude and phase angles")
    m = _arity(thetas)
    counts = [gate_amplitude(t, n_bits) for t in thetas]
    shifts = [gate_phase(phi, n_bits) for phi in phis]
    table = expand_counts(counts, shifts, n_bits)
    denominator, half = 1 << (m * n_bits), 1 << (n_bits - 1)
    probs = {k: Fraction(k, denominator) for k in {k for k, _ in table}}
    angles = {0: ZERO_ANGLE, **dict(zip(shifts, phis))}  # a phase sum of no node, or of one, is that angle
    angles.update((s, ExactAngle(Fraction(s, half))) for s in {s for _, s in table} if s not in angles)
    return [(probs[k], angles[s]) for k, s in table]


def expand_counts(counts: Sequence[int], shifts: Sequence[int], n_bits: int) -> list[tuple[int, int]]:
    """The inductive expansion on integers: per outcome, the unreduced
    probability numerator over 2**(m*N) (a product of first-label counts and
    their complements) and the pair-shift sum modulo 2**(N-1), from a tree's
    gated amplitude counts and phase shifts in preorder.  Each level splits
    every path of the level above into its first-regime and negated branch,
    so paths stay in outcome order."""
    length, half = 1 << n_bits, 1 << (n_bits - 1)
    paths = [(1, 0, 0)]  # (numerator, shift sum, preorder index of the path's next node)
    subtree = len(counts)  # 2**m - 1 nodes
    for _ in range(subtree.bit_length()):
        subtree >>= 1  # nodes in each child subtree: a right child is subtree + 1 after its parent
        nxt = []
        for k, s, i in paths:
            count = counts[i]
            nxt += ((k * count, s, i + 1), (k * (length - count), (s + shifts[i]) % half, i + 1 + subtree))
        paths = nxt
    return [(k, s) for k, s, _ in paths]


def bell_sample_from_amplitude(amp: Fraction, n_bits: int) -> MultiSample:
    """Maximally entangled construction at exact agreement amplitude ``amp``:
    balanced head, second source the negation of the first (see _bell_sample)."""
    if not 0 <= amp <= 1:
        raise ValueError("amplitude outside [0, 1]")
    if not is_describable(amp, n_bits):
        raise NotOnInvariantSet(f"agreement amplitude {amp} is not describable by {n_bits} bits")
    exact = amp if isinstance(amp, (int, Fraction)) else Fraction(amp)
    return _bell_sample(exact.numerator << (n_bits + 1 - exact.denominator.bit_length()), n_bits)


def bell_sample(theta2: ExactAngle, n_bits: int) -> MultiSample:
    """Bell construction at relative orientation theta2 (cos^2(theta2/2) must
    be describable by N bits; the head amplitude is fixed at 1/2)."""
    return _bell_sample(gate_amplitude(theta2, n_bits), n_bits)


def _bell_sample(count: int, n_bits: int) -> MultiSample:
    """compose_pair(head, sb1, negate(sb1)) for the balanced head and sb1 of
    `count` first labels, as its joint counts.  sb1 is the head with its
    lowest labels flipped to reach `count`, so its first-regime labels
    contain the head's h = 2**(N-1) when count >= h and lie inside them
    otherwise: with lo, hi = min(count, h), max(count, h), row b (sb1's label
    where the head is first, its negation elsewhere) gives the counts below."""
    half, size = 1 << (n_bits - 1), 1 << n_bits
    lo, hi = min(count, half), max(count, half)
    return _built(n_bits, {0b00: lo, 0b01: half - lo, 0b10: size - hi, 0b11: hi - half}, _bell_rows)


def _bell_rows(n_bits: int, counts: dict[int, int]) -> tuple[BitString, BitString]:
    """The Bell construction's rows: the canonical head, and row b = sb1 xor
    head for the sb1 of counts[00] + counts[11] first labels."""
    head = canonical_string(n_bits, "a")
    sb1 = sample_from_counts(n_bits, counts[0b00] + counts[0b11], 0, "b")
    return head, BitString(n_bits, sb1.bits ^ head.bits, "b", None)


def bell_statistics(ms: MultiSample) -> tuple[Fraction, Fraction]:
    """Agreement and correlation from the joint counts, which a Bell sample
    holds without building a row.  The correlation is agreement minus
    disagreement, 2*agreement - 1, and equals cos(theta2) exactly."""
    counts = joint_counts(ms)
    agreement = Fraction(counts[0b00] + counts[0b11], ms.size)
    return agreement, 2 * agreement - 1
