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
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

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
from .highprec import DEFAULT_PREC, to_mpf
from .samplespace import (
    BitString,
    canonical_string,
    first_label_count,
    full_mask,
    require_explicit,
    sample_from_counts,
)

if TYPE_CHECKING:
    import mpmath

_DEFAULT_TAGS = "abcdefgh"


class MultiSample(_Record):
    """m aligned bit strings of common length 2**N realizing an m-qubit
    sample space; row 1 is the independent source."""

    __slots__ = ("n_bits", "rows")

    def __init__(self, n_bits: int, rows: tuple[BitString, ...]) -> None:
        if not rows:
            raise ValueError("at least one row required")
        for r in rows:
            if r.n_bits != n_bits:
                raise ValueError("row length mismatch")
        _set(self, "n_bits", n_bits)
        _set(self, "rows", tuple(rows))

    @property
    def size(self) -> int:
        return 1 << self.n_bits


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
    2**N bits are alive at once.
    """
    full = full_mask(ms.size)
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


def _realize(thetas: Sequence[ExactAngle], counts: Sequence[int], m: int, n_bits: int) -> list[int]:
    """Negated-label bits of the m rows of the tree `counts` (preorder, gated
    from `thetas`) over 2**n_bits labels.  Each node fills the label interval
    [lo, hi) of its branch: its first counts[i]*(hi - lo)/2**n_bits labels are
    the first regime, its left subtree fills that share and its right subtree
    the rest.  Nodes are visited in preorder, so the node refused is the
    first in preorder whose share is not an integer."""
    rows = [0] * m
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
        rows[depth] |= ((1 << (hi - mid)) - 1) << mid
        if depth + 1 < m:
            pending += ((mid, hi, depth + 1), (lo, mid, depth + 1))
    return rows


def _arity(angles: Sequence) -> int:
    """m for a full binary tree of 2**m - 1 angles, m >= 1."""
    m = (len(angles) + 1).bit_length() - 1
    if m < 1 or (1 << m) - 1 != len(angles):
        raise ValueError("need 2**m - 1 angles")
    return m


def multi_sample(n_bits: int, thetas: Sequence[ExactAngle]) -> MultiSample:
    """Realize the m-qubit sample space for a full binary tree of 2**m - 1
    amplitude angles (phases do not affect label statistics; they live in the
    amplitude table).  Past the explicit-label limit, once the amplitudes
    are gated, it raises ResourceBound before building any row."""
    m = _arity(thetas)
    counts = [gate_amplitude(t, n_bits) for t in thetas]
    require_explicit(n_bits)
    rows_bits = _realize(thetas, counts, m, n_bits)
    return MultiSample(n_bits, tuple(BitString(n_bits, rb, _DEFAULT_TAGS[i] if i < len(_DEFAULT_TAGS) else f"q{i}")
                                     for i, rb in enumerate(rows_bits)))


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


def amplitude_table_mp(
    theta_turns: Sequence[Fraction], phi_turns: Sequence[Fraction], prec: int = DEFAULT_PREC
) -> list[mpmath.mpc]:
    """Numeric complex amplitudes of the same expansion at high precision,
    for arbitrary (not necessarily admissible) angles."""
    import mpmath

    if len(theta_turns) != len(phi_turns):
        raise ValueError("need equally many amplitude and phase angles")
    _arity(theta_turns)

    with mpmath.workprec(prec):

        def rec(th: Sequence[Fraction], ph: Sequence[Fraction]) -> list[mpmath.mpc]:
            half = mpmath.pi * to_mpf(th[0], prec)
            c, s = mpmath.cos(half), mpmath.sin(half)
            e = mpmath.expjpi(2 * to_mpf(ph[0], prec))
            if len(th) == 1:
                return [mpmath.mpc(c), e * s]
            h = (len(th) - 1) // 2
            left = rec(th[1 : 1 + h], ph[1 : 1 + h])
            right = rec(th[1 + h :], ph[1 + h :])
            return [c * x for x in left] + [e * s * x for x in right]

        return rec(list(theta_turns), list(phi_turns))


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
    `count` first labels: row b takes sb1's label where the head is first and
    its negation elsewhere, sb1 xor head, built from sb1's labels once."""
    head = canonical_string(n_bits, "a")
    sb1 = sample_from_counts(n_bits, count, 0, "b")
    return MultiSample(n_bits, (head, BitString(n_bits, sb1.bits ^ head.bits, "b", None)))


def bell_statistics(ms: MultiSample) -> tuple[Fraction, Fraction]:
    """Agreement and correlation from one joint count.  The correlation is
    agreement minus disagreement, 2*agreement - 1, and equals cos(theta2)
    exactly."""
    counts = joint_counts(ms)
    agreement = Fraction(counts[0b00] + counts[0b11], ms.size)
    return agreement, 2 * agreement - 1
