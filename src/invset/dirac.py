"""Granular unitary evolution of four-component bit-string spinors.

Evolution operators are formal 4x4 matrices whose nonzero entries are signed
compositions of pair-shifts and quarter-turns - generalized permutation
matrices with exactly one nonzero entry per row and column.  Mapping an entry
with r pair-shifts and s quarter-turns to the root of unity
exp(2*pi*i*(r/2**(N-1) + s/4)) recovers the familiar complex evolution
matrices; the sign/permutation skeletons of the four operators are the Dirac
gamma matrices.  Signs and quarter-turn placements are transcribed exactly as
constructed; a conventions check against the standard Dirac representation
lives in the tests.

Evolution is fundamentally granular: operators take integer step counts, and
conversion to physical time or distance (step sizes 2*pi/(2**(N-1)*omega) and
2*pi/(2**(N-1)*k_j)) is left to the caller.  Natural units throughout
(hbar = c = 1), so the dispersion relation reads omega^2 = |k|^2 + m^2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .exactmath import ZERO_ANGLE, RationalLike, _Record, _set, rational_sqrt
from .samplespace import BitString, pair_shift, phase_string, quarter_turn

Entry = tuple[int, int]  # (quarter-turns mod 4, pair-shifts mod 2**(N-1))


class FormalOperatorMatrix(_Record):
    """4x4 generalized permutation matrix over the pair-shift/quarter-turn
    operator algebra: row i holds its one nonzero entry, entries[i], in
    column cols[i]."""

    __slots__ = ("n_bits", "cols", "entries")

    def __init__(self, n_bits: int, cols: tuple[int, int, int, int],
                 entries: tuple[Entry, Entry, Entry, Entry]) -> None:
        if sorted(cols) != [0, 1, 2, 3] or len(entries) != 4:
            raise ValueError("a permutation of columns 0..3 and four entries required")
        half = 1 << (n_bits - 1)
        _set(self, "n_bits", n_bits)
        _set(self, "cols", tuple(cols))
        _set(self, "entries", tuple((s % 4, r % half) for s, r in entries))

    def __matmul__(self, other: "FormalOperatorMatrix") -> "FormalOperatorMatrix":
        """Row i's entry, in column k = cols[i], times row k of `other`."""
        if self.n_bits != other.n_bits:
            raise ValueError("mixed n_bits")
        return FormalOperatorMatrix(
            self.n_bits, tuple(other.cols[c] for c in self.cols),
            tuple((s + other.entries[c][0], r + other.entries[c][1]) for c, (s, r) in zip(self.cols, self.entries)))

    def apply(self, components: tuple[BitString, ...]) -> tuple[BitString, ...]:
        if len(components) != 4:
            raise ValueError("four components required")
        return tuple(quarter_turn(pair_shift(components[c], r), s) for c, (s, r) in zip(self.cols, self.entries))

    def entry_phase_turns(self, row: int, col: int) -> Fraction | None:
        """The root of unity the entry maps to, as a fraction of a turn."""
        if col != self.cols[row]:
            return None
        s, r = self.entries[row]
        half = 1 << (self.n_bits - 1)
        return Fraction((s * half + 4 * r) % (4 * half), 4 * half)  # s/4 + r/half, mod 1

    def skeleton(self, step: int) -> list[list[complex]]:
        """Sign/permutation skeleton: pair-shift by +step reads as +1, by
        -step as -1, each quarter-turn as a factor i."""
        half = 1 << (self.n_bits - 1)
        fwd, back = step % half, (-step) % half
        out: list[list[complex]] = [[0] * 4 for _ in range(4)]
        for row, c, (s, r) in zip(out, self.cols, self.entries):
            if r == fwd:
                sign = 1
            elif r == back:
                sign = -1
            else:
                raise ValueError(f"entry shift {r} is neither +{step} nor -{step}")
            row[c] = (1j**s) * sign
        return out


#: axis -> (column of each row, (quarter-turns, sign of the step) of each
#: row's entry), transcribed as constructed.
_AXES = (
    ((0, 1, 2, 3), ((0, 1), (0, 1), (0, -1), (0, -1))),
    ((3, 2, 1, 0), ((0, 1), (0, 1), (0, -1), (0, -1))),
    ((3, 2, 1, 0), ((1, -1), (1, 1), (1, 1), (1, -1))),
    ((2, 3, 0, 1), ((0, 1), (0, -1), (0, -1), (0, 1))),
)


def evolution_matrix(axis: int, steps: int, n_bits: int) -> FormalOperatorMatrix:
    """The four evolution operators (axis 0 = time, 1..3 = space).

    Time: diagonal, components 1-2 advance and 3-4 retreat.  Space operators
    are (block) anti-diagonal with the transcribed sign and quarter-turn
    pattern; their skeletons are the gamma matrices.
    """
    if axis not in range(4):
        raise ValueError("axis must be 0..3")
    cols, turns_and_signs = _AXES[axis]
    return FormalOperatorMatrix(n_bits, cols, tuple((s, sign * steps) for s, sign in turns_and_signs))


#: The standard Dirac matrices, for the skeleton correspondence.
GAMMA: dict[int, tuple[tuple[complex, ...], ...]] = {
    0: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    1: ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0)),
    2: ((0, 0, 0, -1j), (0, 0, 1j, 0), (0, 1j, 0, 0), (-1j, 0, 0, 0)),
    3: ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0)),
}


def gamma_pattern(axis: int) -> list[list[complex]]:
    return [list(row) for row in GAMMA[axis]]


class SpinorSample(_Record):
    """Four bit strings plus the particle data that fixes the evolution
    grids.  ``omega`` is None exactly when omega^2 = |k|^2 + m^2 has no
    rational root."""

    __slots__ = ("n_bits", "components", "mass", "wavevector", "omega", "omega_sq")


def spinor(
    n_bits: int,
    components: tuple[BitString, ...] | None = None,
    mass: RationalLike = 1,
    wavevector: tuple[RationalLike, RationalLike, RationalLike] = (0, 0, 0),
) -> SpinorSample:
    if components is None:
        components = tuple(phase_string(n_bits, ZERO_ANGLE, tag) for tag in ("s1", "s2", "s3", "s4"))
    if len(components) != 4 or any(c.n_bits != n_bits for c in components):
        raise ValueError("four components of matching length required")
    disp = dispersion_check(mass, wavevector)
    wavevector = tuple(Fraction(x) for x in wavevector)
    return SpinorSample(n_bits, tuple(components), Fraction(mass), wavevector, disp.omega, disp.omega_sq)


def time_step_over_full_turn(psi: SpinorSample) -> Fraction | None:
    """Grid step divided by the full period 2*pi: 1/(2**(N-1)*omega)."""
    if psi.omega is None or psi.omega == 0:
        return None
    return Fraction(1, (1 << (psi.n_bits - 1))) / psi.omega


def space_step_over_full_turn(psi: SpinorSample, axis: int) -> Fraction | None:
    """1/(2**(N-1)*k_axis); undefined (None) where the wavevector component
    vanishes - that operator acts as the identity."""
    k = psi.wavevector[axis]
    if k == 0:
        return None
    return Fraction(1, (1 << (psi.n_bits - 1))) / k


def rest_step(psi: SpinorSample, n: int) -> SpinorSample:
    """Rest-frame evolution: components 1-2 advance n pair-shifts, 3-4
    retreat - two helical pairs of opposite handedness."""
    c1, c2, c3, c4 = psi.components
    components = (pair_shift(c1, n), pair_shift(c2, n), pair_shift(c3, -n), pair_shift(c4, -n))
    return SpinorSample(psi.n_bits, components, psi.mass, psi.wavevector, psi.omega, psi.omega_sq)


def evolution_operator(psi: SpinorSample, n_t: int, n_1: int, n_2: int, n_3: int) -> FormalOperatorMatrix:
    """The ordered product (time op)(x op)(y op)(z op) for psi's wavevector.

    Spatial step counts are consumed only on axes with nonzero wavevector;
    elsewhere the grid is undefined and the operator is the identity, which
    makes the rest frame an exact special case.
    """
    mat = evolution_matrix(0, n_t, psi.n_bits)
    for axis, steps in ((1, n_1), (2, n_2), (3, n_3)):
        if psi.wavevector[axis - 1] != 0:
            mat = mat @ evolution_matrix(axis, steps, psi.n_bits)
    return mat


def phase_trace(operator: FormalOperatorMatrix, components: tuple[BitString, ...],
                length: int) -> list[tuple[int, ...]]:
    """The rotations of `components` after 0, 1, ..., length applications of
    `operator`, each the rotation of the string ``operator.apply`` leaves.

    Every component must be a phase string: a constructed string with half
    its labels first-regime.  On such a string a pair-shift by r adds r to
    the rotation and a quarter-turn adds 2**(N-3), and the result is again a
    phase string.  So one application maps the rotation vector x to
    x[cols[i]] + r_i + s_i * 2**(N-3) mod 2**(N-1) in row i, for row i's
    entry (s_i quarter-turns, r_i pair-shifts): a fixed number of
    2**-(N-1) turns per row and step.  Raw and amplitude-flipped components
    have no such rotation and raise ValueError."""
    if len(components) != 4:
        raise ValueError("four components required")
    for c in components:
        d = c.descriptor
        if c.n_bits != operator.n_bits or d is None or d.first_count != c.size >> 1:
            raise ValueError("phase strings of the operator's n_bits required: "
                             "a raw or amplitude-flipped component has no rotation")
    half, quarter = 1 << (operator.n_bits - 1), 1 << (operator.n_bits - 3)  # strings have N >= 3
    c1, c2, c3, c4 = operator.cols
    r1, r2, r3, r4 = ((r + s * quarter) % half for s, r in operator.entries)
    x = tuple(c.descriptor.rotation for c in components)
    trace = [x]
    for _ in range(length):
        x = ((x[c1] + r1) % half, (x[c2] + r2) % half, (x[c3] + r3) % half, (x[c4] + r4) % half)
        trace.append(x)
    return trace


class _DiracTrace:
    """The trace as a report value, from the rotation vectors x of
    ``phase_trace``: the JSON text of ``[{"step": k, "components":
    [{"component": i, "phase_turns": fraction_str(Fraction(x[i - 1],
    2**(N-1))), "first_count": 2**(N-1)} for i in 1..4]} for k, x in
    enumerate(rotations)]`` and report.csv's text, each step's entry and
    rows from one template, both in the pieces of report._pieces, whole steps
    each.  A phase is x / 2**(N-1) in lowest terms: x // d over 2**(N-1) // d,
    d the lowest set bit of x."""

    def __init__(self, n_bits: int, rotations: list[tuple[int, int, int, int]]) -> None:
        half = 1 << (n_bits - 1)
        turns = {x: f"{x // (x & -x)}/{half // (x & -x)}" if x else "0/1" for x in set(chain(*rotations))}
        self.first_count = half  # every component stays a phase string, half its labels first-regime
        self.phases = [[turns[x] for x in rotation] for rotation in rotations]

    def pieces(self, newline: str):
        from .report import _pieces  # here, not at the top: `import invset` loads no report writer

        if not self.phases:
            return ["[]"]
        item, key = newline + "  ", newline + "    "
        inner, field = key + "  ", key + "    "
        opens = [f'{inner}{{{field}"component": {i},{field}"first_count": {self.first_count},{field}"phase_turns": "'
                 for i in (1, 2, 3, 4)]
        close = '"' + inner + "}"
        c1 = "{" + key + '"components": [' + opens[0]
        c2, c3, c4 = (close + "," + text for text in opens[1:])
        step = close + key + "]," + key + '"step": '
        entries = (f",{item}{c1}{a}{c2}{b}{c3}{c}{c4}{d}{step}{k}{item}}}"
                   for k, (a, b, c, d) in enumerate(self.phases))
        first = "[" + next(entries)[1:]  # the first step follows the opening bracket, not a comma
        return _pieces(chain([first], entries, [newline + "]"]))

    def csv_rows(self):
        """report.csv's text in pieces: the header and rows (step, component, phase_turns, first_count)."""
        from .report import _pieces

        f = str(self.first_count)  # 2**(N-1) in decimal once, not four times a step
        rows = (f"{k},1,{a},{f}\n{k},2,{b},{f}\n{k},3,{c},{f}\n{k},4,{d},{f}\n"
                for k, (a, b, c, d) in enumerate(self.phases))
        return _pieces(chain(["step,component,phase_turns,first_count\n"], rows))


def full_evolve(psi: SpinorSample, n_t: int, n_1: int, n_2: int, n_3: int) -> SpinorSample:
    """Apply evolution_operator(psi, n_t, n_1, n_2, n_3) to psi's components."""
    components = evolution_operator(psi, n_t, n_1, n_2, n_3).apply(psi.components)
    return SpinorSample(psi.n_bits, components, psi.mass, psi.wavevector, psi.omega, psi.omega_sq)


class DispersionResult(_Record):
    """omega^2 and omega, its exact rational root when one exists, else None."""

    __slots__ = ("omega_sq", "omega")


def dispersion_check(mass: RationalLike, wavevector: tuple[RationalLike, RationalLike, RationalLike]) -> DispersionResult:
    """omega^2 = |k|^2 + m^2 exactly, and omega itself when it is rational
    (a perfect square); otherwise omega is None and only omega^2 is carried."""
    m = Fraction(mass)
    k = [Fraction(x) for x in wavevector]
    omega_sq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2 + m * m
    return DispersionResult(omega_sq, rational_sqrt(omega_sq))
