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

from dataclasses import dataclass, replace
from fractions import Fraction

from .exactmath import ZERO_ANGLE, RationalLike, rational_sqrt
from .samplespace import BitString, pair_shift, phase_string, quarter_turn

Entry = tuple[int, int]  # (quarter-turns mod 4, pair-shifts mod 2**(N-1))


@dataclass(frozen=True)
class FormalOperatorMatrix:
    """4x4 generalized permutation matrix over the pair-shift/quarter-turn
    operator algebra."""

    n_bits: int
    entries: tuple[tuple[Entry | None, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != 4 or any(len(row) != 4 for row in self.entries):
            raise ValueError("4x4 matrix required")
        half = 1 << (self.n_bits - 1)
        norm = tuple(
            tuple(None if e is None else (e[0] % 4, e[1] % half) for e in row)
            for row in self.entries
        )
        object.__setattr__(self, "entries", norm)
        for idx, row in enumerate(self.entries):
            if sum(e is not None for e in row) != 1:
                raise ValueError(f"row {idx} must have exactly one nonzero entry")
        for col in range(4):
            if sum(self.entries[r][col] is not None for r in range(4)) != 1:
                raise ValueError(f"column {col} must have exactly one nonzero entry")

    def __matmul__(self, other: "FormalOperatorMatrix") -> "FormalOperatorMatrix":
        if self.n_bits != other.n_bits:
            raise ValueError("mixed n_bits")
        rows: list[list[Entry | None]] = [[None] * 4 for _ in range(4)]
        for i in range(4):
            for k in range(4):
                a = self.entries[i][k]
                if a is None:
                    continue
                for j in range(4):
                    b = other.entries[k][j]
                    if b is None:
                        continue
                    rows[i][j] = (a[0] + b[0], a[1] + b[1])
        return FormalOperatorMatrix(self.n_bits, tuple(tuple(r) for r in rows))

    def apply(self, components: tuple[BitString, ...]) -> tuple[BitString, ...]:
        if len(components) != 4:
            raise ValueError("four components required")
        out: list[BitString] = []
        for row in self.entries:
            col = next(j for j, e in enumerate(row) if e is not None)
            s, r = row[col]
            out.append(quarter_turn(pair_shift(components[col], r), s))
        return tuple(out)

    def entry_phase_turns(self, row: int, col: int) -> Fraction | None:
        """The root of unity the entry maps to, as a fraction of a turn."""
        e = self.entries[row][col]
        if e is None:
            return None
        s, r = e
        half = 1 << (self.n_bits - 1)
        return Fraction((s * half + 4 * r) % (4 * half), 4 * half)  # s/4 + r/half, mod 1

    def skeleton(self, step: int) -> list[list[complex]]:
        """Sign/permutation skeleton: pair-shift by +step reads as +1, by
        -step as -1, each quarter-turn as a factor i."""
        half = 1 << (self.n_bits - 1)
        fwd, back = step % half, (-step) % half
        out: list[list[complex]] = [[0] * 4 for _ in range(4)]
        for i, row in enumerate(self.entries):
            for j, e in enumerate(row):
                if e is None:
                    continue
                s, r = e
                if r == fwd:
                    sign = 1
                elif r == back:
                    sign = -1
                else:
                    raise ValueError(f"entry shift {r} is neither +{step} nor -{step}")
                out[i][j] = (1j**s) * sign
        return out


def evolution_matrix(axis: int, steps: int, n_bits: int) -> FormalOperatorMatrix:
    """The four evolution operators (axis 0 = time, 1..3 = space).

    Time: diagonal, components 1-2 advance and 3-4 retreat.  Space operators
    are (block) anti-diagonal with the transcribed sign and quarter-turn
    pattern; their skeletons are the gamma matrices.
    """
    half = 1 << (n_bits - 1)
    f: Entry = (0, steps % half)  # forward shift
    b: Entry = (0, (-steps) % half)  # backward shift
    jf: Entry = (1, steps % half)  # quarter-turn times forward
    jb: Entry = (1, (-steps) % half)
    if axis == 0:
        rows = ((f, None, None, None), (None, f, None, None), (None, None, b, None), (None, None, None, b))
    elif axis == 1:
        rows = ((None, None, None, f), (None, None, f, None), (None, b, None, None), (b, None, None, None))
    elif axis == 2:
        rows = ((None, None, None, jb), (None, None, jf, None), (None, jf, None, None), (jb, None, None, None))
    elif axis == 3:
        rows = ((None, None, f, None), (None, None, None, b), (b, None, None, None), (None, f, None, None))
    else:
        raise ValueError("axis must be 0..3")
    return FormalOperatorMatrix(n_bits, rows)


#: The standard Dirac matrices, for the skeleton correspondence.
GAMMA: dict[int, tuple[tuple[complex, ...], ...]] = {
    0: ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)),
    1: ((0, 0, 0, 1), (0, 0, 1, 0), (0, -1, 0, 0), (-1, 0, 0, 0)),
    2: ((0, 0, 0, -1j), (0, 0, 1j, 0), (0, 1j, 0, 0), (-1j, 0, 0, 0)),
    3: ((0, 0, 1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, 1, 0, 0)),
}


def gamma_pattern(axis: int) -> list[list[complex]]:
    return [list(row) for row in GAMMA[axis]]


@dataclass(frozen=True)
class SpinorSample:
    """Four bit strings plus the particle data that fixes the evolution
    grids.  ``physical`` is set exactly when omega^2 = |k|^2 + m^2 has a
    rational root omega."""

    n_bits: int
    components: tuple[BitString, BitString, BitString, BitString]
    mass: Fraction
    wavevector: tuple[Fraction, Fraction, Fraction]
    omega: Fraction | None
    omega_sq: Fraction
    physical: bool


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
    return SpinorSample(n_bits, tuple(components), Fraction(mass), wavevector, disp.omega, disp.omega_sq,
                        disp.exact_root)


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
    return replace(
        psi,
        components=(pair_shift(c1, n), pair_shift(c2, n), pair_shift(c3, -n), pair_shift(c4, -n)),
    )


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
    x[col_i] + entry_phase_turns(i, col_i) * 2**(N-1) mod 2**(N-1) in row i,
    a fixed number of 2**-(N-1) turns per row and step.  Raw and
    amplitude-flipped components have no such rotation and raise ValueError."""
    if len(components) != 4:
        raise ValueError("four components required")
    for c in components:
        d = c.descriptor
        if c.n_bits != operator.n_bits or d is None or d.first_count != c.size >> 1:
            raise ValueError("phase strings of the operator's n_bits required: "
                             "a raw or amplitude-flipped component has no rotation")
    half = 1 << (operator.n_bits - 1)
    moves = []  # (col_i, rotation added in row i)
    for i, row in enumerate(operator.entries):
        col = next(j for j, e in enumerate(row) if e is not None)
        turns = operator.entry_phase_turns(i, col)
        moves.append((col, turns.numerator * (half // turns.denominator)))
    (c1, r1), (c2, r2), (c3, r3), (c4, r4) = moves
    x = tuple(c.descriptor.rotation for c in components)
    trace = [x]
    for _ in range(length):
        x = ((x[c1] + r1) % half, (x[c2] + r2) % half, (x[c3] + r3) % half, (x[c4] + r4) % half)
        trace.append(x)
    return trace


def full_evolve(psi: SpinorSample, n_t: int, n_1: int, n_2: int, n_3: int) -> SpinorSample:
    """Apply evolution_operator(psi, n_t, n_1, n_2, n_3) to psi's components."""
    return replace(psi, components=evolution_operator(psi, n_t, n_1, n_2, n_3).apply(psi.components))


@dataclass(frozen=True)
class DispersionResult:
    omega_sq: Fraction
    omega: Fraction | None  # exact rational root when one exists
    exact_root: bool


def dispersion_check(mass: RationalLike, wavevector: tuple[RationalLike, RationalLike, RationalLike]) -> DispersionResult:
    """omega^2 = |k|^2 + m^2 exactly; flags whether omega itself is rational
    (perfect square) or must be carried as omega^2 only."""
    m = Fraction(mass)
    k = [Fraction(x) for x in wavevector]
    omega_sq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2 + m * m
    w = rational_sqrt(omega_sq)
    return DispersionResult(omega_sq, w, w is not None)
