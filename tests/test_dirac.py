import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invset.dirac import (
    FormalOperatorMatrix,
    dispersion_check,
    evolution_matrix,
    evolution_operator,
    full_evolve,
    gamma_pattern,
    phase_trace,
    rest_step,
    space_step_over_full_turn,
    spinor,
    time_step_over_full_turn,
)
from invset.exactmath import ExactAngle
from invset.samplespace import from_text, hilbert_shadow, phase_string, sample_from_counts, to_text


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)] for i in range(4)]


def mat_eq(a, b):
    return all(a[i][j] == b[i][j] for i in range(4) for j in range(4))


def scaled_identity(z):
    return [[z if i == j else 0 for j in range(4)] for i in range(4)]


# The standard Dirac representation, frozen independently as the conventions
# diagnostic target.
STANDARD_DIRAC = {
    0: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    1: [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
    2: [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, 1j, 0, 0], [-1j, 0, 0, 0]],
    3: [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
}


def phase_psi(n_bits, rotations=(0, 1, 2, 3), **kw):
    comps = tuple(
        phase_string(n_bits, ExactAngle(Fraction(r, 1 << (n_bits - 1))), f"s{i+1}")
        for i, r in enumerate(rotations)
    )
    return spinor(n_bits, comps, **kw)


class TestOperatorMatrices:
    @pytest.mark.parametrize("axis", range(4))
    def test_skeleton_matches_gamma(self, axis):
        mat = evolution_matrix(axis, 1, 8)
        assert mat.skeleton(1) == gamma_pattern(axis)

    @pytest.mark.parametrize("axis", range(4))
    def test_conventions_match_standard_dirac(self, axis):
        assert mat_eq(gamma_pattern(axis), STANDARD_DIRAC[axis])

    def test_gamma_squares(self):
        g = {axis: gamma_pattern(axis) for axis in range(4)}
        assert mat_eq(mat_mul(g[0], g[0]), scaled_identity(1))
        for axis in (1, 2, 3):
            assert mat_eq(mat_mul(g[axis], g[axis]), scaled_identity(-1))

    def test_gamma_anticommutators_vanish(self):
        g = {axis: gamma_pattern(axis) for axis in range(4)}
        for i in range(4):
            for j in range(i + 1, 4):
                anti = [[g[i][r][k] for k in range(4)] for r in range(4)]
                ij = mat_mul(g[i], g[j])
                ji = mat_mul(g[j], g[i])
                assert mat_eq([[ij[r][c] + ji[r][c] for c in range(4)] for r in range(4)], scaled_identity(0))

    def test_generalized_permutation_enforced(self):
        e = (0, 1)
        with pytest.raises(ValueError):
            FormalOperatorMatrix(6, (0, 0, 2, 3), (e, e, e, e))
        with pytest.raises(ValueError):
            FormalOperatorMatrix(6, (0, 1, 2, 3), (e, e, e))

    def test_products_stay_generalized_permutations(self):
        rng = random.Random(3)
        mats = [evolution_matrix(axis, rng.randrange(32), 6) for axis in range(4)]
        prod, grid = mats[0], dense(mats[0])
        for m in mats[1:]:
            prod, grid = prod @ m, dense_product(grid, dense(m), 6)
        assert sorted(prod.cols) == [0, 1, 2, 3] and len(prod.entries) == 4
        assert dense(prod) == grid
        assert sum(e is not None for row in grid for e in row) == 4

    def test_product_entry_composition(self):
        e0 = evolution_matrix(0, 3, 6)
        e0b = evolution_matrix(0, 5, 6)
        prod = e0 @ e0b
        assert prod.cols[0] == 0 and prod.entries[0] == (0, 8)
        assert prod.cols[2] == 2 and prod.entries[2] == (0, (32 - 8) % 32)
        # the zero-step time operator is the identity on either side
        ident = evolution_matrix(0, 0, 6)
        mat = evolution_matrix(2, 7, 6)
        assert mat @ ident == mat and ident @ mat == mat

    def test_spatial_product_at_zero_steps_has_order_four(self):
        prod = evolution_matrix(1, 0, 6) @ evolution_matrix(2, 0, 6) @ evolution_matrix(3, 0, 6)
        psi = phase_psi(6)
        state = psi.components
        for _ in range(4):
            state = prod.apply(state)
        assert tuple(c.bits for c in state) == tuple(c.bits for c in psi.components)
        # complex oracle: the skeleton squares to -1 and fourth-powers to +1
        sk = prod.skeleton(0)
        assert mat_eq(mat_mul(sk, sk), scaled_identity(-1))

    def test_entry_phase_turns(self):
        mat = evolution_matrix(0, 3, 6)
        assert mat.entry_phase_turns(0, 0) == Fraction(3, 32)
        assert mat.entry_phase_turns(2, 2) == Fraction(29, 32)
        assert mat.entry_phase_turns(0, 1) is None
        mat2 = evolution_matrix(2, 1, 6)
        assert mat2.entry_phase_turns(1, 2) == (Fraction(1, 4) + Fraction(1, 32)) % 1


def dense(mat):
    """The operator as a 4x4 grid of entries, None where the matrix is zero."""
    grid = [[None] * 4 for _ in range(4)]
    for row, col, e in zip(grid, mat.cols, mat.entries):
        row[col] = e
    return grid


def dense_product(a, b, n_bits):
    """The product of two 4x4 entry grids by the triple loop over rows,
    inner index and columns: entries multiply by adding their quarter-turns
    and pair-shifts."""
    half = 1 << (n_bits - 1)
    rows = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for k in range(4):
            x = a[i][k]
            if x is None:
                continue
            for j in range(4):
                y = b[k][j]
                if y is not None:
                    rows[i][j] = ((x[0] + y[0]) % 4, (x[1] + y[1]) % half)
    return rows


_OPERATOR = st.tuples(st.permutations(range(4)),
                      st.lists(st.tuples(st.integers(-9, 9), st.integers(-2**16, 2**16)), min_size=4, max_size=4))


def parts(mat):
    return mat.cols, mat.entries


class TestOperatorProduct:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    # the product of the four evolution operators at N = 6, as (time @ x) @ (y @ z)
    @example(6, parts(evolution_matrix(0, 15, 6) @ evolution_matrix(1, 8, 6)),
             parts(evolution_matrix(2, 23, 6) @ evolution_matrix(3, 30, 6)), [0, 1, 2, 3], 3)
    @given(st.integers(3, 16), _OPERATOR, _OPERATOR, st.lists(st.integers(0, 2**15), min_size=4, max_size=4),
           st.integers(0, 2**32))
    def test_equals_the_dense_product_and_composes_apply(self, n_bits, a, b, rotations, seed):
        A, B = FormalOperatorMatrix(n_bits, *a), FormalOperatorMatrix(n_bits, *b)
        assert dense(A @ B) == dense_product(dense(A), dense(B), n_bits)
        phases = phase_psi(n_bits, [r % (1 << (n_bits - 1)) for r in rotations]).components
        rng = random.Random(seed)
        raw = tuple(from_text(format(rng.getrandbits(1 << n_bits), f"0{1 << n_bits}b")) for _ in range(4))
        for components in (phases, raw):
            assert (A @ B).apply(components) == A.apply(B.apply(components))


class TestRestEvolution:
    @pytest.mark.parametrize("n_bits", range(3, 11))
    def test_exact_period(self, n_bits):
        psi = phase_psi(n_bits, (0, 0, 0, 0))
        half = 1 << (n_bits - 1)
        assert rest_step(psi, half).components == psi.components
        assert rest_step(psi, half >> 1).components != psi.components

    def test_phase_additivity(self):
        psi = phase_psi(7)
        assert rest_step(rest_step(psi, 5), 9).components == rest_step(psi, 14).components

    def test_helicity_opposition(self):
        n_bits = 7
        psi = phase_psi(n_bits, (3, 5, 7, 11))
        stepped = rest_step(psi, 6)
        half = 1 << (n_bits - 1)
        for idx, sign in ((0, 1), (1, 1), (2, -1), (3, -1)):
            before = hilbert_shadow(psi.components[idx]).phase_turns
            after = hilbert_shadow(stepped.components[idx]).phase_turns
            assert (after - before) % 1 == (Fraction(sign * 6, half)) % 1


class TestFullEvolution:
    def test_zero_wavevector_reduces_to_rest(self):
        psi = phase_psi(6, mass=2)
        evolved = full_evolve(psi, 4, 9, 9, 9)
        assert evolved.components == rest_step(psi, 4).components

    def test_shadow_action_equals_complex_action(self):
        # finite-N singular-limit consistency: mapping entries to roots of
        # unity, the matrix action on component shadows is exact phase
        # bookkeeping
        n_bits = 7
        psi = phase_psi(n_bits, (2, 9, 4, 31), mass=3, wavevector=(4, 1, 2))
        steps = (5, 3, 2, 7)
        mat = evolution_matrix(0, steps[0], n_bits)
        for axis in (1, 2, 3):
            mat = mat @ evolution_matrix(axis, steps[axis], n_bits)
        evolved = full_evolve(psi, *steps)
        in_turns = [hilbert_shadow(c).phase_turns for c in psi.components]
        for row in range(4):
            col = mat.cols[row]
            predicted = (mat.entry_phase_turns(row, col) + in_turns[col]) % 1
            shadow = hilbert_shadow(evolved.components[row])
            assert shadow.phase_turns == predicted
            assert shadow.amplitude_sq == Fraction(1, 2)

    @pytest.mark.parametrize("moving", list(itertools.product((False, True), repeat=3)))
    def test_operator_applied_step_by_step_equals_full_evolve(self, moving):
        wavevector = tuple(Fraction(k) if on else 0 for k, on in zip((3, -2, 5), moving))
        psi = phase_psi(7, (2, 9, 4, 31), mass=2, wavevector=wavevector)
        steps = (-3, 5, -7, 2)
        operator = evolution_operator(psi, *steps)
        components, state = psi.components, psi
        for _ in range(6):
            components, state = operator.apply(components), full_evolve(state, *steps)
            assert components == state.components

    def test_full_period_identity_trace(self):
        n_bits = 6
        psi = phase_psi(n_bits)
        evolved = full_evolve(psi, 1 << (n_bits - 1), 0, 0, 0)
        assert evolved.components == psi.components


def apply_trace(operator, components, length):
    """The oracle: the rotations the components have after each operator.apply."""
    trace = [tuple(c.descriptor.rotation for c in components)]
    for _ in range(length):
        components = operator.apply(components)
        trace.append(tuple(c.descriptor.rotation for c in components))
    return trace


_WAVEVECTOR = st.tuples(*[st.sampled_from((0, 1, -3, Fraction(1, 2)))] * 3)  # each axis zero or not


class TestPhaseTrace:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 16), st.lists(st.integers(-9, 9), min_size=4, max_size=4), _WAVEVECTOR,
           st.integers(0, 20), st.lists(st.integers(0, 2**15), min_size=4, max_size=4))
    def test_equals_the_rotations_apply_leaves(self, n_bits, steps, wavevector, length, rotations):
        psi = phase_psi(n_bits, [r % (1 << (n_bits - 1)) for r in rotations], mass=2, wavevector=wavevector)
        operator = evolution_operator(psi, *steps)
        assert phase_trace(operator, psi.components, length) == apply_trace(operator, psi.components, length)

    @pytest.mark.parametrize("n_bits", [64, 14000])
    def test_equals_the_rotations_apply_leaves_at_large_n(self, n_bits):
        half = 1 << (n_bits - 1)
        psi = phase_psi(n_bits, (0, 1, half // 3, half - 1), mass=2, wavevector=(1, -3, Fraction(1, 2)))
        operator = evolution_operator(psi, -9, 9, 4, -1)
        assert phase_trace(operator, psi.components, 20) == apply_trace(operator, psi.components, 20)

    def test_each_step_advances_by_the_entry_phase(self):
        n_bits = 8
        psi = phase_psi(n_bits, mass=2, wavevector=(1, 0, 3))
        operator = evolution_operator(psi, 3, 1, 0, -2)
        (x, y) = phase_trace(operator, psi.components, 1)
        for row in range(4):
            col = operator.cols[row]
            assert Fraction(y[row] - x[col], 1 << (n_bits - 1)) % 1 == operator.entry_phase_turns(row, col)

    @pytest.mark.parametrize("component", [
        from_text(to_text(phase_string(6, ExactAngle(Fraction(1, 8))))),  # raw: the same labels, no descriptor
        sample_from_counts(6, 33, 5),  # amplitude-flipped
        sample_from_counts(6, 0, 5),  # constant
    ], ids=["raw", "amplitude-flipped", "constant"])
    def test_refuses_a_component_that_is_not_a_phase_string(self, component):
        psi = phase_psi(6)
        components = (*psi.components[:3], component)
        with pytest.raises(ValueError, match="phase strings"):
            phase_trace(evolution_operator(psi, 1, 0, 0, 0), components, 4)


class TestSpinorData:
    def test_rest_energy(self):
        psi = spinor(6, mass=1)
        assert psi.omega == 1
        assert time_step_over_full_turn(psi) == Fraction(1, 32)

    def test_grid_steps(self):
        psi = spinor(6, mass=3, wavevector=(4, 0, 0))
        assert psi.omega == 5
        assert time_step_over_full_turn(psi) == Fraction(1, 160)
        assert space_step_over_full_turn(psi, 0) == Fraction(1, 128)
        assert space_step_over_full_turn(psi, 1) is None

    def test_irrational_omega_carried_as_square(self):
        psi = spinor(6, mass=1, wavevector=(1, 0, 0))
        assert psi.omega is None and psi.omega_sq == 2


class TestDispersion:
    def test_rest_energy_unit_mass(self):
        r = dispersion_check(1, (0, 0, 0))
        assert r.omega == 1

    def test_three_four_five(self):
        assert dispersion_check(3, (4, 0, 0)).omega == 5

    def test_irrational_flagged(self):
        r = dispersion_check(1, (1, 0, 0))
        assert r.omega_sq == 2 and r.omega is None

    def test_rational_inputs(self):
        r = dispersion_check(Fraction(3, 5), (Fraction(4, 5), 0, 0))
        assert r.omega == 1
