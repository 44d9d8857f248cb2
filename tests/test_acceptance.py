"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import time
from fractions import Fraction

import mpmath
import pytest

from invset import checks
from invset.cli import main as cli_main
from invset.dirac import dispersion_check, evolution_matrix, full_evolve, rest_step, spinor
from invset.exactmath import ExactAngle, cos_exact
from invset.experiments import (
    ChshConfig,
    chsh_run,
    mz_run,
    pbr_simultaneity,
    pbr_values,
)
from invset.highprec import to_mpf
from invset.multiqubit import amplitude_table_mp
from invset.samplespace import fraction, hilbert_shadow, phase_string, sample

# all rational-turn angles with rational cosine, folded over [0, pi]
ADMISSIBLE_THETA_TURNS = [
    Fraction(0), Fraction(1, 6), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
    Fraction(2, 3), Fraction(3, 4), Fraction(5, 6),
]


class _timed:
    def __init__(self, label, budget_s=None):
        self.label, self.budget = label, budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            budget = f", budget {self.budget:.0f}s" if self.budget else ""
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s{budget})")
            if self.budget is not None:
                assert elapsed < self.budget, f"{self.label} exceeded runtime budget"
        else:
            print(f"ACCEPTANCE {self.label}: FAIL ({elapsed:.2f}s)")
        return False


def _assert_passed(rows):
    """Every row of an invariant shared with `invset check` passed."""
    failed = [f"{row.name}: {row.detail}" for row in rows if not row.passed]
    assert rows and not failed, failed


def test_01_golden_table():
    with _timed("01 golden-table", 1.0):
        _assert_passed(checks.golden_table())


def test_02_operator_algebra():
    with _timed("02 operator-algebra", 10.0):
        _assert_passed(checks.operator_algebra(range(3, 17), seed=2))


def test_03_amplitude_law_exhaustive():
    with _timed("03 amplitude-law", 60.0):
        for n_bits in range(3, 13):
            half = 1 << (n_bits - 1)
            for theta_turns in ADMISSIBLE_THETA_TURNS:
                theta = ExactAngle(theta_turns)
                folded = theta_turns if theta_turns <= Fraction(1, 2) else 1 - theta_turns
                expected = (1 + cos_exact(ExactAngle(folded))) / 2
                for k in range(half):
                    s = sample(n_bits, theta, ExactAngle(Fraction(k, half)))
                    assert fraction(s) == expected


def test_04_multiqubit_frequencies():
    with _timed("04 multiqubit-frequencies", 120.0):
        # 2-qubit: exhaustive over the admissible amplitude grid for N up to 10
        _assert_passed(checks.two_qubit_gamma_table(range(4, 11)))
        # Bell: agreement and correlation exact for every describable amplitude
        _assert_passed(checks.bell_agreement_correlation(10, stride=1))
        # 3 qubits: exhaustive against the inductive amplitude expander at the
        # smallest fully realizable N, spot-checked at N=10
        _assert_passed(checks.three_qubit_vs_expander(6))
        _assert_passed(checks.three_qubit_vs_expander(10, count=100, seed=4))


def test_05_chsh():
    with _timed("05 chsh", 60.0):
        report = chsh_run(
            ChshConfig(20, ExactAngle(Fraction(0)), ExactAngle(Fraction(1, 4)),
                       ExactAngle(Fraction(1, 8)), ExactAngle(Fraction(3, 8)))
        )
        with mpmath.workprec(240):
            s = to_mpf(report.s_value)
            assert abs(s - 2 * mpmath.sqrt(2)) < mpmath.mpf(2) ** -10
        for actual, row in report.admissibility.items():
            for cf, cell in row.items():
                if cf != actual:
                    assert cell["verdict"] == "excluded"
                    assert cell["reason"] in ("irrational_sine", "pythagorean_obstruction")
        _assert_passed(checks.pythagorean_empty())


def test_06_padic_properties():
    with _timed("06 padic", 60.0):
        _assert_passed(checks.padic_laws(10_000, levels=13, seed=6))


def test_07_rational_cosine_grid():
    with _timed("07 rational-cosine-grid", 120.0):
        _assert_passed(checks.rational_cosine_grid(100))


def test_08_mach_zehnder():
    with _timed("08 mach-zehnder", 60.0):
        n_bits = 10
        half = 1 << (n_bits - 1)
        both = set()
        for k in range(half):
            report = mz_run("which_way", ExactAngle(Fraction(k, half)), n_bits)
            assert report.probabilities["D_b"] == Fraction(1, 2)
            if report.amplitude_gate:
                both.add(Fraction(k, half))
        for turns, expected in ((Fraction(0), Fraction(1)), (Fraction(1, 6), Fraction(3, 4)),
                                (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 4)),
                                (Fraction(1, 2), Fraction(0))):
            report = mz_run("interference", ExactAngle(turns), n_bits)
            assert report.probabilities["D_c"] == expected
        assert both == {Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)}


def test_09_pbr():
    with _timed("09 pbr", 120.0):
        rng = random.Random(9)
        with mpmath.workprec(240):
            tol = mpmath.mpf(2) ** -100
            for _ in range(1000):
                at = Fraction(rng.randrange(0, 720), 720)
                bt = Fraction(rng.randrange(0, 720), 720)
                tt = Fraction(rng.randrange(0, 360), 720)
                x, z = pbr_values(ExactAngle(at), ExactAngle(bt), ExactAngle(tt))
                amps = amplitude_table_mp([tt] * 3, [(at - bt) % 1, (at - bt) % 1, (-bt) % 1])
                a = amps[0b00] + amps[0b11]
                b = amps[0b01] + amps[0b10]
                xv = to_mpf(x) if isinstance(x, Fraction) else x
                zv = to_mpf(z) if isinstance(z, Fraction) else z
                assert abs(xv - abs(a) ** 2) < tol
                assert abs(zv - (abs(a - b) ** 2 - 2 * abs(b) ** 2)) < tol
        # bisection oracle for a null of Z
        alpha, beta = ExactAngle(Fraction(1, 2)), ExactAngle(Fraction(1, 6))
        with mpmath.workprec(320):

            def z_at(t):
                turns = Fraction(int(t * (1 << 200)), 1 << 200)
                return pbr_values(alpha, beta, ExactAngle(turns), prec=320)[1]

            lo, hi = mpmath.mpf(1) / 1000, mpmath.mpf(1) / 4
            assert z_at(lo) > 0 > z_at(hi)
            for _ in range(260):
                mid = (lo + hi) / 2
                if z_at(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            root = (lo + hi) / 2
            assert abs(z_at(root)) < mpmath.mpf(2) ** -60
            root_turns = Fraction(int(root * (1 << 200)), 1 << 200)
            assert pbr_values(alpha, beta, ExactAngle(root_turns), prec=320)[0] > 0
        assert pbr_simultaneity(ExactAngle(Fraction(1, 2)), ExactAngle(Fraction(1, 6)), 8).excluded
        assert not pbr_simultaneity(ExactAngle(Fraction(5, 32)), ExactAngle(Fraction(0)), 8).excluded


def test_10_dirac():
    with _timed("10 dirac", 60.0):
        _assert_passed(checks.rest_period(range(3, 17)))
        # helicity opposition on shadows
        n_bits = 8
        comps = tuple(
            phase_string(n_bits, ExactAngle(Fraction(r, 1 << (n_bits - 1))), f"s{i+1}")
            for i, r in enumerate((3, 5, 7, 11))
        )
        psi = spinor(n_bits, comps)
        for n in (1, 5, 17):
            stepped = rest_step(psi, n)
            for idx, sign in ((0, 1), (1, 1), (2, -1), (3, -1)):
                before = hilbert_shadow(psi.components[idx]).phase_turns
                after = hilbert_shadow(stepped.components[idx]).phase_turns
                assert (after - before) % 1 == Fraction(sign * n, 1 << (n_bits - 1)) % 1
        _assert_passed(checks.skeleton_matches_gamma(8) + checks.dispersion_3_4_5())
        assert dispersion_check(1, (0, 0, 0)).omega == 1
        # finite-N shadow action equals complex action under roots of unity
        psi = spinor(n_bits, comps, mass=3, wavevector=(4, 1, 2))
        steps = (5, 3, 2, 7)
        mat = evolution_matrix(0, steps[0], n_bits)
        for axis in (1, 2, 3):
            mat = mat @ evolution_matrix(axis, steps[axis], n_bits)
        evolved = full_evolve(psi, *steps)
        in_turns = [hilbert_shadow(c).phase_turns for c in psi.components]
        for row in range(4):
            col = mat.cols[row]
            predicted = (mat.entry_phase_turns(row, col) + in_turns[col]) % 1
            assert hilbert_shadow(evolved.components[row]).phase_turns == predicted


def test_11_cli_reproducibility(tmp_path):
    with _timed("11 cli-reproducibility", 60.0):
        config = {"n_bits": 12, "angles": {"A1": "0", "A2": "1/4", "B1": "1/8", "B2": "3/8"}}
        cfg = tmp_path / "chsh.json"
        cfg.write_text(json.dumps(config))
        hashes = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert cli_main(["chsh", "--config", str(cfg), "--out", str(out)]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())["output_sha256"])
        assert hashes[0] == hashes[1]
        mz_cfg = tmp_path / "mz.json"
        mz_cfg.write_text(json.dumps({"n_bits": 10, "mode": "which_way", "phi_turns": "5/256"}))
        mz_hashes = []
        for run in ("m1", "m2"):
            out = tmp_path / run
            assert cli_main(["mz", "--config", str(mz_cfg), "--out", str(out)]) == 0
            mz_hashes.append(json.loads((out / "manifest.json").read_text())["output_sha256"])
        assert mz_hashes[0] == mz_hashes[1]
