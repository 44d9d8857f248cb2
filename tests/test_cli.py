import csv
import enum
import hashlib
import io
import json
import math
import random
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import accumulate, chain

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import invset
from invset import checks, cli, padic
from invset import dirac as dirac_mod
from invset import report as report_mod
from invset.cli import (CHSH_N_BITS_BOUND, COMMANDS, MZ_N_BITS_BOUND, SCHEMAS, TRACE_LENGTH_BOUND, build_parser,
                        main)
from invset.exactmath import ExactAngle
from invset.report import _stable_json
from invset.padic import cantor_iterates, cantor_numerators
from invset.samplespace import rotation_table

OPTIMAL_CHSH = {
    "n_bits": 12,
    "angles": {"A1": "0", "A2": "1/4", "B1": "1/8", "B2": "3/8"},
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


class TestChshCommand:
    def test_happy_path(self, tmp_path):
        cfg = write_config(tmp_path, "chsh.json", OPTIMAL_CHSH)
        out = tmp_path / "out"
        assert main(["chsh", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["n_bits"] == 12
        assert "/" in report["s_value"]
        assert set(report["sub_ensembles"]) == {"A1B1", "A1B2", "A2B1", "A2B2"}
        assert (out / "report.csv").exists()
        manifest = read_json(out / "manifest.json")
        assert manifest["tool"] == "invset" and manifest["command"] == "chsh"

    def test_all_zero_gives_s_two(self, tmp_path):
        cfg = write_config(
            tmp_path, "z.json", {"n_bits": 8, "angles": {"A1": "0", "A2": "0", "B1": "0", "B2": "0"}}
        )
        out = tmp_path / "out"
        assert main(["chsh", "--config", cfg, "--out", str(out)]) == 0
        assert read_json(out / "report.json")["s_value"] == "2/1"

    def test_reproducible_output_hash(self, tmp_path):
        cfg = write_config(tmp_path, "chsh.json", OPTIMAL_CHSH)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["chsh", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["chsh", "--config", cfg, "--out", str(out2)]) == 0
        m1, m2 = read_json(out1 / "manifest.json"), read_json(out2 / "manifest.json")
        assert m1["output_sha256"] == m2["output_sha256"]
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_tiny_window_exits_two(self, tmp_path):
        payload = dict(OPTIMAL_CHSH, window_turns="1/1099511627776")
        cfg = write_config(tmp_path, "w.json", payload)
        assert main(["chsh", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_missing_angles_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"n_bits": 8})
        assert main(["chsh", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_unreadable_config_exits_one(self, tmp_path):
        assert main(["chsh", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]) == 1
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["chsh", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1


class TestMzCommand:
    def test_which_way(self, tmp_path):
        cfg = write_config(tmp_path, "mz.json", {"n_bits": 10, "mode": "which_way", "phi_turns": "5/256"})
        out = tmp_path / "out"
        assert main(["mz", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["probabilities"]["D_b"] == "1/2"
        assert report["counterfactual_admissible"] is False

    def test_excluded_phase_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "mz.json", {"n_bits": 10, "mode": "which_way", "phi_turns": "1/3"})
        assert main(["mz", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_format_json_only(self, tmp_path):
        cfg = write_config(tmp_path, "mz.json", {"n_bits": 8, "mode": "interference", "phi_turns": "1/6"})
        out = tmp_path / "out"
        assert main(["mz", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        assert (out / "report.json").exists()
        assert not (out / "report.csv").exists()


class TestPbrCommand:
    def test_exact_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "pbr.json",
            {"n_bits": 8, "alpha_turns": "1/2", "beta_turns": "1/6", "theta_turns": "1/4"},
        )
        out = tmp_path / "out"
        assert main(["pbr", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["X"]["exact"] == "3/4"
        assert report["Z"]["exact"] == "-1/4"
        assert report["simultaneity"]["verdict"] == "sum_excluded"

    def test_numeric_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "pbr.json",
            {"n_bits": 8, "alpha_turns": "1/10", "beta_turns": "1/7", "theta_turns": "1/9"},
        )
        out = tmp_path / "out"
        assert main(["pbr", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["X"]["exact"] is None
        assert report["simultaneity"]["applicable"] is False
        # the one report.csv with empty fields
        assert read_json(out / "manifest.json")["output_sha256"] == (
            "0df21be21797c9d056c5beddf13fb4898d754217d5020110c5d01907bef77560")

    def test_zero_beta_is_degenerate(self, tmp_path):
        # sin(beta) = 0: admissible although cos(alpha - 2beta) is irrational
        cfg = write_config(
            tmp_path,
            "pbr.json",
            {"n_bits": 8, "alpha_turns": "1/10", "beta_turns": "0", "theta_turns": "1/4"},
        )
        out = tmp_path / "out"
        assert main(["pbr", "--config", cfg, "--out", str(out)]) == 0
        sim = read_json(out / "report.json")["simultaneity"]
        assert sim == {"applicable": True, "verdict": "both_admissible", "reason": "describable"}


class TestSampleCommand:
    def test_table_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sample", "--n-bits", "4", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["strings"][0] == "0000101011110101"

    def test_table_lines_are_the_rotation_table(self, tmp_path):
        # the command rotates one label text by 2k labels for a pair-shift by k; rotation_table applies pair_shift
        for n_bits in range(3, 17):
            out = tmp_path / str(n_bits)
            assert main(["sample", "--n-bits", str(n_bits), "--out", str(out)]) == 0
            table = rotation_table(n_bits)
            assert read_json(out / "report.json")["strings"] == table
            rows = list(csv.reader(io.StringIO((out / "report.csv").read_text(), newline="")))
            assert rows == [["name", "labels"], *([f"shift_{k}", line] for k, line in zip((0, 1, 2, 4), table))]

    def test_construction_report(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {"n_bits": 5, "theta_turns": "1/6", "phi_turns": "1/16"})
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["fraction"] == "3/4"
        assert report["descriptor"] == {"n_bits": 5, "rotation": 1, "theta_count": 24}

    def test_gate_failure_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {"n_bits": 5, "theta_turns": "1/5", "phi_turns": "0"})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_n20_table_is_linear_time(self, tmp_path):
        # four strings of 2**20 labels; label-by-label text I/O took about 2 minutes on a 2-vCPU VM
        start = time.perf_counter()
        assert main(["sample", "--n-bits", "20", "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 3.0


class TestPadicCommand:
    def test_full_report(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "p.json",
            {
                "p": 2,
                "pairs": [["7", "3"], ["15", "7"]],
                "cantor_level": 2,
                "probe": {"a_digits": [1, 0, 0, 0], "b_off": "5/4"},
            },
        )
        out = tmp_path / "out"
        assert main(["padic", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert [d["distance"] for d in report["distances"]] == ["1/4", "1/8"]
        assert len(report["cantor_intervals"]) == 4
        assert report["probe"]["padic_gap"] == "4/1"


class TestDiracCommand:
    def test_rest_frame_full_period_identity(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "d.json",
            {"n_bits": 6, "mass": "1", "wavevector": ["0", "0", "0"], "steps": [32, 0, 0, 0], "trace_length": 2},
        )
        out = tmp_path / "out"
        assert main(["dirac", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["physical"] is True and report["omega"] == "1/1"
        trace = report["trace"]
        assert trace[0]["components"] == trace[1]["components"] == trace[2]["components"]

    def test_moving_frame_trace(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "d.json",
            {"n_bits": 6, "mass": "3", "wavevector": ["4", "0", "0"], "steps": [1, 1, 0, 0], "trace_length": 3},
        )
        out = tmp_path / "out"
        assert main(["dirac", "--config", cfg, "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["omega"] == "5/1"
        assert (out / "report.csv").read_text().splitlines()[0] == "step,component,phase_turns,first_count"

    def test_trace_at_the_bound_runs_in_seconds(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {"mass": "3", "wavevector": ["4", "0", "0"], "steps": [1, 1, 0, 0],
                                                "trace_length": TRACE_LENGTH_BOUND})
        start = time.perf_counter()
        assert main(["dirac", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 10.0
        assert len(read_json(tmp_path / "o" / "report.json")["trace"]) == TRACE_LENGTH_BOUND + 1


# The large-N runs that .github/large_n_smoke.py bounds in time and peak RSS,
# and the output_sha256 each gives: (command, config, --format, output_sha256).
LARGE_N_DIRAC = {"mass": "3", "wavevector": ["4", "0", "0"], "steps": [1, 1, 0, 0], "trace_length": TRACE_LENGTH_BOUND}
LARGE_N_PINS = {
    "padic-3-12": ("padic", {"p": 3, "pairs": [], "cantor_level": 12}, "both",
                   "f1675e8c3e1e447de6a55f98a0c1c80989781018da1814d2db353ae75806611e"),
    "chsh-1000": ("chsh", dict(OPTIMAL_CHSH, n_bits=1000), "both",
                  "bcf8176e819630bd996d8e5d9dec731f7957c42229c156c68fa6115a04c3e73f"),
    "chsh-8192": ("chsh", dict(OPTIMAL_CHSH, n_bits=CHSH_N_BITS_BOUND), "both",
                  "61be323bf55e3483990a3933b77173a7c2544f54d9ba7c51b8ef378f183c0c81"),
    "dirac-24": ("dirac", {"n_bits": 24, **LARGE_N_DIRAC}, "both",
                 "8f25630d645d37041d6995ec6c566156b8cfc420ea522e189dcc3f6f505611bc"),
    "dirac-14000-json": ("dirac", {"n_bits": 14000, **LARGE_N_DIRAC}, "json",
                         "df1437a64d973b731246b2cdc2dddb8b4cc4fdabdf9ab0b5b6b8ae56c8561783"),
    "dirac-14000-both": ("dirac", {"n_bits": 14000, **LARGE_N_DIRAC}, "both",
                         "c7dc7cbf39a4d938f13d1b51bc8ff91627ce29da763e25edd896e504ef64bdb7"),
    "sample-24-json": ("sample", {"n_bits": 24}, "json",
                       "7865d4e2a9c9b61b85877b9dd751398a1e2b2564ffacfb3dcfeda6970f69ce21"),
    "sample-24-csv": ("sample", {"n_bits": 24}, "csv",
                      "344d6ed34bde802fd14d3de58bf58346c12f8b86d4a0daf76d515c5cd501f8b1"),
}


class TestLargeN:
    """Commands whose reports read only descriptors and closed forms run past
    the explicit-label limit of 2^24 labels; labels are built only where a
    report prints them."""

    @pytest.mark.parametrize("name", sorted(LARGE_N_PINS))
    def test_output_sha256_is_pinned(self, tmp_path, name):
        command, payload, fmt, sha = LARGE_N_PINS[name]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--format", fmt]) == 0
        assert read_json(tmp_path / "o" / "manifest.json")["output_sha256"] == sha

    @pytest.mark.parametrize("n_bits", [25, 40, 1000, CHSH_N_BITS_BOUND])
    def test_chsh_runs_at_large_n(self, tmp_path, n_bits):
        cfg = write_config(tmp_path, "c.json", dict(OPTIMAL_CHSH, n_bits=n_bits))
        start = time.perf_counter()
        assert main(["chsh", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < (1.0 if n_bits <= 1000 else 5.0)
        report = read_json(tmp_path / "o" / "report.json")
        assert abs(report["s_value_float_derived"] - 2 * math.sqrt(2)) < 1e-6

    @pytest.mark.parametrize("n_bits", [20, 40])
    def test_chsh_exact_tie_with_the_window_exits_two(self, tmp_path, capsys, n_bits):
        # B1 sits exactly one window from A1: the substitute cosine is 1, its angle 0
        tie = f"1/{1 << (n_bits - 2)}"
        angles = {"A1": "0", "A2": "0", "B1": tie, "B2": tie}
        cfg = write_config(tmp_path, "c.json", {"n_bits": n_bits, "angles": angles})
        assert main(["chsh", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"off the invariant set: no describable angle within {tie} turns of {tie} at N={n_bits}\n")

    def test_dirac_trace_at_the_bound_at_n24(self, tmp_path):
        cfg = write_config(tmp_path, "d.json", {"n_bits": 24, "mass": "3", "wavevector": ["4", "0", "0"],
                                                "steps": [1, 1, 0, 0], "trace_length": TRACE_LENGTH_BOUND})
        start = time.perf_counter()
        assert main(["dirac", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 1.0
        assert len(read_json(tmp_path / "o" / "report.json")["trace"]) == TRACE_LENGTH_BOUND + 1

    @pytest.mark.parametrize("mode,sha", [
        ("which_way", "0479e3cf455f931d38f2d2f36bc2d06b8feb5a7906ad3a7565e2ec600d2ff7c1"),
        ("interference", "e38888ac689d6099e3cf6ad2f378613dc160ae6b694ab482188c6cb6c3d0c338"),
    ])
    def test_mz_runs_at_its_bound(self, tmp_path, mode, sha):
        cfg = write_config(tmp_path, "m.json", {"n_bits": MZ_N_BITS_BOUND, "mode": mode, "phi_turns": "1/4"})
        assert main(["mz", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert read_json(tmp_path / "o" / "manifest.json")["output_sha256"] == sha

    def test_pbr_runs_at_any_n(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {"n_bits": 10**30, "alpha_turns": "1/2", "beta_turns": "1/6",
                                                "theta_turns": "1/4"})
        assert main(["pbr", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert read_json(tmp_path / "o" / "report.json")["X"]["exact"] == "3/4"

    def test_sample_above_the_limit_still_exits_one(self, tmp_path, capsys):
        # its report prints every label, so it keeps the explicit-label limit
        cfg = write_config(tmp_path, "s.json", {"n_bits": 30, "theta_turns": "1/4", "phi_turns": "1/8"})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: config key 'n_bits': 2**30 labels exceed the explicit limit\n"
        assert not (tmp_path / "o").exists()


@pytest.fixture
def digit_limit():
    saved = sys.get_int_max_str_digits()
    try:
        yield sys.set_int_max_str_digits
    finally:
        sys.set_int_max_str_digits(saved)


class TestNBitsDigitLimit:
    """chsh and dirac print numbers below 2**(N+1), so their n_bits must leave
    2**(N+1) printable under Python's digit limit for integer strings."""

    @pytest.mark.parametrize("n_bits", [4000, 2126])
    def test_chsh_exits_one_naming_n_bits(self, tmp_path, capsys, digit_limit, n_bits):
        # at N = 2126, 2**N has 640 digits but S's numerator has 641
        digit_limit(640)
        angles = {"A1": "0", "A2": "1/8", "B1": "1/16", "B2": "3/16"}
        cfg = write_config(tmp_path, "c.json", {"n_bits": n_bits, "angles": angles})
        assert main(["chsh", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config key 'n_bits': 2**{n_bits + 1} exceeds the digit limit 640"]
        assert main(["chsh", "--config", cfg, "--n-bits", "2125", "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("n_bits", [20000, 10**9])
    def test_dirac_exits_one_naming_n_bits(self, tmp_path, capsys, n_bits):
        start = time.perf_counter()
        assert main(["dirac", "--n-bits", str(n_bits), "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.splitlines() == [
            f"error: config key 'n_bits': 2**{n_bits + 1} exceeds the digit limit 4300"]

    def test_dirac_below_the_limit_keeps_its_report(self, tmp_path):
        assert main(["dirac", "--n-bits", "14000", "--out", str(tmp_path / "o")]) == 0
        assert read_json(tmp_path / "o" / "manifest.json")["output_sha256"] == (
            "dafeb11d257dde1dfa46e89acff9029b562e0a6f9f1c133057b1aeec44a69866")

    def test_a_limit_of_zero_checks_nothing(self, tmp_path, digit_limit):
        digit_limit(0)
        assert main(["dirac", "--n-bits", "20000", "--out", str(tmp_path / "o")]) == 0


def _full_fraction(value) -> Fraction:
    """cli._fraction without its fast path: the exponent and printability
    checks on every text."""
    text = str(value)
    head, _, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    limit = sys.get_int_max_str_digits()
    if head and limit and digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise ValueError(f"decimal exponent {exponent.strip()} exceeds the digit limit {limit}")
    fr = Fraction(text)
    if not cli._printable(fr):
        raise ValueError(f"{text} exceeds the digit limit {limit}")
    return fr


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def _texts(n):
    """Rational texts of exactly n characters: signs, whitespace, underscores,
    decimals, ratios, exponents and junk."""
    half = n // 2
    return [
        "9" * n, "-" + "9" * (n - 1), "+" + "0" * (n - 2) + "7", " \t" + "1" * (n - 3) + "\n",
        "1" + "_2" * ((n - 1) // 2) + "3" * ((n - 1) % 2),
        "0." + "0" * (n - 3) + "1", "." + "0" * (n - 2) + "1", "-." + "9" * (n - 2),
        "9" * half + "." + "9" * (n - half - 1),
        " " + "3" * (half - 1) + "/" + "7" * (n - half - 2) + " ", "1/" + "0" * (n - 2),
        "1" * half + "/" + "2_5" * ((n - half - 1) // 3) + "5" * ((n - half - 1) % 3),
        "1" * (n - 5) + "e-100", "1" * (n - 4) + "E+99", "x" * n, "1/2/" + "3" * (n - 4),
    ]


class TestFractionFastPath:
    """A text with no exponent and no longer than the digit limit skips the
    checks; every text parses and fails as it does with them."""

    @pytest.mark.parametrize("limit", [4300, 640, 0])
    def test_equals_the_full_route(self, digit_limit, limit):
        digit_limit(limit)
        for n in (640, 641, 4300, 4301):
            for text in _texts(n):
                assert len(text) == n
                assert _outcome(cli._fraction, text) == _outcome(_full_fraction, text), text[:40]
                if n == limit and "e" not in text.lower():
                    assert _outcome(cli._fraction, text + "0") == _outcome(_full_fraction, text + "0")

    def test_short_texts(self):
        for text in ["7", "-3/4", " 0.125 ", "1_000/3", "1e-3", "2.5E2", "-.5", "1/0", "", "e", "nan", "1e"]:
            assert _outcome(cli._fraction, text) == _outcome(_full_fraction, text)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("mz", {"n_bits": 10, "mode": "which_way", "phi_turns": "1/0"},
             "error: config key 'phi_turns': Fraction(1, 0)"),
            # these ids leave out the key prefix, so each case keeps the name it had before its message named the key
            pytest.param("sample", {"n_bits": 30, "theta_turns": "1/4", "phi_turns": "1/8"},
                         "error: config key 'n_bits': 2**30 labels exceed the explicit limit",
                         id="sample-payload1-error: 2**30 labels exceed the explicit limit"),
            pytest.param("padic", {"p": 2, "cantor_level": 30},
                         "error: config key 'cantor_level': 2**30 intervals exceed the bound 1048576",
                         id="padic-payload2-error: 2**30 intervals exceed the bound 1048576"),
            ("chsh", {"n_bits": 16, "angles": {"A1": "0", "A2": "1/4", "B1": "1/8"}},
             "error: config is missing 'B2'"),
            ("chsh", {"n_bits": 16, "angles": "x"}, "error: config key 'angles' must be a JSON object"),
            ("dirac", {"steps": 5}, "error: config key 'steps': expected a list of 4 items, got 5"),
            ("dirac", {"wavevector": ["1", "2"]},
             "error: config key 'wavevector': expected a list of 3 items, got ['1', '2']"),
            ("padic", {"p": 2, "probe": {"a_digits": [1, 0, 0, 0]}}, "error: config is missing 'b_off'"),
            ("sample", {"n_bits": 0}, "error: config key 'n_bits': 0 is below the minimum 3"),
            ("sample", {"n_bits": -3}, "error: config key 'n_bits': -3 is below the minimum 3"),
            ("dirac", {"n_bits": 0}, "error: config key 'n_bits': 0 is below the minimum 3"),
            ("dirac", {"n_bits": -3}, "error: config key 'n_bits': -3 is below the minimum 3"),
            ("chsh", dict(OPTIMAL_CHSH, n_bits=1), "error: config key 'n_bits': 1 is below the minimum 3"),
            ("dirac", {"trace_length": -1}, "error: config key 'trace_length': -1 is below the minimum 0"),
            ("chsh", dict(OPTIMAL_CHSH, window_turn="1/64"),
             "error: unknown config key 'window_turn'; expected one of angles, n_bits, window_turns"),
            ("mz", {"n_bits": 10.5, "phi_turns": "0"}, "error: config key 'n_bits': expected an integer, got 10.5"),
            ("pbr", ["n_bits", 8], "error: config must be a JSON object"),
            # the id leaves out the key prefix, so the case keeps the name it had before its message named the key
            pytest.param("padic", {"p": 2**89 - 1},
                         f"error: config key 'p': primality of {2**89 - 1} is decided exactly only below "
                         "3317044064679887385961981",
                         id=f"padic-payload17-error: primality of {2**89 - 1} is decided exactly only below "
                            "3317044064679887385961981"),
            ("padic", {"p": 4, "pairs": [], "cantor_level": 2}, "error: config key 'p': 4 is not prime"),
            ("chsh", dict(OPTIMAL_CHSH, n_bits=8, window_turns="-1"),
             "error: config key 'window_turns': -1 is not positive"),
            ("chsh", dict(OPTIMAL_CHSH, n_bits=8, window_turns="0"),
             "error: config key 'window_turns': 0 is not positive"),
            ("chsh", dict(OPTIMAL_CHSH, window_turns="1e4300\n"),
             "error: config key 'window_turns': 1e4300\\n exceeds the digit limit 4300"),
            ("mz", {"n_bits": 10, "mode": 5, "phi_turns": "0"},
             "error: config key 'mode': unknown mode 5; expected which_way or interference"),
            ("mz", {"n_bits": 10, "mode": None, "phi_turns": "0"},
             "error: config key 'mode': unknown mode None; expected which_way or interference"),
            ("mz", {"n_bits": 10, "mode": "bogus", "phi_turns": "0"},
             "error: config key 'mode': unknown mode 'bogus'; expected which_way or interference"),
            ("padic", {"p": 2, "pairs": [["1/0", "1"]]}, "error: config key 'pairs': Fraction(1, 0)"),
            ("padic", {"p": 2, "probe": {"a_digits": [1], "b_off": "1/0"}},
             "error: config key 'b_off': Fraction(1, 0)"),
            ("chsh", {"n_bits": 8, "angles": {**OPTIMAL_CHSH["angles"], "B1": "1/0"}},
             "error: config key 'B1': Fraction(1, 0)"),
            ("pbr", {"n_bits": 8, "alpha_turns": "0", "beta_turns": "0", "theta_turns": "3/0"},
             "error: config key 'theta_turns': Fraction(3, 0)"),
            ("padic", {"p": 2, "probe": {"a_digits": [], "b_off": "1/2"}},
             "error: config key 'a_digits': at least one digit required"),
            ("padic", {"p": 3, "probe": {"a_digits": [5], "b_off": "1/3"}},
             "error: config key 'a_digits': digits must lie in 0..2"),
            ("padic", {"p": 3, "probe": {"a_digits": [1], "b_off": "3"}},
             "error: config key 'b_off': ord_3(3) >= 0: probe point must lie outside the p-adic integers"),
        ],
    )
    def test_exits_one_with_one_line(self, tmp_path, capsys, command, payload, message):
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [message]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, payload, message",
        [
            # these ids leave out the key prefix, so each case keeps the name it had before its message named the key
            pytest.param("padic", {"p": 3, "pairs": [], "cantor_level": 100_000_000},
                         "error: config key 'cantor_level': 3**100000000 intervals exceed the bound 1048576",
                         id="padic-payload0-error: 3**100000000 intervals exceed the bound 1048576"),
            pytest.param("padic", {"p": 2, "pairs": [], "cantor_level": 1_000_000_000},
                         "error: config key 'cantor_level': 2**1000000000 intervals exceed the bound 1048576",
                         id="padic-payload1-error: 2**1000000000 intervals exceed the bound 1048576"),
            ("dirac", {"trace_length": 100_000_000},
             "error: config key 'trace_length': 100000000 exceeds the bound 4096"),
            ("dirac", {"trace_length": 4097}, "error: config key 'trace_length': 4097 exceeds the bound 4096"),
            ("dirac", {"mass": "1e1000000"},
             "error: config key 'mass': decimal exponent 1000000 exceeds the digit limit 4300"),
            ("dirac", {"mass": "1e10000000"},
             "error: config key 'mass': decimal exponent 10000000 exceeds the digit limit 4300"),
            ("chsh", {"n_bits": 12, "angles": {**OPTIMAL_CHSH["angles"], "B2": "1e-1000000"}},
             "error: config key 'B2': decimal exponent -1000000 exceeds the digit limit 4300"),
            ("mz", {"n_bits": 8, "phi_turns": "1E+1000000"},
             "error: config key 'phi_turns': decimal exponent +1000000 exceeds the digit limit 4300"),
            ("padic", {"p": 2, "pairs": [["7", "1e-1000000"]]},
             "error: config key 'pairs': decimal exponent -1000000 exceeds the digit limit 4300"),
            ("dirac", {"mass": "1e2200"},
             "error: config keys 'mass' and 'wavevector': omega^2 exceeds the digit limit 4300"),
            ("dirac", {"mass": "1e4300"}, "error: config key 'mass': 1e4300 exceeds the digit limit 4300"),
            ("chsh", dict(OPTIMAL_CHSH, n_bits=8193), "error: config key 'n_bits': 8193 exceeds the bound 8192"),
            ("chsh", dict(OPTIMAL_CHSH, n_bits=10**9),
             "error: config key 'n_bits': 1000000000 exceeds the bound 8192"),
            ("padic", {"p": 2, "probe": {"a_digits": [1] * 10**5, "b_off": "5/4"}},
             "error: config key 'a_digits': 2**100000 exceeds the digit limit 4300"),
            ("padic", {"p": 1_000_000_007, "probe": {"a_digits": [1] * 200_000, "b_off": "1/1000000007"}},
             "error: config key 'a_digits': 1000000007**200000 exceeds the digit limit 4300"),
            ("padic", {"p": 2, "probe": {"a_digits": [0] * 14285, "b_off": "5/4"}},
             "error: config key 'a_digits': 2**14285 exceeds the digit limit 4300"),
            ("padic", {"p": 2, "probe": {"a_digits": [1] * 14284, "b_off": "5/4"}},
             "error: config keys 'a_digits' and 'b_off': the Euclidean gap exceeds the digit limit 4300"),
            # r*u - 1 = 2**21000: the distance's denominator has 6,322 digits
            ("padic", {"p": 2, "pairs": [["1", "2"], [str(2**14000 - 2**7000 + 1), f"1/{2**7000 + 1}"]]},
             "error: config key 'pairs': the 2-adic distance of pair 1 exceeds the digit limit 4300"),
            ("mz", {"n_bits": 10**30, "phi_turns": "1/4"},
             f"error: config key 'n_bits': {10**30} exceeds the bound {MZ_N_BITS_BOUND}"),
            ("mz", {"n_bits": MZ_N_BITS_BOUND + 1, "phi_turns": "1/4"},
             f"error: config key 'n_bits': {MZ_N_BITS_BOUND + 1} exceeds the bound {MZ_N_BITS_BOUND}"),
            pytest.param("sample", {"n_bits": 10**30},
                         f"error: config key 'n_bits': 2**{10**30} labels exceed the explicit limit",
                         id=f"sample-payload20-error: 2**{10**30} labels exceed the explicit limit"),
            pytest.param("sample", {"n_bits": 10**30, "theta_turns": "1/4", "phi_turns": "1/8"},
                         f"error: config key 'n_bits': 2**{10**30} labels exceed the explicit limit",
                         id=f"sample-payload21-error: 2**{10**30} labels exceed the explicit limit"),
            # the digit count is checked before any digit is parsed, so a bad digit is not reached
            ("padic", {"p": 2, "probe": {"a_digits": ["x"] * 20_000, "b_off": "5/4"}},
             "error: config key 'a_digits': 2**20000 exceeds the digit limit 4300"),
        ],
    )
    def test_huge_sizes_exit_one_at_once(self, tmp_path, capsys, command, payload, message):
        cfg = write_config(tmp_path, "big.json", payload)
        start = time.perf_counter()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize(
        "command, payload, code, line",
        [
            ("padic", {"p": 2, "probe": {"a_digits": [1, 0, 1], "b_off": "5/" + "3" * 4300}}, 1,
             "error: config key 'b_off': ord_2(5/33333333333333333333...(4300 digits)) >= 0: probe point must lie"
             " outside the p-adic integers"),
            ("padic", {"p": 2, "pairs": [["x" * 5000, "1"]]}, 1,
             "error: config key 'pairs': Invalid literal for Fraction: '" + "x" * 239 + "..."),
            ("chsh", {"n_bits": 20, "angles": {"A1": "0", "A2": "0", "B1": "1/7", "B2": "1/7"},
                      "window_turns": "1/" + "9" * 4000}, 2,
             "off the invariant set: no describable angle within 1/99999999999999999999...(4000 digits) turns of 1/7"
             " at N=20"),
            ("padic", {"p": 2, "\u00e9" * 400: 1}, 1, "error: unknown config key '" + "\\xe9" * 67 + "\\x..."),
        ],
        ids=["padic-b_off", "padic-pairs", "chsh-window", "padic-non-ascii-key"],
    )
    def test_long_messages_print_one_bounded_line(self, tmp_path, capsys, command, payload, code, line):
        # a digit run past 40 digits keeps its first 20 and its count, a non-ASCII character is escaped,
        # and the line is cut at LINE_BOUND characters, which are bytes
        cfg = write_config(tmp_path, "long.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.splitlines() == [line]
        assert len(line.encode()) <= cli.LINE_BOUND

    def test_short_digit_runs_are_printed_whole(self):
        for message in ("error: 2**30 labels exceed", f"error: {10**30} exceeds the bound",
                        "1" * 40 + " and " + "2" * 40):
            assert cli._line(message) == message
        assert cli._line("1" * 41) == "11111111111111111111...(41 digits)"
        assert cli._line("x" * 301) == "x" * 297 + "..."
        assert cli._line("x" * 300) == "x" * 300

    def test_a_probe_below_the_digit_limit_runs(self, tmp_path):
        # 10**4 binary digits: a_value = 2**10000 - 1 has 3,011 decimal digits
        cfg = write_config(tmp_path, "c.json", {"p": 2, "probe": {"a_digits": [1] * 10**4, "b_off": "5/4"}})
        start = time.perf_counter()
        assert main(["padic", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 1.0
        assert read_json(tmp_path / "o" / "report.json")["probe"]["a_value"] == 2**10000 - 1

    def test_deeply_nested_config(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"n_bits": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: config nests JSON too deeply\n"


class TestNBitsOption:
    def test_override_is_checked_like_the_config_key(self, tmp_path, capsys):
        assert main(["sample", "--n-bits", "0", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: config key 'n_bits': 0 is below the minimum 3\n"

    def test_chsh_override_is_bounded_like_the_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", OPTIMAL_CHSH)
        assert main(["chsh", "--config", cfg, "--n-bits", "8193", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: config key 'n_bits': 8193 exceeds the bound 8192\n"

    def test_padic_has_no_n_bits_option(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["padic", "--n-bits", "4", "--out", str(tmp_path / "o")])


# Option values for the plain argv reader: blanks and padding, signs, digit
# separators, a non-ASCII digit, a non-number, an int past the digit limit,
# each format and one that is not, and paths holding "=" or starting with "-".
_ARGV_VALUES = ("", "0", " 7", "+7", "-7", "1_0", "\u0663", "abc", "9" * 5000, "json", "csv", "both", "xml",
                "out", "a=b", "-out", "--out")
# What argparse reads otherwise or refuses: an abbreviation, --flag=value, help,
# the end of options and an unknown flag.
_ARGV_EXTRAS = (["--conf", "c.json"], ["--config=c.json"], ["-h"], ["--"], ["--", "x"], ["--bogus", "x"], ["--out"])


def _argv_grid():
    """Argv for every command: each option with each value, and seeded draws of
    up to four option/value pairs (subsets, orders and repeats), each draw also
    with one of _ARGV_EXTRAS put in at a drawn place; and argv naming no
    command or an unknown one."""
    rng = random.Random(31)
    yield from ([], ["bogus"], ["-h"], ["--help"], ["bogus", "--out", "o"], ["--out", "o", "sample"])
    for command, (_, _, options) in COMMANDS.items():
        pairs = [[flag, value] for flag in options for value in _ARGV_VALUES]
        yield [command]
        yield from ([command, *pair] for pair in pairs)
        for _ in range(400):
            tokens = list(chain.from_iterable(rng.choices(pairs, k=rng.randint(1, 4))))
            yield [command, *tokens]
            at = rng.randrange(0, len(tokens) + 1, 2)
            yield [command, *tokens[:at], *rng.choice(_ARGV_EXTRAS), *tokens[at:]]


class TestParser:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["padic", "--n-bits", "4"], "error: unrecognized arguments: --n-bits 4"),
            (["sample", "--bogus"], "error: unrecognized arguments: --bogus"),
            (["sample", "--n-bits", "abc"], "error: argument --n-bits: invalid int value: 'abc'"),
            ([], "error: the following arguments are required: command"),
            (["sample", "--n-bits", "9" * 5000],
             "error: argument --n-bits: invalid int value: '99999999999999999999...(5000 digits)'"),
            (["sample", "--golden"], "error: unrecognized arguments: --golden"),
            (["padic", "--golden"], "error: unrecognized arguments: --golden"),
        ],
    )
    def test_usage_error_exits_one_with_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert capsys.readouterr().err.splitlines() == [message]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--help"])
        assert exc.value.code == 0
        assert "--n-bits" in capsys.readouterr().out

    def test_plain_reader_agrees_with_argparse(self, capsys):
        # the reader returns None or the Namespace argparse returns, and returns one for a good share of the grid
        plain = 0
        for argv in _argv_grid():
            args = cli._plain_args(argv)
            if args is None:
                continue
            try:
                expected = vars(build_parser().parse_args(argv))
            except SystemExit:
                pytest.fail(f"argparse refuses {argv!r}, which the plain reader took")
            assert vars(args) == expected, argv
            plain += 1
        capsys.readouterr()
        assert plain > 500

    @pytest.mark.parametrize("argv", [
        *([command] for command in COMMANDS),
        *([command, "--config", "c.json", "--out", "o", "--format", fmt, *(["--n-bits", "8"] * ("n_bits" in schema))]
          for command, schema in SCHEMAS.items() for fmt in ("json", "csv", "both")),
        ["check", "--suite", "algebra", "--seed", "3"],
    ], ids=" ".join)
    def test_readme_synopsis_forms_take_the_plain_path(self, argv):
        args = cli._plain_args(argv)
        assert args is not None and vars(args) == vars(build_parser().parse_args(argv))

    def test_main_reads_sys_argv_on_both_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["invset", "sample", "--n-bits", "5", "--out", str(tmp_path / "plain")])
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", None)  # the plain path builds no parser
            assert main() == 0
        monkeypatch.setattr(sys, "argv", ["invset", "sample", "--n-bits", "5", f"--out={tmp_path / 'argparse'}"])
        assert main() == 0
        assert (tmp_path / "plain" / "report.csv").read_bytes() == (tmp_path / "argparse" / "report.csv").read_bytes()
        monkeypatch.setattr(sys, "argv", ["invset", "sample", "--bogus"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --bogus\n"

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_cached_parser_keeps_no_state(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", {"n_bits": 6, "theta_turns": "1/6", "phi_turns": "1/32"})
        padic_cfg = write_config(tmp_path, "p.json", README_CONFIGS["padic"][0])
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["padic", "--config", padic_cfg, "--format", "json", "--out", str(tmp_path / "p")]) == 0
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        shas = [read_json(tmp_path / d / "manifest.json")["output_sha256"] for d in "ab"]
        assert shas[0] == shas[1]
        assert sorted(path.name for path in (tmp_path / "b").iterdir()) == ["manifest.json", "report.csv",
                                                                             "report.json"]


class TestMillerRabinPrime:
    def test_mersenne_61_runs_in_under_a_second(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", {"p": 2**61 - 1, "pairs": [["1/3", "5"], ["7", "7"]]})
        start = time.perf_counter()
        assert main(["padic", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert time.perf_counter() - start < 1.0
        assert read_json(tmp_path / "o" / "report.json")["distances"][1]["distance"] == "0/1"


# The six README example configs and the output_sha256 each gave before the
# config schema replaced the per-command parsers: refactors keep these bytes.
README_CONFIGS = {
    "chsh": ({"n_bits": 20, "angles": {"A1": "0", "A2": "1/4", "B1": "1/8", "B2": "3/8"},
              "window_turns": "1/262144"},
             "21ce8ad789f02b6f7bcfc218bd18cf451e67a0ef90428698ffc7dc3d897433d9"),
    "mz": ({"n_bits": 10, "mode": "which_way", "phi_turns": "5/256"},
           "758d1398fa393210ee9ec1b5c1929e411dc900f27cae2a51029879efdd3308dc"),
    "pbr": ({"n_bits": 8, "alpha_turns": "1/2", "beta_turns": "1/6", "theta_turns": "1/4"},
            "186a3c190caffb84f01fdd1e5b36b7fec3f88659e551417c2f31d98cc46e5e98"),
    "sample": ({"n_bits": 5, "theta_turns": "1/6", "phi_turns": "1/16"},
               "3ddbbdc1f3a4b20276484d2dcb194ff96e7c5e3657fd1d8ef98a090318d8a9d7"),
    "padic": ({"p": 2, "pairs": [["7", "3"], ["15", "7"]], "cantor_level": 2,
               "probe": {"a_digits": [1, 0, 0, 0], "b_off": "5/4"}},
              "bd89a14f8e995d50347d5ec5dcf635e303caab4d68f42af2879c2bf8b7c526d5"),
    "dirac": ({"n_bits": 6, "mass": "3", "wavevector": ["4", "0", "0"], "steps": [1, 1, 0, 0], "trace_length": 4},
              "6a3cca48e921c0f87461beab4156a5eb2bc01c4848486dc0c905832733f51a75"),
}


class TestReadmeConfigs:
    @pytest.mark.parametrize("command", sorted(README_CONFIGS))
    def test_output_sha256_is_pinned(self, tmp_path, command):
        payload, sha = README_CONFIGS[command]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert read_json(tmp_path / "o" / "manifest.json")["output_sha256"] == sha

    def test_manifest_echoes_the_parsed_config_with_defaults(self, tmp_path):
        payload = README_CONFIGS["padic"][0]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["padic", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert read_json(tmp_path / "o" / "manifest.json")["config"] == payload
        cfg = write_config(tmp_path, "d.json", {"mass": "6/2"})
        assert main(["dirac", "--config", cfg, "--out", str(tmp_path / "d")]) == 0
        assert read_json(tmp_path / "d" / "manifest.json")["config"] == {
            "n_bits": 6, "mass": "3", "wavevector": ["0", "0", "0"], "steps": [1, 0, 0, 0], "trace_length": 4}


# Each command on its defaults or fewest keys, chsh with its default window and
# with one given, a padic probe and dirac's lists, with the input_sha256 each
# gave when manifest.json was built from a json.dumps/json.loads round trip.
MANIFEST_CONFIGS = {
    "chsh": ({"n_bits": 12, "angles": OPTIMAL_CHSH["angles"]},
             "fa52ce3113df3680d407c96e03768ba4be65a1700f59cc6c922cc61ae06408af"),
    "chsh-window": ({"n_bits": 20, "angles": {**OPTIMAL_CHSH["angles"], "B2": "0.375"}, "window_turns": "1/262144"},
                    "ecba2ff921585a42cc583bd879dd246a692cd45f4faafe3eaf573c727ee59b85"),
    "mz": ({"n_bits": 10, "phi_turns": "5/256"}, "240be8031fb5036d8cb27d38c8777ad69cdd9d860641b2f92c32e53f0681996d"),
    "pbr": ({"n_bits": 8, "alpha_turns": "1/2", "beta_turns": "1/6", "theta_turns": "-0.25"},
            "a5070efd3b916dcb59a44b294addbcf44c8e6adde8883527a7dfaa6a826d1e30"),
    "sample": ({}, "cd1c2f792f5860fada030574f74287a20335d5822c7638ce7f19d83f890e041e"),
    "sample-string": ({"n_bits": 5, "theta_turns": "1/6", "phi_turns": "1_0/160"},
                      "decb3374fbed6405d553f660acb968778fa6677dd6e22287d816126608bed351"),
    "padic": ({}, "26a8b83129ff7d27509000e09dd77bc5f2bb132882249e5a89ed8cc2fd56b34c"),
    "padic-probe": ({"p": 3, "pairs": [["-7/3", "5e2"], ["1/9", "2/3"]], "cantor_level": 2,
                     "probe": {"a_digits": [2, 1, 0], "b_off": "1/3"}},
                    "9f9d2e40eb524ac2d3f1d7dac0041747957219ee45395e48ea7f896ee4cc3735"),
    "dirac": ({}, "5502deebd59d695efdbb0f59146f5e3e437cab8157e1081f01123c11301d01ab"),
    "dirac-lists": ({"n_bits": 6, "mass": "6/2", "wavevector": ["4", "-0.5", "0"], "steps": [1, 1, 0, 2],
                     "trace_length": 4},
                    "97910f6007f476279928d9d42d9af58aa3bea220b8b755c7f7096f5a8f6bb3c3"),
}


class TestManifest:
    @pytest.mark.parametrize("name", sorted(MANIFEST_CONFIGS))
    def test_equals_the_round_trip_dict(self, tmp_path, monkeypatch, name):
        payload, input_sha256 = MANIFEST_CONFIGS[name]
        command = name.partition("-")[0]
        emitted = []

        def emit(args, cfg, *rest):
            emitted.append(cfg)
            return report_mod._emit(args, cfg, *rest)

        monkeypatch.setattr(cli, "_emit", emit)
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        written = (tmp_path / "o" / "manifest.json").read_bytes()
        manifest = json.loads(written)
        # the parsed config's rationals and angles as text, lists as JSON reads them back
        echo = json.loads(json.dumps(emitted[0], default=lambda v: str(v.turns if isinstance(v, ExactAngle) else v)))
        assert written == _stable_json({
            "tool": "invset",
            "version": invset.__version__,
            "command": command,
            "config": echo,
            "input_sha256": hashlib.sha256(_stable_json(echo)).hexdigest(),
            "timestamp_utc": manifest["timestamp_utc"],
            "output_sha256": manifest["output_sha256"],
        })
        assert manifest["input_sha256"] == input_sha256


# Scaled padic configs (Cantor levels up to 2**11 intervals, with pairs and a
# probe, and level 0) and the output_sha256 each gave before the report writer
# and the Cantor intervals were rewritten, and before the intervals were
# written from their numerators and streamed: all of these keep the bytes.
SCALED_PADIC_CONFIGS = {
    "2-8": ({"p": 2, "pairs": [["7", "3"], ["15", "7"], ["1/3", "5/9"]], "cantor_level": 8,
             "probe": {"a_digits": [1, 0, 1, 1], "b_off": "5/4"}},
            "82f82c39f7b4763537ab14622fbc809e24dc52d4b8463952437e5d6653f0fef2"),
    "3-5": ({"p": 3, "pairs": [["7", "3"], ["1/9", "2/3"]], "cantor_level": 5,
             "probe": {"a_digits": [2, 1, 0], "b_off": "1/3"}},
            "2fae1b9fd50ef4af384f48c4586dc42c383e6217c9689e4898f12b68c71b553f"),
    "5-4": ({"p": 5, "pairs": [["25", "3/5"], ["7", "2"]], "cantor_level": 4,
             "probe": {"a_digits": [4, 0, 3], "b_off": "2/25"}},
            "35f01737120bed6c479130eeee15b1bc38f91ea6091df9758ec8e95ad928b9cd"),
    "2-11": ({"p": 2, "pairs": [["7", "3"], ["15", "7"]], "cantor_level": 11,
              "probe": {"a_digits": [1, 0, 0, 0], "b_off": "5/4"}},
             "853da15b56547ebe1cafa583e06c104562e189a975e4c568cd1347f021daab8b"),
    "5-5": ({"p": 5, "pairs": [["25", "3/5"], ["7", "2"], ["1/5", "6/25"]], "cantor_level": 5,
             "probe": {"a_digits": [4, 0, 3, 1], "b_off": "3/25"}},
            "6b6d81134c53cd7cc1dc7da0616bd91162543bce90e1ff0dd609a0bb9be0ea11"),
    "3-7": ({"p": 3, "pairs": [["7", "3"], ["1/9", "2/3"], ["10", "1"]], "cantor_level": 7,
             "probe": {"a_digits": [2, 1, 0, 2], "b_off": "2/9"}},
            "8aef3035def2a9ce7d32e98924f1174c2be4c1c3a4f1dbbc62f5b56399b02fcf"),
    "2-0": ({"p": 2, "pairs": [["7", "3"]], "cantor_level": 0},
            "307c76e64201c5a4d14448838b83ea02f489d4d8c5ec96b3f706efa5a7000d79"),
    "13-0": ({"p": 13, "pairs": [["14", "1"], ["1/13", "2"]], "cantor_level": 0,
              "probe": {"a_digits": [12, 0, 5], "b_off": "1/13"}},
             "f0d9aa9e473644662af80d48201b86be9f7fe344009877d1c6ea3b935df84b2d"),
}
# The (2, 11) config's output_sha256 when only one report is written.
SCALED_PADIC_FORMATS = {"json": "f3734b6f8a3aaec8a8390834a20d32c95250edee2614d9d2998f0ed6a4173e3d",
                        "csv": "e4231fb1a37e5fefae376c04c6b720bb67182f864e264d847e72af1f44f865b3"}


class TestScaledPadicConfigs:
    @pytest.mark.parametrize("name", sorted(SCALED_PADIC_CONFIGS))
    def test_output_sha256_is_pinned(self, tmp_path, name):
        payload, sha = SCALED_PADIC_CONFIGS[name]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["padic", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert read_json(tmp_path / "o" / "manifest.json")["output_sha256"] == sha

    @pytest.mark.parametrize("fmt", sorted(SCALED_PADIC_FORMATS))
    def test_one_format_output_sha256_is_pinned(self, tmp_path, fmt):
        cfg = write_config(tmp_path, "c.json", SCALED_PADIC_CONFIGS["2-11"][0])
        assert main(["padic", "--config", cfg, "--out", str(tmp_path / "o"), "--format", fmt]) == 0
        assert read_json(tmp_path / "o" / "manifest.json")["output_sha256"] == SCALED_PADIC_FORMATS[fmt]
        assert sorted(path.name for path in (tmp_path / "o").iterdir()) == ["manifest.json", f"report.{fmt}"]


# The optimal CHSH angles turned by an offset, and the output_sha256 at each N
# before each sub-ensemble was counted once: only the relative angles matter.
CHSH_PINS = {16: "f212132f786b39a514d762c9600883f693913d7288280fa442941cbb88585bff",
             20: "21ce8ad789f02b6f7bcfc218bd18cf451e67a0ef90428698ffc7dc3d897433d9"}


class TestChshPins:
    @pytest.mark.parametrize("n_bits", sorted(CHSH_PINS))
    @pytest.mark.parametrize("sixteenths", [0, 1, 2, 4])
    def test_output_sha256_is_pinned(self, tmp_path, n_bits, sixteenths):
        off = Fraction(sixteenths, 16)
        angles = {k: str((off + Fraction(v)) % 1) for k, v in OPTIMAL_CHSH["angles"].items()}
        cfg = write_config(tmp_path, "c.json", {"n_bits": n_bits, "angles": angles})
        assert main(["chsh", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert read_json(tmp_path / "o" / "manifest.json")["output_sha256"] == CHSH_PINS[n_bits]


# The configs the bench's cli-strings deck runs (a sample at each of the 8
# Niven angles and one phase, the rotation table, dirac at rest for each mass
# and in motion on every axis, mz in both modes) and the output_sha256 each
# gave before the CSV rows were written as a plain join, the label masks were
# built once per length and the Dirac operator once per run.
NIVEN_8 = ("0", "1/6", "1/4", "1/3", "1/2", "2/3", "3/4", "5/6")
CLI_STRINGS_CONFIGS = {
    **{f"sample-{n}-{t}": ("sample", {"n_bits": n, "theta_turns": t, "phi_turns": "5/64"})
       for n in (12, 14, 16) for t in NIVEN_8},
    **{f"table-{n}": ("sample", {"n_bits": n}) for n in (12, 14, 16)},
    **{f"dirac-{m}": ("dirac", {"n_bits": 10, "mass": m, "wavevector": ["0", "0", "0"], "steps": steps,
                                "trace_length": 16})
       for m, steps in (("1", [3, 2, 0, 0]), ("2", [1, 0, 0, 0]), ("3", [7, 3, 0, 0]), ("5/2", [5, 1, 0, 0]))},
    "dirac-moving": ("dirac", {"n_bits": 10, "mass": "2", "wavevector": ["1", "2", "4"], "steps": [3, 1, -2, 5],
                               "trace_length": 16}),
    "mz-which_way": ("mz", {"n_bits": 10, "mode": "which_way", "phi_turns": "3/512"}),
    "mz-interference": ("mz", {"n_bits": 10, "mode": "interference", "phi_turns": "1/3"}),
}
CLI_STRINGS_PINS = {
    "sample-12-0": "68f5e04f0253a735a186911ba78d5cda097cdeaa49fce1ffa6fe28fa5e8996e0",
    "sample-12-1/6": "8aad145fd6844cb77ac7b6fa4b7c825a80dc6b6e647ccd6027c62e215794d3e9",
    "sample-12-1/4": "d1ded0a6dc17327bb4c5f2ac589fd40a6bb14d343afe5ef671426e705504dfeb",
    "sample-12-1/3": "841775dbe6c31dfb53f593f0969465f489f0de8138ecc0dfe12a205ae4305055",
    "sample-12-1/2": "45ded3f29d58191fa7563196f978b20decf2a410dd69f13e1400cf7e48147b2d",
    "sample-12-2/3": "841775dbe6c31dfb53f593f0969465f489f0de8138ecc0dfe12a205ae4305055",
    "sample-12-3/4": "d1ded0a6dc17327bb4c5f2ac589fd40a6bb14d343afe5ef671426e705504dfeb",
    "sample-12-5/6": "8aad145fd6844cb77ac7b6fa4b7c825a80dc6b6e647ccd6027c62e215794d3e9",
    "table-12": "4f361687110067c4a02baab31df043bcf1a6fa8501b4149ef40430648ce0221b",
    "sample-14-0": "c33786388ab9ab3c363c179cc95b2b5d57da3e88085b5f03046a6df304f8233c",
    "sample-14-1/6": "344a105f9564d1cd417f58dc73dfea2b95be8c71a13fc44e41f7513f89fd4afd",
    "sample-14-1/4": "9dbca45ed6641e21468f4782546dc3ec7b831461227baf12ecf0b5b5aacab1a2",
    "sample-14-1/3": "1ada710a4a8950efdb514792df894be4b1f4a1766ab0a200fb36baf5f54bbb0c",
    "sample-14-1/2": "7a435d346fae1bbd0cfdb3d6d6ce5a81f56f75ceba07887888a8caac536c28a9",
    "sample-14-2/3": "1ada710a4a8950efdb514792df894be4b1f4a1766ab0a200fb36baf5f54bbb0c",
    "sample-14-3/4": "9dbca45ed6641e21468f4782546dc3ec7b831461227baf12ecf0b5b5aacab1a2",
    "sample-14-5/6": "344a105f9564d1cd417f58dc73dfea2b95be8c71a13fc44e41f7513f89fd4afd",
    "table-14": "4de4d45eb106c5baf0312565e4eab6aa3d69cecbe2b550703419733d3583e025",
    "sample-16-0": "ceb41d4030c0a78b35d6703883dab85fa49297b0b66c8ad32380c87d6e6e3b05",
    "sample-16-1/6": "166894eaf531a2b39ff916279a24d50bb6c3dc359042a61fb0726fb4ce745335",
    "sample-16-1/4": "aa1ccf8618ab8f9aa45e69f79edb8338fa34e89314a9e193a232f2c4c7164854",
    "sample-16-1/3": "3a5813d536d20daf3d03afe87bd0509ac31edbdeeda2928fbcebcf7517bc417c",
    "sample-16-1/2": "f6f4711df1f569158f0234f766cafaed4bb2b3d76106905da44913af810e5a07",
    "sample-16-2/3": "3a5813d536d20daf3d03afe87bd0509ac31edbdeeda2928fbcebcf7517bc417c",
    "sample-16-3/4": "aa1ccf8618ab8f9aa45e69f79edb8338fa34e89314a9e193a232f2c4c7164854",
    "sample-16-5/6": "166894eaf531a2b39ff916279a24d50bb6c3dc359042a61fb0726fb4ce745335",
    "table-16": "c47c9ac7f8b8adb9757a1217ccd2aba533179934f961eed3cff828c73a5b75e1",
    "dirac-1": "40dbc40242ca9c7c24d97a308f761b5649fafb09369b45be382857dd69f360d4",
    "dirac-2": "f57c3e9fb3fd44fe23cd87e70592474371535af77b5c13080ee4477c16ba2a4f",
    "dirac-3": "f82a9f50c7b0227b50637548fdb724b7f329da697f2406b9c234d07f47401f61",
    "dirac-5/2": "c9d050fe4d020269d59f75a281b41f034724bbf81eb2b7c4640b1af6ff5c6f8b",
    "dirac-moving": "53253c09a6b0e255649ead45cff70c5f16783ce331569d824e606bd1d9f1e7e8",
    "mz-which_way": "34f23a2753efd026299b2e3b055a8a4c4230df6b82998fe67b568cbff758d6ea",
    "mz-interference": "3fef5e8a04357e336010ae72d45c4c661e3e44be5e8d9d91fb06289ce900f36b",
}


class TestCliStringsPins:
    @pytest.mark.parametrize("name", sorted(CLI_STRINGS_CONFIGS))
    def test_output_sha256_is_pinned(self, tmp_path, name):
        command, payload = CLI_STRINGS_CONFIGS[name]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert read_json(tmp_path / "o" / "manifest.json")["output_sha256"] == CLI_STRINGS_PINS[name]


def _csv_oracle(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


CSV_CONFIGS = {
    "chsh": ("chsh", OPTIMAL_CHSH),
    "chsh-rational": ("chsh", {"n_bits": 12, "angles": {"A1": "0", "A2": "1/3", "B1": "1/6", "B2": "1/2"}}),
    "mz-which_way": ("mz", {"n_bits": 8, "mode": "which_way", "phi_turns": "1/4"}),
    "mz-interference": ("mz", {"n_bits": 8, "mode": "interference", "phi_turns": "1/6"}),
    "pbr-exact": ("pbr", {"n_bits": 8, "alpha_turns": "1/2", "beta_turns": "1/6", "theta_turns": "1/4"}),
    "pbr-mpmath": ("pbr", {"n_bits": 8, "alpha_turns": "1/10", "beta_turns": "1/7", "theta_turns": "1/9"}),
    "sample-string": ("sample", {"n_bits": 8, "theta_turns": "1/3", "phi_turns": "1/4"}),
    "sample-table": ("sample", {"n_bits": 10}),
    "padic-negative": ("padic", {"p": 3, "pairs": [["-7/5", "3/4"], ["1/9", "-2/27"], ["-1", "-1"]]}),
    "padic-large-prime": ("padic", {"p": 1_000_000_007, "pairs": [["1", "1000000008"], ["-5/3", "7/1000000007"]]}),
    "dirac-0": ("dirac", {"n_bits": 6, "trace_length": 0}),
    "dirac-20": ("dirac", {"n_bits": 8, "mass": "3/5", "wavevector": ["4/5", "0", "0"], "trace_length": 20}),
}


class TestCsvContract:
    @pytest.mark.parametrize("name", sorted(CSV_CONFIGS))
    def test_report_csv_is_what_the_csv_module_writes(self, tmp_path, name):
        command, payload = CSV_CONFIGS[name]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--format", "csv"]) == 0
        text = (tmp_path / "o" / "report.csv").read_bytes().decode()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert len(rows) > 1 and len({len(row) for row in rows}) == 1
        assert text == _csv_oracle(rows)


class TestCsvText:
    @pytest.mark.parametrize("rows", [
        [["name", "labels"], ["sample", "01" * (1 << 15)]],
        [["a", "b", "distance"], ["7", "-1/3", "1/1000000007"], ["15", "7", "0/1"]],
        [["a", "", "b"], ["", ""], [" padded ", "\x00"], [report_mod._Labels("x"), report_mod._Labels("")]],
    ])
    def test_plain_rows_take_the_join(self, rows):
        assert "".join(report_mod._csv(rows[0], rows[1:])) == _csv_oracle(rows)


class TestPrimalityOncePerP:
    def test_a_padic_run_runs_miller_rabin_once(self, tmp_path):
        p = 1_000_000_007
        pairs = [[str(k), str(k + p ** (k % 3) * (2 * k + 1))] for k in range(1, 21)]
        cfg = write_config(tmp_path, "c.json", {"p": p, "pairs": pairs,
                                                "probe": {"a_digits": [1, 2, 3], "b_off": f"5/{p}"}})
        padic._miller_rabin.cache_clear()
        assert main(["padic", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert padic._miller_rabin.cache_info().misses == 1
        assert len(read_json(tmp_path / "o" / "report.json")["distances"]) == 20


class TestCantorText:
    # p = 4099 at level 1 has more digits than one piece holds intervals; from p = 17 on, q = 2p - 1 is
    # 33 = 3 * 11, 45 = 3**2 * 5, 57 = 3 * 19, 81 = 3**4 and 105 = 3 * 5 * 7
    @pytest.mark.parametrize("p,levels", [(2, [0, 1, 2, 5, 11, 12, 13]), (3, [0, 1, 2, 4, 8]), (5, [0, 1, 3, 5, 6]),
                                          (7, [0, 1, 2, 4, 5]), (11, [0, 1, 2, 4]), (13, [0, 1, 2, 3]),
                                          (4099, [1]), (17, [0, 1, 2, 3]), (23, [0, 1, 2, 3]), (29, [0, 1, 2, 3]),
                                          (41, [0, 1, 2, 3]), (53, [0, 1, 2, 3])])
    def test_equals_json_dumps_of_the_records(self, p, levels):
        # depth 0, the report's depth and one deeper: the writer indents by where the array sits; past
        # 20,000 intervals only the report's depth, as the indented oracle takes about 2 s a wrap there
        wraps = (lambda x: {"cantor_intervals": x, "p": p}, lambda x: x, lambda x: [{"a": [x]}])
        for level in levels:
            array = padic._CantorArray(p, level)
            records = [iv.record() for iv in cantor_iterates(p, level)]
            for wrap in wraps if p**level <= 20_000 else wraps[:1]:
                assert _stable_json(wrap(array)) == _json_oracle(wrap(records))

    # q = 2p - 1: 3, 5, 9 = 3**2, 13, 15 = 3 * 5, 27 = 3**3, 33 = 3 * 11, 45 = 3**2 * 5
    @pytest.mark.parametrize("p,prime_power", [(2, True), (3, True), (5, True), (7, True), (8, False), (14, True),
                                               (17, False), (23, False)])
    def test_a_head_free_tail_gcd_holds_for_every_head(self, p, prime_power):
        # every tail 0 <= m <= q**t, not only the Cantor ones, against every head H < q**(level - t)
        q = 2 * p - 1
        for level in range(6):
            t = level // 2
            qt = q**t
            if q**level > 50_000:
                break
            for m in range(qt + 1):
                g = padic._tail_gcd(m, qt, q)
                if prime_power:  # the rule passes every tail strictly between 0 and q**t
                    assert (g != 0) == (0 < m < qt)
                if g:
                    assert g == math.gcd(m, qt)
                    assert all(math.gcd(h * qt + m, q**level) == g for h in range(q ** (level - t)))

    def test_a_run_lists_numerators_only_for_heads_and_tails(self, tmp_path, monkeypatch):
        levels = []

        def listing(p, level):
            levels.append(level)
            return cantor_numerators(p, level)

        monkeypatch.setattr(padic, "cantor_numerators", listing)
        cfg = write_config(tmp_path, "c.json", {"p": 2, "pairs": [], "cantor_level": 11})
        assert main(["padic", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert sorted(levels) == [5, 5]  # the tails' 5 digits and the 6-digit heads' prefixes
        assert len(read_json(tmp_path / "o" / "report.json")["cantor_intervals"]) == 2**11

    def test_at_level_one_no_head_is_listed(self, monkeypatch):
        # every interval is a head of one digit: one prefix and one tail are listed, not p numerators or paths
        listed = []

        def listing(p, level):
            listed.append(cantor_numerators(p, level))
            return listed[-1]

        monkeypatch.setattr(padic, "cantor_numerators", listing)
        p = 4099
        text = "".join(padic._cantor_text(padic._CantorArray(p, 1), "\n"))
        assert listed == [[0], [0]]
        assert json.loads(text) == [iv.record() for iv in cantor_iterates(p, 1)]


# A dirac run at N=24 over the longest trace: 4,097 steps of one entry and four
# report.csv rows each.
DIRAC_24 = {"n_bits": 24, "mass": "3", "wavevector": ["4", "0", "0"], "steps": [1, 1, 0, 0],
            "trace_length": TRACE_LENGTH_BOUND}


def _dirac_trace(payload):
    """The trace value cmd_dirac writes for `payload`, a dirac config."""
    psi = dirac_mod.spinor(payload["n_bits"], mass=Fraction(payload["mass"]),
                           wavevector=tuple(map(Fraction, payload["wavevector"])))
    operator = dirac_mod.evolution_operator(psi, *payload["steps"])
    return dirac_mod._DiracTrace(payload["n_bits"],
                                 dirac_mod.phase_trace(operator, psi.components, payload["trace_length"]))


# Each streamed text, the pattern that starts each of its entries, and the
# number of entries: Cantor intervals, dirac steps in report.json and in
# report.csv (a step's four rows are one entry).
STREAMED_TEXTS = {
    **{f"cantor-{p}-{level}": (lambda p=p, level=level: padic._cantor_text(padic._CantorArray(p, level), "\n"),
                               r'\{\n    "left"', p**level)
       for p, level in ((2, 13), (3, 9), (4099, 1))},
    "dirac-json-24": (lambda: _dirac_trace(DIRAC_24).pieces("\n"), r',?\n  \{\n    "components"',
                      TRACE_LENGTH_BOUND + 1),
    "dirac-csv-24": (lambda: _dirac_trace(DIRAC_24).csv_rows(), r"(?m)^\d+,1,", TRACE_LENGTH_BOUND + 1),
}


class TestStreamedReports:
    CONFIG = SCALED_PADIC_CONFIGS["2-11"][0]

    @pytest.mark.parametrize("name", sorted(STREAMED_TEXTS))
    def test_pieces_hold_at_most_the_bound_and_one_entry(self, name):
        render, entry, count = STREAMED_TEXTS[name]
        pieces = list(render())
        text = "".join(pieces)
        starts = [match.start() for match in re.finditer(entry, text)]
        ends = list(accumulate(map(len, pieces)))
        longest = max(b - a for a, b in zip(starts, [*starts[1:], len(text)]))
        assert len(starts) == count and len(pieces) > 2
        assert set(ends[:-1]) <= set(starts)  # a piece ends only where an entry starts
        assert max(map(len, pieces)) <= report_mod.PIECE_BYTES + longest

    @pytest.mark.parametrize("command,payload", [
        ("padic", {"p": 2, "pairs": [["7", "3"]], "cantor_level": 13}),
        ("padic", {"p": 3, "pairs": [["1/9", "2/3"]], "cantor_level": 9}),
        ("padic", {"p": 4099, "pairs": [["1", "4100"]], "cantor_level": 1}),
        ("dirac", {"n_bits": 3, "mass": "3", "wavevector": ["4", "0", "0"], "steps": [1, 1, 0, 0], "trace_length": 20}),
        ("dirac", {"n_bits": 10, "mass": "2", "wavevector": ["1", "2", "4"], "steps": [3, 1, -2, 5],
                   "trace_length": 16}),
        ("dirac", DIRAC_24),
    ], ids=["padic-2-13", "padic-3-9", "padic-4099-1", "dirac-3", "dirac-10", "dirac-24"])
    def test_bytes_do_not_depend_on_the_piece_bound(self, tmp_path, monkeypatch, command, payload):
        cfg = write_config(tmp_path, "c.json", payload)

        def written(out):
            assert main([command, "--config", cfg, "--out", str(tmp_path / out)]) == 0
            return ((tmp_path / out / "report.json").read_bytes(), (tmp_path / out / "report.csv").read_bytes(),
                    read_json(tmp_path / out / "manifest.json")["output_sha256"])

        default = written("default")
        for bound in (1, 1 << 30):
            monkeypatch.setattr(report_mod, "PIECE_BYTES", bound)
            assert written(f"bound-{bound}") == default

    @pytest.mark.parametrize("command", sorted(README_CONFIGS))
    def test_a_json_run_builds_no_csv(self, tmp_path, monkeypatch, command):
        payload, sha = README_CONFIGS[command]
        cfg = write_config(tmp_path, "c.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "both")]) == 0
        assert read_json(tmp_path / "both" / "manifest.json")["output_sha256"] == sha
        assert main([command, "--config", cfg, "--out", str(tmp_path / "csv"), "--format", "csv"]) == 0
        assert (tmp_path / "csv" / "report.csv").read_bytes() == (tmp_path / "both" / "report.csv").read_bytes()

        def no_csv(*args):
            raise AssertionError("report.csv text built for a run that writes no report.csv")

        monkeypatch.setattr(cli, "_csv", no_csv)
        monkeypatch.setattr(dirac_mod._DiracTrace, "csv_rows", no_csv)
        out = tmp_path / "json"
        assert main([command, "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "report.json"]
        assert (out / "report.json").read_bytes() == (tmp_path / "both" / "report.json").read_bytes()

    def test_out_holds_only_the_reports_and_the_manifest(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", self.CONFIG)
        out = tmp_path / "o"
        assert main(["padic", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "report.csv", "report.json"]

    @pytest.mark.parametrize("out,message", [("afile", "error: [Errno 17] File exists: 'afile'\n"),
                                             ("afile/sub", "error: [Errno 20] Not a directory: 'afile/sub'\n")])
    def test_out_that_is_a_file_or_under_one_exits_one(self, tmp_path, monkeypatch, capsys, out, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept")
        assert main(["sample", "--out", out]) == 1
        assert capsys.readouterr().err == message
        assert sorted(path.name for path in tmp_path.iterdir()) == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept"

    def test_an_existing_out_is_not_made_again(self, tmp_path, monkeypatch):
        def no_mkdir(*args, **kwargs):
            raise AssertionError("mkdir called for an existing --out")

        (tmp_path / "o").mkdir()
        monkeypatch.setattr(report_mod.os, "mkdir", no_mkdir)
        assert main(["sample", "--out", str(tmp_path / "o")]) == 0
        assert sorted(path.name for path in (tmp_path / "o").iterdir()) == ["manifest.json", "report.csv",
                                                                             "report.json"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("payload", [{"n_bits": 16}, {"n_bits": 16, "theta_turns": "1/6", "phi_turns": "1/32"}],
                             ids=["table", "string"])
    def test_each_label_string_is_written_alone(self, tmp_path, monkeypatch, fmt, payload):
        # each label text is one write of its own, joined to no other text, in either report
        writes = []

        class Recorder:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                writes.append(data)
                return self.fh.write(data)

        hashed_file = report_mod._HashedFile
        monkeypatch.setattr(report_mod, "_HashedFile", lambda fh, digest: hashed_file(Recorder(fh), digest))
        cfg = write_config(tmp_path, "c.json", payload)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o"), "--format", fmt]) == 0
        text = (tmp_path / "o" / f"report.{fmt}").read_bytes()
        labels = re.findall(rb"[01]{65536}", text)
        assert len(labels) == (1 if "theta_turns" in payload else 4)
        assert b"".join(writes) == text
        assert all(label in writes for label in labels)

    def test_each_cantor_piece_is_written_alone(self, tmp_path, monkeypatch):
        # no piece is joined into a larger text: every write is at most the largest piece, and each piece
        # is one write of its own
        pieces = [text.encode() for text in padic._cantor_text(padic._CantorArray(2, 13), "\n  ")]
        writes = []

        class Recorder:
            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                writes.append(data)
                return self.fh.write(data)

        hashed_file = report_mod._HashedFile
        monkeypatch.setattr(report_mod, "_HashedFile",
                            lambda fh, digest: hashed_file(Recorder(fh) if ".report.json" in fh.name else fh, digest))
        cfg = write_config(tmp_path, "c.json", {"p": 2, "pairs": [["7", "3"]], "cantor_level": 13})
        assert main(["padic", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(pieces) > 2 and max(map(len, writes)) <= max(map(len, pieces))
        assert set(pieces) <= set(writes)
        assert b"".join(writes) == (tmp_path / "o" / "report.json").read_bytes()

    @pytest.mark.parametrize("error", [OSError("no space left on device"), RuntimeError("renderer failed")])
    def test_a_failed_write_leaves_no_report(self, tmp_path, monkeypatch, capsys, error):
        cfg = write_config(tmp_path, "c.json", self.CONFIG)
        out = tmp_path / "o"
        cantor_text = padic._cantor_text
        flushed = []

        def failing(array, newline):
            for text in cantor_text(array, newline):
                yield text
                partial = [path for path in out.iterdir() if path.name.startswith(".report.json")]
                if partial and partial[0].stat().st_size:  # a chunk of report.json is on disk
                    flushed.append(partial[0].name)
                    raise error

        monkeypatch.setattr(padic, "_cantor_text", failing)
        if isinstance(error, OSError):
            assert main(["padic", "--config", cfg, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: {error}\n"
        else:
            with pytest.raises(RuntimeError):
                main(["padic", "--config", cfg, "--out", str(out)])
        assert len(flushed) == 1
        assert list(out.iterdir()) == []

    def test_a_failed_manifest_leaves_every_file_as_it_was(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o"
        earlier = write_config(tmp_path, "e.json", {"p": 3, "pairs": [["1", "2"]], "cantor_level": 1})
        assert main(["padic", "--config", earlier, "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def failing(*args):
            raise OSError("no space left on device")

        monkeypatch.setattr(report_mod, "_manifest", failing)
        cfg = write_config(tmp_path, "c.json", self.CONFIG)
        assert main(["padic", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: no space left on device\n"
        assert sorted(before) == ["manifest.json", "report.csv", "report.json"]
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def _json_oracle(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


# Strings mix any code point with the characters JSON escapes or that look like
# its syntax; numbers include the big, the negative and the non-finite.
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/[]{},:\x00\x1f\x7f\n\t\u2028\ud800\U0001f600')),
                max_size=8)
_FLOATS = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e-300, 5e-324]))
_INTS = st.one_of(st.integers(), st.integers(-(10**40), 10**40), st.sampled_from([2**64, -(2**63) - 1]))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT)
# Report keys are strings; _stable_json refuses any other key (see below).
_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(_INTS, max_size=4),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=20,
)


class TestStableJson:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_TREES)
    def test_equals_json_dumps_indent_2(self, tree):
        assert _stable_json(tree) == _json_oracle(tree)

    @pytest.mark.parametrize("tree", [{1: 0}, {None: 0}, [enum.IntEnum("E", "A B").B],
                                      {"k": type("Label", (str,), {})("v")}, [type("F", (float,), {})(0.5)]],
                             ids=["int-key", "none-key", "int-enum", "str-subclass", "float-subclass"])
    def test_writes_only_the_types_reports_hold(self, tree):
        # json writes these (keys as text, subclasses as their base); reports hold none of them
        with pytest.raises(TypeError):
            _stable_json(tree)

    @pytest.mark.parametrize("tree", [Fraction(1, 3), [1, {1, 2}], {"a": {"b": [frozenset()]}}, b"x", object(),
                                      complex(1, 2), {(1, 2): 0}, {Fraction(1, 2): 0}, {"a": 1, 2: 3},
                                      {None: 0, "a": 1}])
    def test_raises_type_error_where_json_does(self, tree):
        with pytest.raises(TypeError):
            _json_oracle(tree)
        with pytest.raises(TypeError):
            _stable_json(tree)


def _rationals(max_den_bits=6):
    return st.builds(lambda n, k: f"{n}/{2 ** k}", st.integers(-70, 70), st.integers(0, max_den_bits))


# Well-formed values, bounded so every run is small (N <= 12, Cantor level <= 4);
# a key not listed takes a rational.  _JUNK is JSON of any other shape.
_GOOD = {
    "n_bits": st.one_of(st.integers(1, 12), st.integers(3, 12).map(str)),
    "window_turns": _rationals(16),
    "mode": st.sampled_from(["which_way", "interference", "which-way"]),
    "p": st.sampled_from([2, 3, 5, 7, 4, "3", 2**61 - 1]),
    "pairs": st.lists(st.lists(_rationals(), min_size=2, max_size=2), max_size=4),
    "cantor_level": st.integers(-1, 4),
    "a_digits": st.lists(st.integers(0, 6), min_size=1, max_size=6),
    "wavevector": st.lists(_rationals(), min_size=3, max_size=3),
    "steps": st.lists(st.integers(-40, 40), min_size=4, max_size=4),
    "trace_length": st.integers(-1, 6),
}
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2), st.text(max_size=4),
                  st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=2)), max_size=5),
                  st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def _configs(draw, schema):
    """A config object for `schema`: each key mostly well-formed, sometimes
    junk or absent, and now and then an unknown key."""
    payload = {}
    for key, (parser, _) in schema.items():
        roll = draw(st.integers(0, 9))
        if roll < 8:
            payload[key] = draw(_configs(parser) if isinstance(parser, dict) else _GOOD.get(key, _rationals()))
        elif roll == 8:
            payload[key] = draw(_JUNK)
    if draw(st.integers(0, 9)) == 9:
        payload[draw(st.sampled_from(["window_turn", "nbits", "A3"]))] = draw(_JUNK)
    return payload


class TestConfigProperty:
    @pytest.mark.parametrize("command", sorted(SCHEMAS))
    def test_any_config_ends_in_a_defined_exit(self, tmp_path, command):
        @settings(max_examples=50, deadline=None, derandomize=True, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(_configs(SCHEMAS[command]))
        def run(payload):
            cfg = write_config(tmp_path, "c.json", payload)
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
            assert code in (0, 1, 2)
            assert len(err.getvalue().splitlines()) == (code != 0)
            assert len(err.getvalue().encode()) <= cli.LINE_BOUND + 1
            assert "Traceback" not in err.getvalue()

        run()


# The 47 rows of `invset check --suite all`, in order, recorded before the
# suites and the acceptance tests came to share one function per invariant.
CHECK_ROWS = (
    ["golden-table-n4"] + [f"operator-algebra-N{n}" for n in range(3, 13)] + ["shadow-phase-additivity"]
    + ["d2-examples"]
    + [f"{law}-p{p}" for p in (2, 3, 5) for law in ("ultrametric", "norm-multiplicativity", "prefix-law")]
    + ["cantor-ternary-level1", "euclid-padic-probe"]
    + ["two-qubit-gamma-table-N4", "two-qubit-gamma-table-N6", "bell-agreement-correlation",
       "three-qubit-vs-expander", "gamma-normalization"]
    + ["skeleton-matches-gamma"] + [f"rest-period-N{n}" for n in range(3, 13)]
    + ["dispersion-3-4-5", "dispersion-irrational-flag", "zero-wavevector-reduces-to-rest"]
    + ["pythagorean-empty-k1-12", "rational-cosine-grid-n40", "describability-examples", "addition-obstruction"]
)


class TestCheckCommand:
    @pytest.mark.parametrize("argv, seed", [([], 12345), (["--seed", "7"], 7)])
    def test_all_suites_print_the_pinned_rows(self, capsys, argv, seed):
        assert main(["check", "--suite", "all", *argv]) == 0
        # each row is "PASS", two spaces, the name padded to the longest (31 characters), two spaces, the detail
        expected = "".join(f"PASS  {name:<31}  \n" for name in CHECK_ROWS) + f"47/47 checks passed (seed={seed})\n"
        assert capsys.readouterr().out == expected

    def test_unknown_suite_exits_one(self, capsys):
        assert main(["check", "--suite", "foo"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown suite 'foo'; choose from algebra, padic, multiqubit, dirac, numbertheory, all"]
        assert main(["check", "--suite", "x" * 5000]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: unknown suite '" + "x" * 275 + "..."]

    def test_key_error_inside_a_suite_propagates(self, monkeypatch):
        def broken(seed):
            raise KeyError("inside the suite")

        monkeypatch.setitem(checks.SUITES, "dirac", broken)
        with pytest.raises(KeyError, match="inside the suite"):
            main(["check", "--suite", "all"])

    def test_numbertheory_suite_passes(self, capsys):
        assert main(["check", "--suite", "numbertheory"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_algebra_suite_passes(self):
        assert main(["check", "--suite", "algebra", "--seed", "7"]) == 0
