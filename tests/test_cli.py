import json

import pytest

from invset.cli import main

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


class TestSampleCommand:
    def test_golden_table(self, tmp_path):
        assert main(["sample", "--golden", "--out", str(tmp_path / "o")]) == 0

    def test_table_report(self, tmp_path):
        out = tmp_path / "out"
        assert main(["sample", "--n-bits", "4", "--out", str(out)]) == 0
        report = read_json(out / "report.json")
        assert report["strings"][0] == "0000101011110101"

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


class TestPadicCommand:
    def test_golden_distances(self, tmp_path):
        assert main(["padic", "--golden", "--out", str(tmp_path / "o")]) == 0

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


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, payload, message",
        [
            ("mz", {"n_bits": 10, "mode": "which_way", "phi_turns": "1/0"}, "error: Fraction(1, 0)"),
            ("sample", {"n_bits": 30, "theta_turns": "1/4", "phi_turns": "1/8"},
             "error: 2**30 labels exceed the explicit limit"),
            ("padic", {"p": 2, "cantor_level": 30}, "error: 2**30 intervals exceed the bound 1048576"),
            ("chsh", {"n_bits": 16, "angles": {"A1": "0", "A2": "1/4", "B1": "1/8"}},
             "error: config is missing 'B2'"),
        ],
    )
    def test_exits_one_with_one_line(self, tmp_path, capsys, command, payload, message):
        cfg = write_config(tmp_path, "bad.json", payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [message]
        assert "Traceback" not in err


class TestCheckCommand:
    def test_unknown_suite_exits_one(self):
        assert main(["check", "--suite", "foo"]) == 1

    def test_numbertheory_suite_passes(self, capsys):
        assert main(["check", "--suite", "numbertheory"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_algebra_suite_passes(self):
        assert main(["check", "--suite", "algebra", "--seed", "7"]) == 0
