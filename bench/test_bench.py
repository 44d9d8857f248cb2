"""Self-tests of the benchmark: python3 -m pytest bench -q"""

import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import islice

import pytest

import run

run.import_invset()

import invset  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from invset.exactmath import ExactAngle  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_generators_are_deterministic_for_a_seed(name, tmp_path):
    wl = workloads.make_workload(name, tmp_path)
    n = 2 * wl.deck_size()
    first = list(islice(wl.ops(7), n))
    assert first == list(islice(wl.ops(7), n))
    assert first != list(islice(wl.ops(8), n))
    if name != "cli-strings":  # read-backs there may wait for their sample into the next deck
        assert sorted(op["cls"] for op in first[: n // 2]) == sorted(
            label for label, count in wl.deck for _ in range(count))


def test_readbacks_follow_a_sample_of_their_size(tmp_path):
    seen = set()
    for op in islice(workloads.make_workload("cli-strings", tmp_path).ops(3), 200):
        if op["cls"].startswith("sample"):
            seen.add(op["config"]["n_bits"])
        if op["cls"].startswith("readback"):
            assert op["n_bits"] in seen and op["target"]["n_bits"] == op["n_bits"]


def _flip(text, i):
    return text[:i] + ("1" if text[i] == "0" else "0") + text[i + 1:]


def test_sample_oracle_rejects_a_flipped_label():
    theta, phi = Fraction(1, 6), Fraction(5, 512)
    s = invset.sample(10, ExactAngle(theta), ExactAngle(phi))
    text = invset.to_text(s)
    assert text == oracles.sample_text(10, theta, phi)
    report = {"n_bits": 10, "string": text, "descriptor": s.descriptor.record(), "fraction": "3/4",
              "shadow": {"phase_turns": "5/512"}}
    assert oracles.check_sample_report(report, None, 10, theta, phi) is None
    for i in (0, 517, 1023):
        assert oracles.check_sample_report({**report, "string": _flip(text, i)}, None, 10, theta, phi)
    assert oracles.check_sample_report({**report, "descriptor": {**report["descriptor"], "rotation": 4}},
                                       None, 10, theta, phi)


def test_rotation_table_and_readback_oracles_reject_a_flipped_label():
    table = {"strings": invset.samplespace.rotation_table(6)}
    assert oracles.check_rotation_table(table, 6) is None
    table["strings"][2] = _flip(table["strings"][2], 9)
    assert oracles.check_rotation_table(table, 6)
    text = oracles.sample_text(8, Fraction(1, 3), Fraction(3, 128))
    parsed = invset.from_text(text)
    assert oracles.check_bits(parsed.bits, parsed.n_bits, 8, text) is None
    assert oracles.check_bits(parsed.bits ^ 4, parsed.n_bits, 8, text)


def test_cantor_oracle_rejects_an_off_by_one_endpoint():
    intervals = [iv.record() for iv in invset.cantor_iterates(3, 4)]
    assert oracles.check_cantor(intervals, 3, 4) is None
    num, den = oracles.parse_frac(intervals[40]["left"])
    bad = [dict(iv) for iv in intervals]
    bad[40]["left"] = f"{num + 1}/{den}"
    assert oracles.check_cantor(bad, 3, 4)
    swapped = intervals[:]
    swapped[5], swapped[6] = swapped[6], swapped[5]
    assert oracles.check_cantor(swapped, 3, 4)


@pytest.mark.parametrize("a,b,p", [("7", "3", 2), ("-5/27", "4/3", 3), ("1/2", "1/2", 5), ("10", "5/8", 2)])
def test_padic_distance_oracle_matches_and_rejects(a, b, p):
    want = invset.padic_dist(Fraction(a), Fraction(b), p)
    got = oracles.padic_distance(a, b, p)
    assert got == f"{want.numerator}/{want.denominator}"
    op = {"p": p, "pairs": [[a, b]]}
    report = {"p": p, "distances": [{"distance": got}], "similarity_dimension_float": invset.similarity_dimension(p)}
    assert oracles.check_padic(report, None, op) is None
    report["distances"][0]["distance"] = f"1/{p ** 7}"
    assert oracles.check_padic(report, None, op)


def test_frequency_and_bell_oracles_reject_a_moved_count():
    turns = ["1/6", "1/4", "0", "1/3", "1/2", "1/6", "1/4"]
    ms = invset.multi_sample(8, [ExactAngle(Fraction(t)) for t in turns])
    freqs = invset.joint_frequencies(ms)
    assert oracles.check_frequencies(freqs, [Fraction(t) for t in turns]) is None
    freqs[0] += Fraction(1, 256)
    freqs[1] -= Fraction(1, 256)
    assert oracles.check_frequencies(freqs, [Fraction(t) for t in turns])
    counts = invset.joint_counts(invset.multiqubit.bell_sample_from_amplitude(Fraction(37, 256), 8))
    assert oracles.check_bell(counts, 37, 8) is None
    assert oracles.check_bell(counts, 38, 8)


def test_chsh_oracle_rejects_a_wrong_s_or_an_admissible_cell():
    report = invset.chsh_run(invset.ChshConfig(12, *(ExactAngle(Fraction(t)) for t in ("0", "1/4", "1/8", "3/8"))))
    rec = report.record()
    assert oracles.check_chsh(rec) is None
    assert oracles.check_chsh({**rec, "s_value": "2/1"})
    rec["admissibility"]["A1B1"]["A2B2"]["verdict"] = "admissible"
    assert oracles.check_chsh(rec)


def _bindings():
    return {(name, attr): id(obj) for name, mod in list(sys.modules.items())
            if name == "invset" or name.startswith("invset.") for attr, obj in vars(mod).items()}


@pytest.mark.parametrize("name,ops", [("sweep-multiqubit", 60), ("cli-strings", 8), ("cli-padic", 4)])
def test_traced_runs_restore_attributes_and_repeat_their_counters(name, ops, tmp_path):
    before = _bindings()
    counts = []
    for _ in range(2):
        wl = workloads.make_workload(name, tmp_path)
        wl.trace_ops = ops
        runner = run.Runner(wl)
        metrics, _ = run.per_layer(wl, 11, 0, runner)
        assert runner.failed == 0, runner.failures
        assert _bindings() == before
        counts.append({k: v for k, v in metrics.items() if not (k.endswith("_s") or k == "trace.overhead_ratio")})
    assert counts[0] == counts[1]
    assert any(v for k, (v, _) in counts[0].items() if k.endswith(".calls"))


def test_tracer_counts_calls_between_layers():
    tracer = Tracer()
    with tracer.installed():
        invset.cli.to_text(invset.sample(5, ExactAngle(Fraction(1, 4)), ExactAngle(Fraction(0))))
    metrics = tracer.layer_metrics()
    assert metrics["samplespace.labels_serialized"] == 32
    assert metrics["samplespace.calls"] >= 3 and metrics["exactmath.gate_calls"] == 2
    assert metrics["exactmath.gate_pass_ratio"] == 1.0
    assert invset.cli.to_text is invset.samplespace.to_text


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-padic", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
