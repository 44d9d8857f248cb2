"""The self-rendering report values: dirac's trace and label text give the
bytes json.dumps gives for the plain values they stand for; the manifest's
timestamp is the text datetime writes."""

import csv
import datetime
import io
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from invset.cli import main
from invset.dirac import _DiracTrace
from invset.exactmath import ExactAngle, fraction_str
from invset.report import _Labels, _stable_json, _utc_now
from invset.samplespace import BitString, rotation_table, sample, sample_from_counts, to_text


def _json_oracle(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _trace_records(n_bits, rotations):
    """The trace as cmd_dirac built it before it rendered from a template: one
    dict per step and per component."""
    half = 1 << (n_bits - 1)
    return [{"step": step, "components": [{"component": i, "phase_turns": fraction_str(Fraction(x, half)),
                                           "first_count": half} for i, x in enumerate(rotation, 1)]}
            for step, rotation in enumerate(rotations)]


@st.composite
def _rotations(draw):
    n_bits = draw(st.integers(3, 16))
    half = 1 << (n_bits - 1)
    rotation = st.tuples(*[st.integers(0, half - 1) | st.sampled_from((0, half // 2, half - 1))] * 4)
    return n_bits, draw(st.lists(rotation, max_size=21))


class TestDiracTrace:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_rotations())
    def test_equals_json_dumps_of_the_records(self, case):
        # depth 0, the report's depth and one deeper, as in TestCantorText
        n_bits, rotations = case
        trace, records = _DiracTrace(n_bits, rotations), _trace_records(n_bits, rotations)
        for wrap in (lambda x: {"n_bits": n_bits, "trace": x}, lambda x: x, lambda x: [{"a": [x]}]):
            assert _stable_json(wrap(trace)) == _json_oracle(wrap(records))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_rotations())
    def test_csv_rows_equal_the_csv_module(self, case):
        n_bits, rotations = case
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["step", "component", "phase_turns", "first_count"])
        writer.writerows([entry["step"], c["component"], c["phase_turns"], c["first_count"]]
                         for entry in _trace_records(n_bits, rotations) for c in entry["components"])
        assert "".join(_DiracTrace(n_bits, rotations).csv_rows()) == out.getvalue()


def _strings(n_bits):
    """Raw strings (random labels) and constructed ones (any count and rotation) of 2**n_bits labels."""
    size = 1 << n_bits
    raw = st.builds(lambda bits: BitString(n_bits, bits), st.integers(0, (1 << size) - 1))
    built = st.builds(lambda count, rotation: sample_from_counts(n_bits, count, rotation),
                      st.integers(0, size), st.integers(0, size))
    return raw | built


class TestLabels:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(3, 12).flatmap(_strings))
    def test_to_text_writes_only_zeros_and_ones(self, s):
        text = to_text(s)
        assert len(text) == s.size and text.count("0") + text.count("1") == s.size
        assert _stable_json({"string": _Labels(text)}) == _json_oracle({"string": text})

    def test_sample_and_table_reports_equal_json_dumps(self, tmp_path):
        thetas = ("0", "1/6", "1/4", "1/3", "1/2", "2/3", "3/4", "5/6")
        for n_bits in range(3, 17):
            theta, phi = thetas[n_bits % 8], Fraction(3, 4)
            for config, strings in (({"n_bits": n_bits, "theta_turns": theta, "phi_turns": str(phi)},
                                     [to_text(sample(n_bits, ExactAngle(Fraction(theta)), ExactAngle(phi)))]),
                                    ({"n_bits": n_bits}, rotation_table(n_bits))):
                path, out = tmp_path / "c.json", tmp_path / f"o{n_bits}"
                path.write_text(json.dumps(config))
                assert main(["sample", "--config", str(path), "--out", str(out), "--format", "json"]) == 0
                data = (out / "report.json").read_bytes()
                report = json.loads(data)
                assert data == _json_oracle(report)
                assert report.get("strings", [report.get("string")]) == strings


class TestTimestamp:
    SECONDS = (0, 1, 59.999, 951782400, 1e9 + 0.5, 2**31 - 1, 2**31, 4102444799.75, 253402300799)

    def test_equals_the_datetime_text_to_the_second(self):
        for seconds in self.SECONDS:
            expected = datetime.datetime.fromtimestamp(seconds, datetime.timezone.utc).replace(microsecond=0)
            assert _utc_now(seconds) == expected.isoformat(), seconds

    def test_now(self):
        before = datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0)
        stamp = datetime.datetime.fromisoformat(_utc_now())
        assert before <= stamp <= datetime.datetime.now(datetime.timezone.utc)
        assert stamp.utcoffset() == datetime.timedelta(0)
