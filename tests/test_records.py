"""The immutable records of every layer behave as value objects: equal within
one class exactly when their fields are, hashed as their field tuple, shown
as ``Name(field=value, ...)``, fixed once built, and built positionally or
by keyword with the same defaults."""

import copy
import pickle
from fractions import Fraction

import pytest

from invset.checks import CheckResult
from invset.dirac import DispersionResult, FormalOperatorMatrix, SpinorSample, full_evolve, rest_step, spinor
from invset.exactmath import ExactAngle, ObstructionVerdict
from invset.experiments import AngleSubstitution, ChshConfig, ChshReport, MzReport, PbrReport
from invset.multiqubit import MultiSample, PredictedTwoQubit, TwoQubitParams
from invset.padic import CantorInterval, PadicInt, ProbeReport, _CantorArray
from invset.samplespace import BitString, HilbertShadow, OrbitDescriptor, phase_string, sample_from_counts


def angle(num, den=1):
    return ExactAngle(Fraction(num, den))


RAW = BitString(3, 11)
ANGLES = tuple(angle(k, 8) for k in range(6))
SUB = AngleSubstitution(Fraction(1, 8), 7, Fraction(3, 4), 0.015625)

# (record, its field names, its field values, the record with one field changed, its repr)
CASES = [
    (ExactAngle(Fraction(5, 4)), ("turns",), (Fraction(1, 4),), angle(1, 3),
     "ExactAngle(turns=Fraction(1, 4))"),
    (ObstructionVerdict(True, "pythagorean_obstruction"), ("excluded", "reason"),
     (True, "pythagorean_obstruction"), ObstructionVerdict(False, "pythagorean_obstruction"),
     "ObstructionVerdict(excluded=True, reason='pythagorean_obstruction')"),
    (OrbitDescriptor(4, 9, 5), ("n_bits", "rotation", "first_count"), (4, 1, 5), OrbitDescriptor(4, 9, 6),
     "OrbitDescriptor(n_bits=4, rotation=1, first_count=5)"),
    (RAW, ("n_bits", "packed", "tag", "descriptor"), (3, 11, "a", None), BitString(3, 11, "b"),
     "BitString(n_bits=3, bits=11, tag='a', descriptor=None)"),
    (HilbertShadow(Fraction(1, 2), Fraction(1, 4), True), ("amplitude_sq", "phase_turns", "phase_relevant"),
     (Fraction(1, 2), Fraction(1, 4), True), HilbertShadow(Fraction(1, 2), Fraction(1, 4), False),
     "HilbertShadow(amplitude_sq=Fraction(1, 2), phase_turns=Fraction(1, 4), phase_relevant=True)"),
    (MultiSample(3, [RAW]), ("n_bits", "rows"), (3, (RAW,)), MultiSample(3, [RAW, RAW]),
     "MultiSample(n_bits=3, rows=(BitString(n_bits=3, bits=11, tag='a', descriptor=None),))"),
    (TwoQubitParams(*ANGLES), ("theta1", "theta2", "theta3", "phi1", "phi2", "phi3"), ANGLES,
     TwoQubitParams(*ANGLES[:5], angle(1, 2)),
     "TwoQubitParams(theta1=ExactAngle(turns=Fraction(0, 1)), theta2=ExactAngle(turns=Fraction(1, 8)), "
     "theta3=ExactAngle(turns=Fraction(1, 4)), phi1=ExactAngle(turns=Fraction(3, 8)), "
     "phi2=ExactAngle(turns=Fraction(1, 2)), phi3=ExactAngle(turns=Fraction(5, 8)))"),
    (PredictedTwoQubit((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)), ANGLES[:4]),
     ("probs", "phases"), ((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)), ANGLES[:4]),
     PredictedTwoQubit((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)), ANGLES[1:5]),
     "PredictedTwoQubit(probs=(Fraction(1, 2), Fraction(1, 2), Fraction(0, 1), Fraction(0, 1)), "
     "phases=(ExactAngle(turns=Fraction(0, 1)), ExactAngle(turns=Fraction(1, 8)), "
     "ExactAngle(turns=Fraction(1, 4)), ExactAngle(turns=Fraction(3, 8))))"),
    (PadicInt(3, [1, 2]), ("p", "digits"), (3, (1, 2)), PadicInt(3, [1, 2, 0]),
     "PadicInt(p=3, digits=(1, 2))"),
    (CantorInterval(3, 1, (1,), 2), ("p", "level", "path", "numerator"), (3, 1, (1,), 2),
     CantorInterval(3, 1, (2,), 4), "CantorInterval(p=3, level=1, path=(1,), numerator=2)"),
    (ProbeReport(3, 1, Fraction(1, 3), Fraction(2, 3), Fraction(3)),
     ("p", "a_value", "b_off", "euclid_gap", "padic_gap"), (3, 1, Fraction(1, 3), Fraction(2, 3), Fraction(3)),
     ProbeReport(3, 2, Fraction(1, 3), Fraction(5, 3), Fraction(3)),
     "ProbeReport(p=3, a_value=1, b_off=Fraction(1, 3), euclid_gap=Fraction(2, 3), padic_gap=Fraction(3, 1))"),
    (FormalOperatorMatrix(4, [1, 0, 3, 2], [(5, 9), (0, 0), (-1, 3), (2, -1)]), ("n_bits", "cols", "entries"),
     (4, (1, 0, 3, 2), ((1, 1), (0, 0), (3, 3), (2, 7))),
     FormalOperatorMatrix(4, [1, 0, 3, 2], [(1, 1), (0, 0), (3, 3), (2, 6)]),
     "FormalOperatorMatrix(n_bits=4, cols=(1, 0, 3, 2), entries=((1, 1), (0, 0), (3, 3), (2, 7)))"),
    (SpinorSample(3, (RAW,) * 4, Fraction(1), (Fraction(0),) * 3, Fraction(1), Fraction(1)),
     ("n_bits", "components", "mass", "wavevector", "omega", "omega_sq"),
     (3, (RAW,) * 4, Fraction(1), (Fraction(0),) * 3, Fraction(1), Fraction(1)),
     SpinorSample(3, (RAW,) * 4, Fraction(1), (Fraction(0),) * 3, None, Fraction(1)),
     "SpinorSample(n_bits=3, components=(" + ", ".join([repr(RAW)] * 4) + "), mass=Fraction(1, 1), "
     "wavevector=(Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), omega=Fraction(1, 1), omega_sq=Fraction(1, 1))"),
    (DispersionResult(Fraction(2), None), ("omega_sq", "omega"), (Fraction(2), None),
     DispersionResult(Fraction(4), Fraction(2)), "DispersionResult(omega_sq=Fraction(2, 1), omega=None)"),
    (SUB, ("requested_turns", "first_count", "cos_value", "delta_turns_float"),
     (Fraction(1, 8), 7, Fraction(3, 4), 0.015625), AngleSubstitution(Fraction(1, 8), 7, Fraction(3, 4), 0.25),
     "AngleSubstitution(requested_turns=Fraction(1, 8), first_count=7, cos_value=Fraction(3, 4), "
     "delta_turns_float=0.015625)"),
    (ChshConfig(8, *ANGLES[:4]), ("n_bits", "a1", "a2", "b1", "b2", "window_turns"), (8, *ANGLES[:4], None),
     ChshConfig(8, *ANGLES[:4], Fraction(1, 64)),
     "ChshConfig(n_bits=8, a1=ExactAngle(turns=Fraction(0, 1)), a2=ExactAngle(turns=Fraction(1, 8)), "
     "b1=ExactAngle(turns=Fraction(1, 4)), b2=ExactAngle(turns=Fraction(3, 8)), window_turns=None)"),
    (_CantorArray(3, 2), ("p", "level"), (3, 2), _CantorArray(3, 3), "_CantorArray(p=3, level=2)"),
    (CheckResult("golden", True), ("name", "passed", "detail"), ("golden", True, ""), CheckResult("golden", False),
     "CheckResult(name='golden', passed=True, detail='')"),
]

# records holding a dict: equal and shown like the others, but unhashable
UNHASHABLE = [
    (ChshReport(8, Fraction(1, 64), {"A1B1": SUB}, Fraction(2), {}),
     ("n_bits", "window_turns", "substitutions", "s_value", "admissibility"),
     (8, Fraction(1, 64), {"A1B1": SUB}, Fraction(2), {}),
     ChshReport(8, Fraction(1, 64), {"A1B1": SUB}, Fraction(3), {}),
     "ChshReport(n_bits=8, window_turns=Fraction(1, 64), substitutions={'A1B1': " + repr(SUB) + "}, "
     "s_value=Fraction(2, 1), admissibility={})"),
    (MzReport("which_way", Fraction(1, 4), {"D_b": Fraction(1, 2)}, True, False),
     ("mode", "phi_turns", "probabilities", "phase_gate", "amplitude_gate"),
     ("which_way", Fraction(1, 4), {"D_b": Fraction(1, 2)}, True, False),
     MzReport("which_way", Fraction(1, 4), {"D_b": Fraction(1, 2)}, True, True),
     "MzReport(mode='which_way', phi_turns=Fraction(1, 4), probabilities={'D_b': Fraction(1, 2)}, "
     "phase_gate=True, amplitude_gate=False)"),
    (PbrReport(Fraction(1), Fraction(0), {"applicable": False}), ("x_value", "z_value", "simultaneity"),
     (Fraction(1), Fraction(0), {"applicable": False}), PbrReport(Fraction(1), Fraction(0), {"applicable": True}),
     "PbrReport(x_value=Fraction(1, 1), z_value=Fraction(0, 1), simultaneity={'applicable': False})"),
]

ALL = CASES + UNHASHABLE


def case_id(case):
    return type(case[0]).__name__


@pytest.mark.parametrize("case", ALL, ids=case_id)
class TestRecordSemantics:
    def test_fields_hold_the_normalized_values(self, case):
        record, names, values, _, _ = case
        assert tuple(getattr(record, name) for name in names) == values

    def test_equal_exactly_when_the_class_and_fields_are(self, case):
        record, names, values, other, _ = case
        twin = type(record)(*values)
        assert twin == record and not twin != record
        assert other != record and not other == record
        assert record != values  # a tuple of the same fields is another class
        foreign = next(c[0] for c in CASES if type(c[0]) is not type(record))
        assert record != foreign and record.__eq__(foreign) is NotImplemented

    def test_repr(self, case):
        assert repr(case[0]) == case[4]

    def test_keyword_construction(self, case):
        record, names, values, _, _ = case
        assert type(record)(**dict(zip(names, values))) == record

    def test_copies_and_pickles_are_equal_records(self, case):
        record = case[0]
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record and repr(twin) == repr(record)

    def test_fields_can_be_neither_assigned_nor_deleted(self, case):
        record, names, values, _, _ = case
        for name in (*names, "unlisted"):
            with pytest.raises(AttributeError):
                setattr(record, name, values[0])
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_hash_is_the_hash_of_the_field_tuple(case):
    record, _, values, _, _ = case
    assert hash(record) == hash(values) == hash(type(record)(*values))
    assert len({record, type(record)(*values)}) == 1


@pytest.mark.parametrize("case", UNHASHABLE, ids=case_id)
def test_a_record_holding_a_dict_is_unhashable(case):
    with pytest.raises(TypeError):
        hash(case[0])


class TestDefaults:
    def test_bitstring_tag_and_descriptor(self):
        assert BitString(3, 11) == BitString(3, 11, "a", None) == BitString(n_bits=3, packed=11)
        d = OrbitDescriptor(3, 0, 4)
        assert BitString(3, None, descriptor=d).tag == "a"

    def test_chsh_window(self):
        cfg = ChshConfig(8, *ANGLES[:4])
        assert cfg.window_turns is None and cfg.window == Fraction(1, 64)
        assert ChshConfig(8, *ANGLES[:4], window_turns=0.25).window_turns == Fraction(1, 4)
        assert type(ChshConfig(8, *ANGLES[:4], 1).window) is Fraction

    def test_check_result_detail(self):
        assert CheckResult("x", False).detail == "" and CheckResult("x", False, detail="d").detail == "d"

    def test_probe_keywords_in_any_order(self):
        assert ProbeReport(padic_gap=Fraction(3), euclid_gap=Fraction(2, 3), b_off=Fraction(1, 3), a_value=1,
                           p=3) == CASES[10][0]


class TestBitStringLabels:
    def test_a_constructed_string_builds_its_labels_once(self):
        s = sample_from_counts(4, 5, 3)
        assert s.bits is s.bits and s.packed is None
        assert s == sample_from_counts(4, 5, 3) and hash(s) == hash(sample_from_counts(4, 5, 3))

    def test_reading_labels_changes_neither_equality_nor_hash(self):
        a, b = phase_string(5, angle(1, 4)), phase_string(5, angle(1, 4))
        before = hash(a)
        assert a.bits == b.bits
        assert a == b and hash(a) == before == hash(b) and repr(a) == repr(b)

    def test_a_raw_string_reads_its_packed_labels(self):
        assert RAW.bits == 11

    def test_labels_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            RAW.bits = 3
        assert RAW.bits == 11


class TestEvolutionKeepsTheRecord:
    """rest_step and full_evolve rebuild a spinor with new components and
    every other field as it was."""

    PSI = spinor(5, components=(sample_from_counts(5, 16, 3, "x"), sample_from_counts(5, 20, 1, "y"),
                                phase_string(5, angle(1, 4)), BitString(5, 12345)),
                 mass=Fraction(1, 2), wavevector=(0, Fraction(1, 3), 1))
    OTHER = ("mass=Fraction(1, 2), wavevector=(Fraction(0, 1), Fraction(1, 3), Fraction(1, 1)), "
             "omega=Fraction(7, 6), omega_sq=Fraction(49, 36))")

    def test_rest_step(self):
        assert repr(rest_step(self.PSI, -5)) == (
            "SpinorSample(n_bits=5, components=("
            "BitString(n_bits=5, bits=None, tag='x', descriptor=OrbitDescriptor(n_bits=5, rotation=14, first_count=16)), "
            "BitString(n_bits=5, bits=4278190250, tag='y', descriptor=None), "
            "BitString(n_bits=5, bits=None, tag='a', descriptor=OrbitDescriptor(n_bits=5, rotation=9, first_count=16)), "
            "BitString(n_bits=5, bits=239075340, tag='a', descriptor=None)), " + self.OTHER)

    def test_full_evolve(self):
        assert repr(full_evolve(self.PSI, 3, 1, 7, 2)) == (
            "SpinorSample(n_bits=5, components=("
            "BitString(n_bits=5, bits=44651860, tag='y', descriptor=None), "
            "BitString(n_bits=5, bits=None, tag='x', descriptor=OrbitDescriptor(n_bits=5, rotation=15, first_count=16)), "
            "BitString(n_bits=5, bits=894785110, tag='a', descriptor=None), "
            "BitString(n_bits=5, bits=None, tag='a', descriptor=OrbitDescriptor(n_bits=5, rotation=0, first_count=16))), "
            + self.OTHER)

    def test_the_input_is_unchanged(self):
        before = repr(self.PSI)
        rest_step(self.PSI, 3)
        full_evolve(self.PSI, 1, 1, 1, 1)
        assert repr(self.PSI) == before
