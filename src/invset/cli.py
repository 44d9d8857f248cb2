"""Command-line front-end: run experiments and invariant checks from JSON
configs; ``invset.report`` writes their deterministic JSON/CSV reports and
run manifest.

Exit codes: 0 success, 1 usage/IO/schema errors, 2 invariant-set exclusion
(NotOnInvariantSet / NoAdmissibleAngle) - "physics says no" is a result, not
a tool failure.  Two runs with identical configs produce byte-identical
reports; the manifest's timestamp is excluded from the output hash.
"""

from __future__ import annotations

import functools
import gc
import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .exactmath import (
    ExactAngle,
    NoAdmissibleAngle,
    NotOnInvariantSet,
    ResourceBound,
    fraction_str,
)
from .experiments import INTERFERENCE, WHICH_WAY, ChshConfig, chsh_run, mz_run, pbr_run
from .padic import (
    Infinity,
    PadicInt,
    _CantorArray,
    _ord_difference,
    euclid_padic_probe,
    is_prime,
    require_cantor_size,
    similarity_dimension,
)
from .report import _csv, _emit, _Labels, _Records, _TextArrays
from .samplespace import TABLE_SHIFTS, canonical_string, fraction, hilbert_shadow, require_explicit, sample, to_text
from . import dirac as dirac_mod

TYPE_CHECKING = False  # true for type checkers only; this module never imports typing
if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXCLUDED = 2

TRACE_LENGTH_BOUND = 1 << 12  # max evolution steps a dirac trace will take
CHSH_N_BITS_BOUND = 1 << 13  # largest chsh N: a run there takes about 70 ms on 2 CPUs
MZ_N_BITS_BOUND = 1 << 26  # largest mz N: its counts have 2**N bits; a process there peaks at 62-71 MB
LINE_BOUND = 300  # most bytes of the one stderr line a failed run prints


REQUIRED = object()  # schema default of a key that every config must give


def _int(least: int | None = None, bound: int | None = None):
    """Parser for an integer (a JSON number or decimal string), at least
    `least` and at most `bound`."""
    def parse(value) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise TypeError(f"expected an integer, got {value!r}")
        if least is not None and int(value) < least:
            raise ValueError(f"{value} is below the minimum {least}")
        if bound is not None and int(value) > bound:
            raise ValueError(f"{value} exceeds the bound {bound}")
        return int(value)
    return parse


def _prime(value) -> int:
    """Parser for a prime: the p-adic metric and C(p) are defined for primes."""
    p = _int(2)(value)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _printable_int(n: int) -> bool:
    """True iff n >= 0 is within Python's digit limit for integer strings
    (0: no limit), so a report can print it."""
    limit = sys.get_int_max_str_digits()
    return not limit or n.bit_length() <= 3 * limit or n < 10**limit


def _printable(value: Fraction) -> bool:
    """True iff value's numerator and denominator are printable."""
    return _printable_int(max(abs(value.numerator), value.denominator))


def _printable_power(base: int, exponent: int) -> bool:
    """True iff base**exponent (base >= 2) is printable under the digit limit
    (0: no limit).  base**exponent is built only for an exponent below 4 times
    the limit; from there on it has more digits than the limit."""
    limit = sys.get_int_max_str_digits()
    return not limit or (exponent < 4 * limit and _printable_int(base**exponent))


def _n_bits(bound: int | None = None):
    """Parser for a chsh or dirac n_bits: an integer in [3, bound] such that
    2**(N+1), above every number those reports print (chsh's S numerator can
    pass 2**N), is printable under the digit limit."""
    parse_int = _int(3, bound)

    def parse(value) -> int:
        n_bits = parse_int(value)
        if not _printable_power(2, n_bits + 1):
            raise ValueError(f"2**{n_bits + 1} exceeds the digit limit {sys.get_int_max_str_digits()}")
        return n_bits
    return parse


def _fraction(value) -> Fraction:
    """Parser for a rational (an integer, ratio or decimal).  A decimal
    exponent beyond Python's digit limit for integer strings is refused
    before its power of ten is built, and so is a value the report could not
    print.  A text with no exponent and no longer than the limit needs
    neither check: every digit of its numerator and denominator is in the
    text (a decimal's 10**k has k + 1 digits, at most the text's length).
    Of those, a plain ASCII ``[-]digits`` or ``[-]digits/digits`` text is
    read by int(), without Fraction's regular expression, to the value and
    the error (a zero denominator) Fraction(text) gives; every other form (a
    "+" sign, "_", whitespace, a decimal point, non-ASCII digits) goes to
    Fraction(text)."""
    text = str(value)
    limit = sys.get_int_max_str_digits()
    if not limit or (len(text) <= limit and "e" not in text and "E" not in text):
        numerator, slash, denominator = text.partition("/")
        if text.isascii() and numerator.removeprefix("-").isdigit() and (not slash or denominator.isdigit()):
            return Fraction(int(numerator), int(denominator)) if slash else Fraction(int(numerator))
        return Fraction(text)
    head, _, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if head and limit and digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise ValueError(f"decimal exponent {exponent.strip()} exceeds the digit limit {limit}")
    fr = Fraction(text)
    if not _printable(fr):
        raise ValueError(f"{text} exceeds the digit limit {limit}")
    return fr


def _positive(value) -> Fraction:
    """Parser for a positive rational."""
    fr = _fraction(value)
    if fr <= 0:
        raise ValueError(f"{value} is not positive")
    return fr


def _turns(value) -> ExactAngle:
    return ExactAngle(_fraction(value))


def _mode(value) -> str:
    """Parser for mz's mode: one of its two names."""
    if value not in (WHICH_WAY, INTERFERENCE):
        raise ValueError(f"unknown mode {value!r}; expected {WHICH_WAY} or {INTERFERENCE}")
    return value


def _list_of(item=None, length: int | None = None):
    """Parser for a JSON list of `item` values (None: left unparsed), of exactly `length` when given."""
    shape = "a list" if length is None else f"a list of {length} items"

    def parse(value) -> list:
        if not isinstance(value, list) or length not in (None, len(value)):
            raise TypeError(f"expected {shape}, got {value!r}")
        return value if item is None else list(map(item, value))
    return parse


#: command -> {key: (parser or nested schema, default)}.  A default is written
#: as a config would give it and parsed like one.  REQUIRED keys must be given;
#: an optional key whose default is None stays out of the parsed config.
SCHEMAS: dict[str, dict] = {
    "chsh": {
        "n_bits": (_n_bits(CHSH_N_BITS_BOUND), REQUIRED),
        "angles": ({key: (_turns, REQUIRED) for key in ("A1", "A2", "B1", "B2")}, REQUIRED),  # ChshConfig order
        "window_turns": (_positive, None),  # absent: ChshConfig's 2**-(N-2)
    },
    "mz": {"n_bits": (_int(3, MZ_N_BITS_BOUND), REQUIRED), "mode": (_mode, WHICH_WAY), "phi_turns": (_turns, REQUIRED)},
    "pbr": {"n_bits": (_int(1), REQUIRED),
            **{key: (_turns, REQUIRED) for key in ("alpha_turns", "beta_turns", "theta_turns")}},
    # both angles: one string; neither: the rotation table
    "sample": {"n_bits": (_int(3), 4), "theta_turns": (_turns, None), "phi_turns": (_turns, None)},
    "padic": {
        "p": (_prime, 2),
        "pairs": (_list_of(_list_of(_fraction, 2)), [["7", "3"], ["15", "7"]]),
        "cantor_level": (_int(0), None),
        # the digits are parsed by cmd_padic, once their count is known to pass the digit limit at p
        "probe": ({"a_digits": (_list_of(), REQUIRED), "b_off": (_fraction, REQUIRED)}, None),
    },
    "dirac": {
        "n_bits": (_n_bits(), 6),
        "mass": (_fraction, "1"),
        "wavevector": (_list_of(_fraction, 3), ["0", "0", "0"]),
        "steps": (_list_of(_int(), 4), [1, 0, 0, 0]),
        "trace_length": (_int(0, TRACE_LENGTH_BOUND), 4),
    },
}


def _parse(schema: dict, raw, where: str = "config") -> dict:
    """Read a JSON object against `schema`: reject unknown keys, require the
    REQUIRED ones, fill defaults and parse every value, naming the key in
    each error."""
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}; expected one of {', '.join(sorted(schema))}")
    cfg = {}
    for key, (parser, default) in schema.items():
        value = raw.get(key, default)
        if value is REQUIRED:
            raise ValueError(f"config is missing {key!r}")
        if value is None and key not in raw:
            continue
        if isinstance(parser, dict):
            cfg[key] = _parse(parser, value, f"config key {key!r}")
            continue
        cfg[key] = _keyed(key, parser, value)
    return cfg


def _keyed(key: str, parser, value):
    """parser(value), with its error naming the config key; a ResourceBound stays one."""
    try:
        return parser(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None
    except ResourceBound as exc:
        raise ResourceBound(f"config key {key!r}: {exc}") from None


def _config(args) -> dict:
    """The command's JSON config (no file: all defaults), with ``--n-bits``
    in place of ``n_bits``, parsed against its schema."""
    raw = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except RecursionError:
                raise ValueError("config nests JSON too deeply") from None
    if getattr(args, "n_bits", None) is not None and isinstance(raw, dict):
        raw = {**raw, "n_bits": args.n_bits}
    return _parse(SCHEMAS[args.command], raw)


def cmd_chsh(args) -> int:
    cfg = _config(args)
    config = ChshConfig(cfg["n_bits"], *cfg["angles"].values(), cfg.get("window_turns"))
    rec = chsh_run(config).record()
    rows = [[pair, se["substitution"]["requested_turns"], se["substitution"]["first_count"],
             se["substitution"]["cos"], se["correlation"], se["correlation_float_derived"]]
            for pair, se in rec["sub_ensembles"].items()]
    header = ["pair", "requested_turns", "first_count", "cos_substitute", "correlation", "correlation_float"]
    _emit(args, {**cfg, "window_turns": config.window}, rec, lambda: _csv(header, rows))
    print(f"S = {rec['s_value']} ({rec['s_value_float_derived']:.6f})")
    return EXIT_OK


def cmd_mz(args) -> int:
    cfg = _config(args)
    report = mz_run(cfg["mode"], cfg["phi_turns"], cfg["n_bits"])
    rows = [[detector, fraction_str(p), float(p)] for detector, p in sorted(report.probabilities.items())]
    _emit(args, cfg, report.record(), lambda: _csv(["detector", "probability", "probability_float"], rows))
    return EXIT_OK


def cmd_pbr(args) -> int:
    cfg = _config(args)
    rec = pbr_run(cfg["alpha_turns"], cfg["beta_turns"], cfg["theta_turns"], cfg["n_bits"]).record()
    rows = [[name, rec[name]["exact"] or "", rec[name]["float_derived"]] for name in ("X", "Z")]  # inexact: ""
    _emit(args, cfg, rec, lambda: _csv(["quantity", "exact", "float"], rows))
    return EXIT_OK


def cmd_sample(args) -> int:
    cfg = _config(args)
    n_bits, theta, phi = cfg["n_bits"], cfg.get("theta_turns"), cfg.get("phi_turns")
    _keyed("n_bits", require_explicit, n_bits)  # the report prints every label
    if theta is not None or phi is not None:
        if theta is None or phi is None:
            raise ValueError(f"config is missing {'theta_turns' if theta is None else 'phi_turns'!r}")
        s = sample(n_bits, theta, phi)
        shadow = hilbert_shadow(s)
        report = {
            "n_bits": n_bits,
            "string": _Labels(to_text(s)),
            "descriptor": s.descriptor.record(),
            "fraction": fraction_str(fraction(s)),
            "shadow": {
                "amplitude_sq": fraction_str(shadow.amplitude_sq),
                "phase_turns": fraction_str(shadow.phase_turns),
                "phase_relevant": shadow.phase_relevant,
            },
        }
        rows = [["sample", report["string"]]]
    else:
        text = to_text(canonical_string(n_bits))  # a pair-shift by k rotates it left by 2k labels
        table_lines = [_Labels(text, 2 * k % len(text)) for k in TABLE_SHIFTS]
        report = {"n_bits": n_bits, "table_shifts": TABLE_SHIFTS, "strings": table_lines}
        rows = [[f"shift_{k}", line] for k, line in zip(TABLE_SHIFTS, table_lines)]
    _emit(args, cfg, report, lambda: _csv(["name", "labels"], rows))
    return EXIT_OK


def _gc_paused(command):
    """`command`, run with the cyclic garbage collector paused.  What a run
    builds in bulk (parsed pairs, their texts) holds no reference cycle, so
    reference counting frees it; each full pass of the collector would rescan
    every live pair, and a 200,000-pair padic run took 1.2-1.9 times as long
    with it (2 CPUs, Python 3.11)."""
    @functools.wraps(command)
    def run(args) -> int:
        collecting = gc.isenabled()
        gc.disable()
        try:
            return command(args)
        finally:
            if collecting:
                gc.enable()
    return run


@_gc_paused
def cmd_padic(args) -> int:
    cfg = _config(args)
    p, limit = cfg["p"], sys.get_int_max_str_digits()
    rows = []  # the (a, b, distance) texts of each pair
    texts = {Infinity: "0/1"}  # d_p(a, b) = p**-o as text, for each o = ord_p(a - b) met so far
    for index, (a, b) in enumerate(cfg["pairs"]):
        o = _ord_difference(a, b, p)  # _prime has checked p
        distance = texts.get(o)
        if distance is None:
            power = p ** abs(o)
            if not _printable_int(power):
                raise ValueError(f"config key 'pairs': the {p}-adic distance of pair {index} exceeds the digit "
                                 f"limit {limit}")
            distance = texts[o] = f"1/{power}" if o >= 0 else f"{power}/1"
        rows.append((str(a), str(b), distance))
    # echoed as these texts, written as they stand; the pair Fractions are freed here
    cfg["pairs"] = _TextArrays(("a", "b"), [row[:2] for row in rows])
    distances = _Records(("a", "b", "distance"), rows)
    report: dict = {"p": p, "distances": distances, "similarity_dimension_float": similarity_dimension(p)}
    if "cantor_level" in cfg:
        _keyed("cantor_level", lambda level: require_cantor_size(p, level), cfg["cantor_level"])
        report["cantor_intervals"] = _CantorArray(p, cfg["cantor_level"])
    if "probe" in cfg:
        digits = cfg["probe"]["a_digits"]
        if not _printable_power(p, len(digits)):  # a_value < p**K: checked before a digit is parsed
            raise ValueError(f"config key 'a_digits': {p}**{len(digits)} exceeds the digit limit {limit}")
        a = _keyed("a_digits", lambda d: PadicInt(p, _list_of(_int(0))(d)), digits)
        probe = _keyed("b_off", lambda b: euclid_padic_probe(a, b), cfg["probe"]["b_off"])
        if not _printable(probe.euclid_gap):
            raise ValueError(f"config keys 'a_digits' and 'b_off': the Euclidean gap exceeds the digit limit {limit}")
        report["probe"] = probe.record()
    _emit(args, cfg, report, distances.csv_rows)
    return EXIT_OK


def cmd_dirac(args) -> int:
    cfg = _config(args)
    n_bits, steps, trace_length = cfg["n_bits"], cfg["steps"], cfg["trace_length"]
    psi = dirac_mod.spinor(n_bits, mass=cfg["mass"], wavevector=cfg["wavevector"])
    if not _printable(psi.omega_sq):
        raise ValueError(f"config keys 'mass' and 'wavevector': omega^2 exceeds the digit limit "
                         f"{sys.get_int_max_str_digits()}")
    operator = dirac_mod.evolution_operator(psi, *steps)  # the same product at every step
    trace = dirac_mod._DiracTrace(n_bits, dirac_mod.phase_trace(operator, psi.components, trace_length))
    report = {
        "n_bits": n_bits,
        "mass": fraction_str(psi.mass),
        "wavevector": [fraction_str(k) for k in psi.wavevector],
        "omega_sq": fraction_str(psi.omega_sq),
        "omega": fraction_str(psi.omega) if psi.omega is not None else None,
        "physical": psi.omega is not None,
        "steps_per_application": steps,
        "trace": trace,
    }
    _emit(args, cfg, report, trace.csv_rows)
    return EXIT_OK


def cmd_check(args) -> int:
    from .checks import DEFAULT_SEED, SUITES, run_suite  # the suites load for this command only

    if args.suite not in (*SUITES, "all"):
        raise ValueError(f"unknown suite {args.suite!r}; choose from {', '.join([*SUITES, 'all'])}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    rows = run_suite(args.suite, seed)
    width = max(len(r.name) for r in rows)
    failures = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name.ljust(width)}  {r.detail}")
    print(f"{len(rows) - failures}/{len(rows)} checks passed (seed={seed})")
    return EXIT_OK if failures == 0 else EXIT_USAGE


def _line(message: str) -> str:
    """message as one ASCII stderr line: a line break or non-ASCII character
    as its escape, each run of more than 40 digits as its first 20 and its
    digit count, and the whole cut to LINE_BOUND characters, which are bytes."""
    ascii_text = message.encode("ascii", "backslashreplace").decode("ascii")
    line = re.sub(r"[0-9]{41,}", lambda run: f"{run[0][:20]}...({len(run[0])} digits)",
                  ascii_text.replace("\r", "\\r").replace("\n", "\\n"))
    return line if len(line) <= LINE_BOUND else line[:LINE_BOUND - 3] + "..."


#: Each subcommand's function, help line and options, {flag: add_argument
#: keywords}, stated once: build_parser builds its parsers from them, and
#: _plain_args reads the plain form of argv by them.
_REPORT_OPTIONS = {
    "--config": {"type": str, "default": None, "help": "JSON config path"},
    "--out": {"type": str, "default": "invset_reports", "help": "output directory"},
    "--format": {"choices": ["json", "csv", "both"], "default": "both"},
}
_N_BITS_OPTION = {"--n-bits": {"type": int, "default": None, "help": "override config n_bits"}}
COMMANDS: dict[str, tuple] = {
    name: (func, help_text, _REPORT_OPTIONS | (_N_BITS_OPTION if "n_bits" in SCHEMAS[name] else {}))
    for name, func, help_text in (
        ("chsh", cmd_chsh, "four sub-ensemble correlations, S value, counterfactual matrix"),
        ("mz", cmd_mz, "which-way / interference run with gate verdicts"),
        ("pbr", cmd_pbr, "closed-form outcome values and the preparation obstruction"),
        ("sample", cmd_sample, "construct a string or the rotation table"),
        ("padic", cmd_padic, "p-adic distances, Cantor intervals, probes"),
        ("dirac", cmd_dirac, "granular evolution trace"),
    )
}
COMMANDS["check"] = (cmd_check, "run an invariant suite", {
    "--suite": {"type": str, "default": "all"},
    "--seed": {"type": int, "default": None},  # None: checks.DEFAULT_SEED
})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged).
    argparse is imported here, not at the top: a run of the plain form never
    needs it."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """Reports a usage error like every other usage error: one line on
        stderr and exit 1, since exit 2 means an invariant-set exclusion.
        Subparsers are made of this class too."""

        def error(self, message: str):
            print(_line(f"error: {message}"), file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    parser = _ArgumentParser(prog="invset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv) -> SimpleNamespace | None:
    """The attributes ``build_parser().parse_args(argv)`` would give, for argv
    of the plain form: a command, then pairs of an option named in full and a
    value that does not start with "-", passes the option's type and is among
    its choices; the last of a repeated option wins.  None for any other argv,
    which argparse reads, so help and every usage error stay its own."""
    if not argv or argv[0] not in COMMANDS or not len(argv) % 2:
        return None
    func, _, options = COMMANDS[argv[0]]
    values = {flag: keywords["default"] for flag, keywords in options.items()}
    for flag, value in zip(argv[1::2], argv[2::2]):
        keywords = options.get(flag)
        if keywords is None or value.startswith("-") or value not in keywords.get("choices", [value]):
            return None  # not an option, or a value argparse reads otherwise or refuses
        if keywords.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[flag] = value
    return SimpleNamespace(command=argv[0], func=func,
                           **{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotOnInvariantSet, NoAdmissibleAngle) as exc:
        print(_line(f"off the invariant set: {exc}"), file=sys.stderr)
        return EXIT_EXCLUDED
    except (OSError, ValueError, ZeroDivisionError, ResourceBound) as exc:
        print(_line(f"error: {exc}"), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
