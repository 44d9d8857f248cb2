"""Command-line front-end: run experiments and invariant checks from JSON
configs and emit deterministic JSON/CSV reports with a run manifest.

Exit codes: 0 success, 1 usage/IO/schema errors, 2 invariant-set exclusion
(NotOnInvariantSet / NoAdmissibleAngle) - "physics says no" is a result, not
a tool failure.  Two runs with identical configs produce byte-identical
reports; the manifest's timestamp is excluded from the output hash.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path

from . import __version__
from .exactmath import (
    ExactAngle,
    NoAdmissibleAngle,
    NotOnInvariantSet,
    ResourceBound,
    fraction_str,
)
from .experiments import WHICH_WAY, ChshConfig, MzConfig, PbrConfig, chsh_run, mz_run, pbr_run
from .padic import (
    PadicInt,
    cantor_numerators,
    euclid_padic_probe,
    is_prime,
    padic_dist,
    require_cantor_size,
    similarity_dimension,
)
from .samplespace import TABLE_SHIFTS, fraction, hilbert_shadow, rotation_table, sample, to_text
from . import dirac as dirac_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXCLUDED = 2

TRACE_LENGTH_BOUND = 1 << 12  # max evolution steps a dirac trace will take
CHSH_N_BITS_BOUND = 1 << 13  # largest chsh N: a run there takes about 70 ms on 2 CPUs


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()


def _stable_json(obj) -> bytes:
    """The bytes of ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``.

    json writes an indented document with its pure-Python encoder; this
    writer makes the same choices (sorted keys, ASCII-escaped strings, the
    same number, key and error forms) with fewer calls per value."""
    chunks: list[str] = []
    _write_json(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks).encode()


def _json_float(value: float) -> str:
    """A float as json writes it: NaN and the infinities by name, else its repr."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


_json_str = json.encoder.encode_basestring_ascii
#: JSON text of each scalar type a report holds, looked up by exact type.
_JSON_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_INT_TYPE = frozenset((int,))


def _write_json(value, newline: str, out, flush=None) -> None:
    """Append the JSON text of `value`, indented 2 per level, to `out`;
    `newline` is a newline followed by the indent of the line `value` is on.
    Keys must be str and scalars of a type in _JSON_SCALARS (a subclass is
    a TypeError); items of scalar type are written in their container's loop.
    `flush`, when given, is called after each piece of a Cantor array, so
    that a sink can write those pieces out as they are made."""
    if isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "{" + inner
        for key, item in sorted(value.items()):
            encode = _JSON_SCALARS.get(type(item))
            if encode is not None:
                out(sep + _json_str(key) + ": " + encode(item))
            else:
                out(sep + _json_str(key) + ": ")
                _write_json(item, inner, out, flush)
            sep = comma
        out(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "[" + inner
        if _INT_TYPE.issuperset(map(type, value)):  # exact ints: str is int.__repr__
            out(sep + comma.join(map(str, value)) + newline + "]")
            return
        for item in value:
            encode = _JSON_SCALARS.get(type(item))
            if encode is not None:
                out(sep + encode(item))
            else:
                out(sep)
                _write_json(item, inner, out, flush)
            sep = comma
        out(newline + "]")
    elif isinstance(value, _CantorArray):
        for text in _cantor_text(value, newline):
            out(text)
            if flush is not None:
                flush()
    elif type(value) in _JSON_SCALARS:
        out(_JSON_SCALARS[type(value)](value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@dataclass(frozen=True)
class _CantorArray:
    """The intervals of the level-th Cantor iterate as a report value: the
    writer gives it the JSON text of ``[iv.record() for iv in
    cantor_iterates(p, level)]`` without building an interval, a record or
    the list of all p**level numerators: _cantor_text renders it from the
    numerators of path heads and tails, by the gcd rule stated there."""

    p: int
    level: int


CANTOR_BATCH = 4096  # most intervals the writer renders into one text


def _digit_paths(p: int, digits: range, newline: str) -> list[str]:
    """JSON text of every path of the given digit positions, in
    lexicographic order, without the closing bracket: position 0 opens the
    list, each later one follows a comma."""
    texts = [""]
    for k in digits:
        sep = ("[" if k == 0 else ",") + newline
        texts = [text + sep + str(c) for text in texts for c in range(p)]
    return texts


def _tail_gcd(m: int, qt: int, q: int) -> int:
    """gcd(m, qt) for qt = q**t when every prime of q divides qt // gcd(m, qt),
    which makes it gcd(H * qt + m, q**level) for every head H (see
    _cantor_text); else 0.  No prime's exponent in q reaches q.bit_length(),
    so q divides that power of qt // gcd(m, qt) exactly when every prime does."""
    g = math.gcd(m, qt)
    return 0 if pow(qt // g, q.bit_length(), q) else g


def _cantor_text(array: _CantorArray, newline: str):
    """The JSON text of `array` on a line whose newline and indent are
    `newline`, in pieces of at most CANTOR_BATCH intervals.

    A path is a head of level - t digits and a tail of the last t = level // 2,
    so with q = 2p - 1 its left numerator over q**level is n = H * q**t + m,
    H and m the head's and the tail's numerators: only about 2 * p**(level / 2)
    numerators and path texts are built.  The gcd rule: if 0 < m and every
    prime r of q has v_r(m) < v_r(q**t), then gcd(n, q**level) = gcd(m, q**t)
    for every head, as v_r(H * q**t) >= v_r(q**t) > v_r(m) gives v_r(n) = v_r(m).
    _tail_gcd decides the condition; it holds for every 0 < m < q**t when q is
    a prime power.  The right endpoint is the same with m + 1.  A tail that
    passes for both carries its divisors and "/den" texts, so each of its
    intervals formats two integers; the others (for a prime power q, m = 0
    and m + 1 = q**t) take both gcds per interval."""
    p, level = array.p, array.level
    q, t = 2 * p - 1, level // 2
    den, qt = q**level, q**t
    item, key = newline + "  ", newline + "    "
    left, right = "{" + key + '"left": "', "," + key + '"right": "'
    fields, end = f'",{key}"level": {level},{key}"p": {p},{key}"path": ', '"' + item + "}"
    close = key + "]" if level else "[]"
    tails = []  # (m, left divisor, left text after n, path close, right divisor, right text after n + 1)
    for m, path in zip(cantor_numerators(p, t), _digit_paths(p, range(level - t, level), key + "  ")):
        g, h = _tail_gcd(m, qt, q), _tail_gcd(m + 1, qt, q)
        if not (g and h):
            g = h = 0  # depends on the head: both gcds per interval
        tails.append((m, g, f"/{den // g}{fields}" if g else "", path + close + right,
                      h, f"/{den // h}{end}" if h else ""))
    heads = zip(cantor_numerators(p, level - t), _digit_paths(p, range(level - t), key + "  "))
    gcd, opening, sep, parts = math.gcd, "[" + item, "," + item, []
    for head_numerator, head in heads:
        base = head_numerator * qt
        for m, g, after_left, path, h, after_right in tails:
            n = base + m
            if g:
                parts.append(f"{left}{n // g}{after_left}{head}{path}{(n + 1) // h}{after_right}")
            else:
                g, h = gcd(n, den), gcd(n + 1, den)
                parts.append(f"{left}{n // g}/{den // g}{fields}{head}{path}{(n + 1) // h}/{den // h}{end}")
        if len(parts) + len(tails) > CANTOR_BATCH:
            yield opening + sep.join(parts)
            opening, parts = sep, []
    if parts:
        yield opening + sep.join(parts)
    yield newline + "]"


def _exact_str(value) -> str:
    """JSON form of the parsed config values JSON lacks: rationals and angles."""
    return str(value.turns if isinstance(value, ExactAngle) else value)


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


def _printable(value: Fraction) -> bool:
    """True iff value's numerator and denominator are within Python's digit
    limit for integer strings, so a report can print them."""
    limit = sys.get_int_max_str_digits()
    big = max(abs(value.numerator), value.denominator)
    return not limit or big.bit_length() <= 3 * limit or big < 10**limit


def _n_bits(bound: int | None = None):
    """Parser for a chsh or dirac n_bits: an integer in [3, bound] such that
    2**(N+1), above every number those reports print (chsh's S numerator can
    pass 2**N), is printable under the digit limit (0: no limit).  2**(N+1)
    is built only for N below 4 times the limit."""
    parse_int = _int(3, bound)

    def parse(value) -> int:
        n_bits, limit = parse_int(value), sys.get_int_max_str_digits()
        if limit and (n_bits >= 4 * limit or not _printable(Fraction(1 << (n_bits + 1)))):
            raise ValueError(f"2**{n_bits + 1} exceeds the digit limit {limit}")
        return n_bits
    return parse


def _fraction(value) -> Fraction:
    """Parser for a rational (an integer, ratio or decimal).  A decimal
    exponent beyond Python's digit limit for integer strings is refused
    before its power of ten is built, and so is a value the report could not
    print."""
    text = str(value)
    head, _, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    limit = sys.get_int_max_str_digits()
    if head and limit and digits.isdecimal() and (len(digits) > len(str(limit)) or int(digits) > limit):
        raise ValueError(f"decimal exponent {exponent.strip()} exceeds the digit limit {limit}")
    fr = Fraction(text)
    if not _printable(fr):
        raise ValueError(f"{text} exceeds the digit limit {limit}")
    return fr


def _turns(value) -> ExactAngle:
    return ExactAngle(_fraction(value))


def _list_of(item, length: int | None = None):
    """Parser for a JSON list of `item` values, of exactly `length` when given."""
    shape = "a list" if length is None else f"a list of {length} items"

    def parse(value) -> list:
        if not isinstance(value, list) or length not in (None, len(value)):
            raise TypeError(f"expected {shape}, got {value!r}")
        return [item(v) for v in value]
    return parse


#: command -> {key: (parser or nested schema, default)}.  A default is written
#: as a config would give it and parsed like one.  REQUIRED keys must be given;
#: an optional key whose default is None stays out of the parsed config.
SCHEMAS: dict[str, dict] = {
    "chsh": {
        "n_bits": (_n_bits(CHSH_N_BITS_BOUND), REQUIRED),
        "angles": ({key: (_turns, REQUIRED) for key in ("A1", "A2", "B1", "B2")}, REQUIRED),  # ChshConfig order
        "window_turns": (_fraction, None),  # absent: ChshConfig's 2**-(N-2)
    },
    "mz": {"n_bits": (_int(3), REQUIRED), "mode": (str, WHICH_WAY), "phi_turns": (_turns, REQUIRED)},
    "pbr": {"n_bits": (_int(1), REQUIRED),
            **{key: (_turns, REQUIRED) for key in ("alpha_turns", "beta_turns", "theta_turns")}},
    # both angles: one string; neither: the rotation table
    "sample": {"n_bits": (_int(3), 4), "theta_turns": (_turns, None), "phi_turns": (_turns, None)},
    "padic": {
        "p": (_prime, 2),
        "pairs": (_list_of(_list_of(_fraction, 2)), [["7", "3"], ["15", "7"]]),
        "cantor_level": (_int(0), None),
        "probe": ({"a_digits": (_list_of(_int(0)), REQUIRED), "b_off": (_fraction, REQUIRED)}, None),
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
        try:
            cfg[key] = parser(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    return cfg


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


def _csv_text(rows: list[list[str]]) -> str | None:
    """The text ``csv.writer(..., lineterminator="\n")`` writes for `rows`, as
    the plain comma/newline join, or None where the two might differ: a field
    that is not a str, an empty line (csv quotes a lone empty field), or a
    comma, newline, quote or carriage return inside a field.  Those
    characters are looked for by one scan each of all fields at once.
    Numbers are left to the csv module, which converts them faster than a
    join can."""
    try:
        lines = list(map(",".join, rows))
        fields = "".join(chain.from_iterable(rows))
    except TypeError:
        return None
    if "" in lines or "," in fields or "\n" in fields or '"' in fields or "\r" in fields:
        return None
    return "\n".join([*lines, ""])


class _HashedFile:
    """Report text on its way to a binary file: ``write`` collects pieces of
    text, and ``flush`` encodes those collected so far, writes them to `fh`
    and feeds the same bytes to `digest`."""

    def __init__(self, fh, digest) -> None:
        self.fh, self.digest = fh, digest
        self.parts: list[str] = []
        self.write = self.parts.append

    def flush(self) -> None:
        data = "".join(self.parts).encode()
        self.fh.write(data)
        self.digest.update(data)
        self.parts.clear()


def _emit(args, cfg: dict, report: dict, header: list[str], rows: list[list]) -> None:
    """Write the report files and manifest.json to ``--out``.  Each report
    goes to a temporary file there while it is hashed, a Cantor array piece
    by piece, and all of them are moved into place only once every one is
    complete."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = [f"report.{kind}" for kind in ("csv", "json") if args.format in (kind, "both")]  # in name order
    temporary = {name: os.path.join(out, f".{name}.{os.getpid()}.tmp") for name in names}
    digest = hashlib.sha256()  # over each report's name and bytes, in name order
    try:
        for name in names:
            digest.update(name.encode() + b"\0")
            with open(temporary[name], "wb") as fh:
                sink = _HashedFile(fh, digest)
                if name == "report.json":
                    _write_json(report, "\n", sink.write, sink.flush)
                    sink.write("\n")
                else:
                    table = [header, *rows]
                    text = _csv_text(table)
                    if text is not None:
                        sink.write(text)
                    else:
                        csv.writer(sink, lineterminator="\n").writerows(table)
                sink.flush()
        for name in names:
            os.replace(temporary[name], os.path.join(out, name))
    except BaseException:  # leave no partial report, whatever stopped the run
        for path in temporary.values():
            Path(path).unlink(missing_ok=True)
        raise
    echo = json.loads(json.dumps(cfg, default=_exact_str))
    manifest = {
        "tool": "invset",
        "version": __version__,
        "command": args.command,
        "config": echo,
        "input_sha256": hashlib.sha256(_stable_json(echo)).hexdigest(),
        "timestamp_utc": _utc_now(),
        "output_sha256": digest.hexdigest(),
    }
    (out / "manifest.json").write_bytes(_stable_json(manifest))
    print(f"{args.command}: wrote {', '.join(names)} and manifest.json to {out} "
          f"(output_sha256={manifest['output_sha256'][:16]}...)")


def cmd_chsh(args) -> int:
    cfg = _config(args)
    config = ChshConfig(cfg["n_bits"], *cfg["angles"].values(), cfg.get("window_turns"))
    report = chsh_run(config)
    rec = report.record()
    rows = [[pair, fraction_str(se.substitution.requested_turns), se.substitution.first_count,
             fraction_str(se.substitution.cos_value), fraction_str(se.correlation), float(se.correlation)]
            for pair, se in report.sub_ensembles.items()]
    header = ["pair", "requested_turns", "first_count", "cos_substitute", "correlation", "correlation_float"]
    _emit(args, {**cfg, "window_turns": config.window}, rec, header, rows)
    print(f"S = {rec['s_value']} ({rec['s_value_float_derived']:.6f})")
    return EXIT_OK


def cmd_mz(args) -> int:
    cfg = _config(args)
    report = mz_run(MzConfig(cfg["mode"], cfg["phi_turns"], cfg["n_bits"]))
    rows = [[detector, fraction_str(p), float(p)] for detector, p in sorted(report.probabilities.items())]
    _emit(args, cfg, report.record(), ["detector", "probability", "probability_float"], rows)
    return EXIT_OK


def cmd_pbr(args) -> int:
    cfg = _config(args)
    report = pbr_run(PbrConfig(cfg["alpha_turns"], cfg["beta_turns"], cfg["theta_turns"], cfg["n_bits"]))
    rec = report.record()
    rows = [
        ["X", rec["X"]["exact"], rec["X"]["float_derived"]],
        ["Z", rec["Z"]["exact"], rec["Z"]["float_derived"]],
    ]
    _emit(args, cfg, rec, ["quantity", "exact", "float"], rows)
    return EXIT_OK


def cmd_sample(args) -> int:
    cfg = _config(args)
    n_bits, theta, phi = cfg["n_bits"], cfg.get("theta_turns"), cfg.get("phi_turns")
    if args.golden:
        from .checks import golden_table

        if not golden_table()[0].passed:
            print("golden mismatch: generated table differs from the stored table", file=sys.stderr)
            return EXIT_USAGE
        print("golden table check: PASS (4 strings, byte-identical)")
    if theta is not None or phi is not None:
        if theta is None or phi is None:
            raise ValueError(f"config is missing {'theta_turns' if theta is None else 'phi_turns'!r}")
        s = sample(n_bits, theta, phi)
        shadow = hilbert_shadow(s)
        report = {
            "n_bits": n_bits,
            "string": to_text(s),
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
        table_lines = rotation_table(n_bits)
        report = {"n_bits": n_bits, "table_shifts": TABLE_SHIFTS, "strings": table_lines}
        rows = [[f"shift_{k}", line] for k, line in zip(TABLE_SHIFTS, table_lines)]
    _emit(args, cfg, report, ["name", "labels"], rows)
    return EXIT_OK


def cmd_padic(args) -> int:
    cfg = _config(args)
    p = cfg["p"]
    distances = [
        {"a": str(a), "b": str(b), "distance": fraction_str(padic_dist(a, b, p))} for a, b in cfg["pairs"]
    ]
    if args.golden:  # the stored 2-adic examples, whatever the config's pairs and p
        from .checks import golden_d2

        if not golden_d2()[0].passed:
            print("golden mismatch: p-adic distances differ from the stored values", file=sys.stderr)
            return EXIT_USAGE
        print("golden distance check: PASS")
    report: dict = {"p": p, "distances": distances, "similarity_dimension_float": similarity_dimension(p)}
    if "cantor_level" in cfg:
        require_cantor_size(p, cfg["cantor_level"])
        report["cantor_intervals"] = _CantorArray(p, cfg["cantor_level"])
    if "probe" in cfg:
        a = PadicInt(p, tuple(cfg["probe"]["a_digits"]))
        report["probe"] = euclid_padic_probe(a, cfg["probe"]["b_off"]).record()
    rows = [[d["a"], d["b"], d["distance"]] for d in distances]
    _emit(args, cfg, report, ["a", "b", "distance"], rows)
    return EXIT_OK


def cmd_dirac(args) -> int:
    cfg = _config(args)
    n_bits, steps, trace_length = cfg["n_bits"], cfg["steps"], cfg["trace_length"]
    psi = dirac_mod.spinor(n_bits, mass=cfg["mass"], wavevector=cfg["wavevector"])
    if not _printable(psi.omega_sq):
        raise ValueError(f"config keys 'mass' and 'wavevector': omega^2 exceeds the digit limit "
                         f"{sys.get_int_max_str_digits()}")
    operator = dirac_mod.evolution_operator(psi, *steps)  # the same product at every step
    trace = []
    rows = []
    components = psi.components
    half = 1 << (n_bits - 1)
    for step in range(trace_length + 1):
        entry = []
        for idx, comp in enumerate(components, 1):
            d = comp.descriptor  # each component stays a phase string: its phase is rotation/2**(N-1)
            turns = fraction_str(Fraction(d.rotation, half))
            entry.append({"component": idx, "phase_turns": turns, "first_count": d.first_count})
            rows.append([step, idx, turns, d.first_count])
        trace.append({"step": step, "components": entry})
        if step < trace_length:
            components = operator.apply(components)
    report = {
        "n_bits": n_bits,
        "mass": fraction_str(psi.mass),
        "wavevector": [fraction_str(k) for k in psi.wavevector],
        "omega_sq": fraction_str(psi.omega_sq),
        "omega": fraction_str(psi.omega) if psi.omega is not None else None,
        "physical": psi.physical,
        "steps_per_application": steps,
        "trace": trace,
    }
    _emit(args, cfg, report, ["step", "component", "phase_turns", "first_count"], rows)
    return EXIT_OK


def cmd_check(args) -> int:
    from .checks import DEFAULT_SEED, SUITES, run_suite  # the suites load for this command only

    if args.suite not in (*SUITES, "all"):
        print(f"unknown suite {args.suite!r}; choose from {', '.join([*SUITES, 'all'])}", file=sys.stderr)
        return EXIT_USAGE
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


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error like every other usage error: one line on stderr
    and exit 1, since exit 2 means an invariant-set exclusion.  Subparsers
    are made of this class too."""

    def error(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = _ArgumentParser(prog="invset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("chsh", cmd_chsh, "four sub-ensemble correlations, S value, counterfactual matrix"),
        ("mz", cmd_mz, "which-way / interference run with gate verdicts"),
        ("pbr", cmd_pbr, "closed-form outcome values and the preparation obstruction"),
        ("sample", cmd_sample, "construct strings; golden-table comparison with --golden"),
        ("padic", cmd_padic, "p-adic distances, Cantor intervals, probes"),
        ("dirac", cmd_dirac, "granular evolution trace"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--out", type=str, default="invset_reports", help="output directory")
        p.add_argument("--format", choices=["json", "csv", "both"], default="both")
        if "n_bits" in SCHEMAS[name]:
            p.add_argument("--n-bits", type=int, default=None, help="override config n_bits")
        if name in ("sample", "padic"):
            p.add_argument("--golden", action="store_true")
        p.set_defaults(func=func)

    p_check = sub.add_parser("check", help="run an invariant suite")
    p_check.add_argument("--suite", type=str, default="all")
    p_check.add_argument("--seed", type=int, default=None)  # None: checks.DEFAULT_SEED
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotOnInvariantSet, NoAdmissibleAngle) as exc:
        print(f"off the invariant set: {exc}", file=sys.stderr)
        return EXIT_EXCLUDED
    except (OSError, ValueError, ZeroDivisionError, ResourceBound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
