"""Report writing: the JSON and CSV text of a command's report, written to
``--out`` with a manifest that hashes it.

``_stable_json`` gives the bytes of ``json.dumps(obj, sort_keys=True,
indent=2) + "\\n"`` with fewer calls per value.  Three kinds of report value
carry their own text: label strings (``_Labels``, written as they are) and
two values that render themselves in pieces from one template per item, the
Cantor intervals of ``padic`` (``_CantorArray``) and the phase trace of
``dirac`` (``_DiracTrace``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from fractions import Fraction
from itertools import chain
from pathlib import Path

from . import __version__
from .exactmath import ExactAngle, _Record
from .padic import cantor_numerators


def _utc_now(seconds: float | None = None) -> str:
    """The UTC time, now or at ``seconds`` after the epoch, to the second, as
    ``datetime``'s ``isoformat()`` writes it."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(seconds))


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


class _Labels(str):
    """Label text as ``samplespace.to_text`` writes it: only 0s and 1s, which
    JSON writes unescaped, so the writer quotes it without scanning it."""

    __slots__ = ()


_json_str = json.encoder.encode_basestring_ascii
#: JSON text of each scalar type a report holds, looked up by exact type.
_JSON_SCALARS = {
    str: _json_str,
    _Labels: lambda text: '"' + text + '"',
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(value, newline: str, out, flush=None) -> None:
    """Append the JSON text of `value`, indented 2 per level, to `out`;
    `newline` is a newline followed by the indent of the line `value` is on.
    Keys must be str and scalars of a type in _JSON_SCALARS (a subclass is
    a TypeError); items of scalar type are written in their container's loop.
    A Cantor array or a dirac trace renders itself: ``pieces(newline)`` gives
    its text in pieces, and `flush`, when given, is called before the first
    and after each one, so that a sink can write each piece out as it is made,
    joined to no other text."""
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
        for item in value:
            encode = _JSON_SCALARS.get(type(item))
            if encode is not None:
                out(sep + encode(item))
            else:
                out(sep)
                _write_json(item, inner, out, flush)
            sep = comma
        out(newline + "]")
    elif isinstance(value, (_CantorArray, _DiracTrace)):
        if flush is not None:
            flush()  # the text before the value goes out first, so each piece is flushed on its own
        for text in value.pieces(newline):
            out(text)
            if flush is not None:
                flush()
    elif type(value) in _JSON_SCALARS:
        out(_JSON_SCALARS[type(value)](value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _CantorArray(_Record):
    """The intervals of the level-th Cantor iterate as a report value: the
    writer gives it the JSON text of ``[iv.record() for iv in
    cantor_iterates(p, level)]`` without building an interval, a record or
    the list of all p**level numerators: _cantor_text renders it from the
    numerators of path heads and tails, by the gcd rule stated there."""

    __slots__ = ("p", "level")

    def __init__(self, p: int, level: int) -> None:
        self._init(p, level)

    def pieces(self, newline: str):
        return _cantor_text(self, newline)


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


class _DiracTrace:
    """dirac's trace as a report value, from the rotation vectors x of
    ``dirac.phase_trace``: the JSON text of ``[{"step": k, "components":
    [{"component": i, "phase_turns": fraction_str(Fraction(x[i - 1],
    2**(N-1))), "first_count": 2**(N-1)} for i in 1..4]} for k, x in
    enumerate(rotations)]`` and the matching CSV rows, each step's entry and
    rows from one template.  A phase is x / 2**(N-1) in lowest terms:
    x // d over 2**(N-1) // d, d the lowest set bit of x."""

    def __init__(self, n_bits: int, rotations: list[tuple[int, int, int, int]]) -> None:
        half = 1 << (n_bits - 1)
        turns = {x: f"{x // (x & -x)}/{half // (x & -x)}" if x else "0/1" for x in set(chain(*rotations))}
        self.first_count = half  # every component stays a phase string, half its labels first-regime
        self.phases = [[turns[x] for x in rotation] for rotation in rotations]

    def pieces(self, newline: str):
        if not self.phases:
            return ["[]"]
        item, key = newline + "  ", newline + "    "
        inner, field = key + "  ", key + "    "
        opens = [f'{inner}{{{field}"component": {i},{field}"first_count": {self.first_count},{field}"phase_turns": "'
                 for i in (1, 2, 3, 4)]
        close = '"' + inner + "}"
        c1 = "{" + key + '"components": [' + opens[0]
        c2, c3, c4 = (close + "," + text for text in opens[1:])
        step = close + key + "]," + key + '"step": '
        entries = (f"{c1}{a}{c2}{b}{c3}{c}{c4}{d}{step}{k}{item}}}" for k, (a, b, c, d) in enumerate(self.phases))
        return ["[" + item + ("," + item).join(entries) + newline + "]"]

    def csv_rows(self) -> str:
        """The CSV lines of the rows (step, component, phase_turns, first_count)."""
        f = self.first_count
        return "".join(f"{k},1,{a},{f}\n{k},2,{b},{f}\n{k},3,{c},{f}\n{k},4,{d},{f}\n"
                       for k, (a, b, c, d) in enumerate(self.phases))


def _csv(header: list[str], rows) -> str:
    """CSV text of `header` and `rows`, one comma-joined line each.  Every
    field a command writes is a name, a number or fraction text, or 0/1
    labels, none of which csv would quote."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


class _HashedFile:
    """Report text on its way to a binary file: ``write`` collects pieces of
    text, and ``flush`` encodes those collected so far, writes them to `fh`
    and feeds the same bytes to `digest`.  A join of one piece is that piece,
    so a piece flushed alone is encoded without a copy."""

    def __init__(self, fh, digest) -> None:
        self.fh, self.digest = fh, digest
        self.parts: list[str] = []
        self.write = self.parts.append

    def flush(self) -> None:
        data = "".join(self.parts).encode()
        self.fh.write(data)
        self.digest.update(data)
        self.parts.clear()


def _exact_str(value) -> str:
    """JSON form of the parsed config values JSON lacks: rationals and angles."""
    return str(value.turns if isinstance(value, ExactAngle) else value)


def _echo(value):
    """A parsed config as JSON reads it back: rationals and angles as
    _exact_str writes them, tuples as lists."""
    if isinstance(value, dict):
        return {key: _echo(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_echo(item) for item in value]
    return _exact_str(value) if isinstance(value, (Fraction, ExactAngle)) else value


def _emit(args, cfg: dict, report: dict, csv_text: str) -> None:
    """Write the report files and manifest.json to ``--out``; `csv_text` is
    report.csv's text.  Each report goes to a temporary file there while it
    is hashed, a value that renders itself piece by piece, and all of them
    are moved into place only once every one is complete."""
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
                    sink.write(csv_text)
                sink.flush()
        for name in names:
            os.replace(temporary[name], os.path.join(out, name))
    except BaseException:  # leave no partial report, whatever stopped the run
        for path in temporary.values():
            Path(path).unlink(missing_ok=True)
        raise
    output_sha256 = digest.hexdigest()
    (out / "manifest.json").write_bytes(_manifest(args.command, cfg, output_sha256))
    print(f"{args.command}: wrote {', '.join(names)} and manifest.json to {out} "
          f"(output_sha256={output_sha256[:16]}...)")


def _manifest(command: str, cfg: dict, output_sha256: str) -> bytes:
    """manifest.json: ``_stable_json`` of the run's tool, version, command,
    config echo, ``input_sha256`` (over the echo's own ``_stable_json``
    bytes), timestamp and ``output_sha256``.  The echo is rendered once and
    its lines indented one level into the manifest's sorted-key layout; a
    JSON string holds no raw newline, so every newline in it is a line end."""
    config = _stable_json(_echo(cfg))
    echo = config[:-1].decode().replace("\n", "\n  ")
    return (f'{{\n  "command": {_json_str(command)},'
            f'\n  "config": {echo},'
            f'\n  "input_sha256": "{hashlib.sha256(config).hexdigest()}",'
            f'\n  "output_sha256": "{output_sha256}",'
            f'\n  "timestamp_utc": {_json_str(_utc_now())},'
            f'\n  "tool": "invset",'
            f'\n  "version": {_json_str(__version__)}\n}}\n').encode()
