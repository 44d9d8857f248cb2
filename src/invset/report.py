"""Report writing: the JSON and CSV text of a command's report, written to
``--out`` with a manifest that hashes it.

``_stable_json`` gives the bytes of ``json.dumps(obj, sort_keys=True,
indent=2) + "\\n"`` with fewer calls per value.  A value with a ``pieces``
method, such as the Cantor intervals of ``padic``, the phase trace of
``dirac`` or a label string (``_Labels``), renders its own text in pieces.
Such a value and report.csv stream: each piece holds whole entries
(intervals, steps, lines) and at most PIECE_BYTES plus one entry, or one
long text, such as a label string, alone; each piece is encoded, hashed and
written before the next is built.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from fractions import Fraction
from itertools import chain, repeat

from . import __version__
from .exactmath import ExactAngle


#: Most characters of report text, which is ASCII, built into one piece before
#: its last entry: small enough that a piece is encoded, hashed and written
#: while it is in a core's cache (see _pieces).
PIECE_BYTES = 1 << 16


def _pieces(texts):
    """`texts` joined, in order, into pieces: each piece ends with the first
    text that brings it to PIECE_BYTES, so it holds whole texts and at most
    PIECE_BYTES plus one text.  A text of PIECE_BYTES or more is a piece of
    its own, passed on without a copy."""
    parts, size, bound = [], 0, PIECE_BYTES
    for text in texts:
        length = len(text)
        if length >= bound and parts:
            yield "".join(parts)
            parts, size = [], 0
        parts.append(text)
        size += length
        if size >= bound:
            yield "".join(parts)  # a join of one text is that text
            parts, size = [], 0
    if parts:
        yield "".join(parts)


def _utc_now(seconds: float | None = None) -> str:
    """The UTC time, now or at ``seconds`` after the epoch, to the second, as
    ``datetime``'s ``isoformat()`` writes it.  Now is read from
    ``time.time()``: ``gmtime()`` without an argument reads a coarser clock
    that can be a second behind it."""
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(time.time() if seconds is None else seconds))


def _stable_json(obj, default=None) -> bytes:
    """The bytes of ``json.dumps(obj, sort_keys=True, indent=2,
    default=default) + "\\n"``, for a `default` that gives text.

    json writes an indented document with its pure-Python encoder; this
    writer makes the same choices (sorted keys, ASCII-escaped strings, the
    same number, key and error forms) with fewer calls per value."""
    chunks: list[str] = []
    _write_json(obj, "\n", chunks.append, default=default)
    chunks.append("\n")
    return "".join(chunks).encode()


def _json_float(value: float) -> str:
    """A float as json writes it: NaN and the infinities by name, else its repr."""
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


class _Labels:
    """Label text as ``samplespace.to_text`` writes it, rotated left by
    `start` labels: only 0s and 1s, which JSON and CSV write unescaped.  The
    rotated text is built only as it is written, and neither writer scans or
    copies it: JSON quotes it as three pieces and report.csv gives it as a
    text of its own, so each writer encodes it alone (see _pieces and
    _write_json)."""

    __slots__ = ("text", "start")

    def __init__(self, text: str, start: int = 0) -> None:
        self.text, self.start = text, start

    def __str__(self) -> str:
        return self.text[self.start:] + self.text[:self.start]  # the text itself at start 0

    def pieces(self, newline: str):
        return '"', str(self), '"'


class _Records:
    """Rows of texts, written as a JSON array of objects and as report.csv
    lines.  `keys` are plain names in sorted order, the JSON key order, and
    each row is a tuple of texts in that order that JSON and CSV write
    unescaped, such as fraction text; so a row's JSON object and its CSV
    line are each one %-format of the row.  ``pieces`` gives the text
    _write_json gives ``[dict(zip(keys, row)) for row in rows]``, in the
    pieces of _pieces, whole objects each."""

    __slots__ = ("keys", "rows")
    brackets, label = "{}", '"{}": '  # of a row's JSON text, and the text before its field named {}

    def __init__(self, keys: tuple[str, ...], rows: list[tuple[str, ...]]) -> None:
        self.keys, self.rows = keys, rows

    def pieces(self, newline: str):
        if not self.rows:
            return ["[]"]
        item, key = newline + "  ", newline + "    "
        fields = ",".join(key + self.label.format(name) + '"%s"' for name in self.keys)
        entry = "," + item + self.brackets[0] + fields + item + self.brackets[1]
        entries = map(entry.__mod__, self.rows)
        first = "[" + next(entries)[1:]  # the first object follows the opening bracket, not a comma
        return _pieces(chain([first], entries, [newline + "]"]))

    def csv_rows(self):
        """report.csv's text in pieces: the keys as its header, then one line per row."""
        line = ",".join(["%s"] * len(self.keys)) + "\n"
        return _pieces(chain([",".join(self.keys) + "\n"], map(line.__mod__, self.rows)))


class _TextArrays(_Records):
    """Rows of texts written as a JSON array of arrays: ``pieces`` gives the
    text _write_json gives ``[list(row) for row in rows]``.  `keys` only
    counts a row's fields."""

    __slots__ = ()
    brackets, label = "[]", ""


_json_str = json.encoder.encode_basestring_ascii
#: JSON text of each scalar type a report holds, looked up by exact type.
_JSON_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _write_json(value, newline: str, out, flush=None, default=None) -> None:
    """Append the JSON text of `value`, indented 2 per level, to `out`;
    `newline` is a newline followed by the indent of the line `value` is on.
    Keys must be str and scalars of a type in _JSON_SCALARS (a subclass is
    a TypeError); items of scalar type are written in their container's loop.
    A value with a ``pieces`` method renders itself: ``pieces(newline)``
    gives its text in pieces, and `flush`, when given, is called before the
    first and after each one, so that a sink can write each piece out as it
    is made, joined to no other text.  Any other value is written as the JSON
    string of the text `default` gives it, or, with no `default`, is a
    TypeError."""
    is_dict = isinstance(value, dict)
    if is_dict or isinstance(value, (list, tuple)):
        opening, closing = "{}" if is_dict else "[]"
        if not value:
            out(opening + closing)
            return
        inner = newline + "  "
        comma, sep = "," + inner, opening + inner
        items = (((_json_str(key) + ": ", item) for key, item in sorted(value.items())) if is_dict
                 else zip(repeat(""), value))  # (text before the item, item)
        for prefix, item in items:
            encode = _JSON_SCALARS.get(type(item))
            if encode is not None:
                out(sep + prefix + encode(item))
            else:
                out(sep + prefix)
                _write_json(item, inner, out, flush, default)
            sep = comma
        out(newline + closing)
    elif type(value) in _JSON_SCALARS:
        out(_JSON_SCALARS[type(value)](value))
    elif hasattr(value, "pieces"):
        if flush is not None:
            flush()  # the text before the value goes out first, so each piece is flushed on its own
        for text in value.pieces(newline):
            out(text)
            if flush is not None:
                flush()
    elif default is not None:
        out(_json_str(default(value)))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv(header: list[str], rows):
    """CSV text of `header` and `rows`, one comma-joined line each, in the
    pieces of _pieces.  A line with a _Labels field is given as its fields,
    commas and newline, so the label text reaches _pieces as a text of its
    own.  Every field a command writes is a name, a number or fraction text,
    or 0/1 labels, none of which csv would quote."""
    def texts():
        for row in (header, *rows):
            fields = list(map(str, row))  # the str of a _Labels is its text itself
            if _Labels in map(type, row):
                for field in fields[:-1]:
                    yield from (field, ",")
                yield from (fields[-1], "\n")
            else:
                yield ",".join(fields) + "\n"
    return _pieces(texts())


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


def _echo_text(value) -> str:
    """A parsed config value of no JSON type as the config's echo writes it:
    a rational as its text, an angle as the text of its turns."""
    if isinstance(value, ExactAngle):
        return str(value.turns)
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, cfg: dict, report: dict, csv) -> None:
    """Write the report files and manifest.json to ``--out``; `csv()` gives
    report.csv's text in pieces, and is called only when ``--format`` writes
    report.csv.  Each file goes to a temporary file there, each piece hashed
    as it is written, and all are moved into place only once every one is
    complete, so a failed run leaves every file as it was."""
    out = args.out or "."  # an empty --out names the working directory
    if not os.path.isdir(out):
        os.makedirs(out, exist_ok=True)
    names = [f"report.{kind}" for kind in ("csv", "json") if args.format in (kind, "both")]  # in name order
    temporary = {name: f"{out}/.{name}.{os.getpid()}.tmp" for name in (*names, "manifest.json")}
    digest = hashlib.sha256()  # over each report's name and bytes, in name order
    try:
        for name in names:
            digest.update(name.encode() + b"\0")
            with open(temporary[name], "wb") as fh:
                sink = _HashedFile(fh, digest)
                if name == "report.json":
                    _write_json(report, "\n", sink.write, sink.flush)
                    sink.write("\n")
                    sink.flush()
                else:
                    for text in csv():
                        sink.write(text)
                        sink.flush()
        output_sha256 = digest.hexdigest()
        with open(temporary["manifest.json"], "wb") as fh:
            fh.write(_manifest(args.command, cfg, output_sha256))
        for name, path in temporary.items():
            os.replace(path, f"{out}/{name}")
    except BaseException:  # leave no partial file, whatever stopped the run
        for path in temporary.values():
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        raise
    print(f"{args.command}: wrote {', '.join(names)} and manifest.json to {out} "
          f"(output_sha256={output_sha256[:16]}...)")


def _manifest(command: str, cfg: dict, output_sha256: str) -> bytes:
    """manifest.json: ``_stable_json`` of the run's tool, version, command,
    config echo, ``input_sha256`` (over the echo's own ``_stable_json``
    bytes), timestamp and ``output_sha256``.  The echo is rendered once and
    its lines indented one level into the manifest's sorted-key layout; a
    JSON string holds no raw newline, so every newline in it is a line end."""
    config = _stable_json(cfg, _echo_text)
    echo = config[:-1].decode().replace("\n", "\n  ")
    return (f'{{\n  "command": {_json_str(command)},'
            f'\n  "config": {echo},'
            f'\n  "input_sha256": "{hashlib.sha256(config).hexdigest()}",'
            f'\n  "output_sha256": "{output_sha256}",'
            f'\n  "timestamp_utc": {_json_str(_utc_now())},'
            f'\n  "tool": "invset",'
            f'\n  "version": {_json_str(__version__)}\n}}\n').encode()
