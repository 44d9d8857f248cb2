"""The three workloads: seeded op streams, the call each op makes into invset,
and the oracle check of its output.

Each workload deals its op classes from a fixed deck, shuffled per deck by the
seed, so every run sees the same class mix whatever the seed; the seed picks
the order and the values inside each op.  ``prepare`` (untimed) turns an op
into a zero-argument call into invset; the runner times only that call, then
``check`` (untimed) compares the result with ``oracles``.  A CLI op lists the
exit codes it may end with; ops marked ``malformed`` carry inputs the program
must reject with exit 1 or 2 (or, where a correct answer exists, answer).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import invset
from invset import cli, multiqubit
from invset.exactmath import ExactAngle

import oracles

NIVEN_5 = ("0", "1/6", "1/4", "1/3", "1/2")
NIVEN_8 = tuple(str(t) for t in oracles.NIVEN_COS)


def _angle(text: str) -> ExactAngle:
    return ExactAngle(Fraction(text))


class Workload:
    name = ""
    deck: tuple[tuple[str, int], ...] = ()
    trace_ops = 0  # ops in the fixed prefix a traced run repeats
    report_bytes = 0  # bytes of report files checked so far

    def ops(self, seed: int):
        """Endless op stream: whole decks, each shuffled by the seeded rng."""
        rng = random.Random(seed)
        while True:
            cards = [(label, copy) for label, count in self.deck for copy in range(count)]
            rng.shuffle(cards)
            for label, copy in cards:
                yield self.make(label, copy, rng)

    def deck_size(self) -> int:
        return sum(count for _, count in self.deck)


class SweepMultiqubit(Workload):
    """Library calls as a parameter sweep makes them."""

    name = "sweep-multiqubit"
    deck = (("tree", 12), ("two", 5), ("bell", 3))
    trace_ops = 1000

    def make(self, label: str, copy: int, rng: random.Random) -> dict:
        n = rng.choice((6, 8, 10))
        if label == "tree":
            return {"cls": label, "n_bits": n, "thetas": [rng.choice(NIVEN_5) for _ in range(7)]}
        if label == "two":
            half = 1 << (n - 1)
            return {"cls": label, "n_bits": n, "thetas": [rng.choice(NIVEN_5) for _ in range(3)],
                    "phis": [str(Fraction(rng.randrange(half), half)) for _ in range(3)]}
        return {"cls": label, "n_bits": n, "count": rng.randrange((1 << n) + 1)}

    def prepare(self, op: dict):
        n = op["n_bits"]
        if op["cls"] == "tree":
            thetas = [_angle(t) for t in op["thetas"]]
            return lambda: multiqubit.joint_frequencies(multiqubit.multi_sample(n, thetas))
        if op["cls"] == "two":
            params = multiqubit.TwoQubitParams(*(_angle(t) for t in op["thetas"] + op["phis"]))

            def call():
                freqs = multiqubit.joint_frequencies(multiqubit.two_qubit_sample(params, n))
                return freqs, multiqubit.two_qubit_predict(params, n)

            return call
        amp = Fraction(op["count"], 1 << n)
        return lambda: multiqubit.joint_counts(multiqubit.bell_sample_from_amplitude(amp, n))

    def check(self, op: dict, result) -> str | None:
        if op["cls"] == "tree":
            return oracles.check_frequencies(result, [Fraction(t) for t in op["thetas"]])
        if op["cls"] == "two":
            freqs, predicted = result
            return oracles.check_two_qubit(freqs, predicted.probs, predicted.phases, op)
        return oracles.check_bell(result, op["count"], op["n_bits"])


class CliWorkload(Workload):
    """In-process ``invset.cli.main`` runs, each reading a config file and
    writing its reports to a directory of its own op class."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.config_path = workdir / "config.json"
        self.shas: dict[str, str] = {}  # command + config text -> output_sha256
        self.report_bytes = 0

    def out_dir(self, op: dict) -> Path:
        return self.workdir / "out" / op["cls"]

    def prepare(self, op: dict):
        out = self.out_dir(op)
        out.mkdir(parents=True, exist_ok=True)
        for stale in out.iterdir():
            stale.unlink()
        self.config_path.write_text(json.dumps(op["config"], sort_keys=True), encoding="utf-8")
        argv = [op["command"], "--config", str(self.config_path), "--out", str(out)]
        sink = io.StringIO()

        def call():
            with redirect_stdout(sink), redirect_stderr(sink):
                return cli.main(argv)

        return call

    def check(self, op: dict, code) -> str | None:
        if code not in op["exits"]:
            return f"exit code {code!r} is not one of {op['exits']}"
        if code != 0:
            return None
        files = {p.name: p.read_bytes() for p in self.out_dir(op).iterdir()}
        self.report_bytes += sum(len(data) for data in files.values())
        manifest = json.loads(files.pop("manifest.json"))
        if manifest["output_sha256"] != oracles.report_digest(files):
            return "manifest output_sha256 does not match the report bytes"
        key = op["command"] + json.dumps(op["config"], sort_keys=True)
        if self.shas.setdefault(key, manifest["output_sha256"]) != manifest["output_sha256"]:
            return "a repeated config gave another output_sha256"
        return self.check_report(op, json.loads(files["report.json"]), files.get("report.csv"))


def _niven_phase(rng: random.Random, n_bits: int) -> str:
    """A random phase: mostly a multiple of 2^-N (half of those fail the
    N-1 bit phase gate), sometimes a Niven angle."""
    if rng.random() < 0.75:
        return str(Fraction(rng.randrange(1 << n_bits), 1 << n_bits))
    return rng.choice(NIVEN_8)


class CliStrings(CliWorkload):
    """String-heavy subcommands: sample (write path), read-back through
    ``invset.from_text`` (read path), chsh, mz and dirac."""

    name = "cli-strings"
    # One malformed op of each kind per deck of 102, and one sample per Niven
    # angle and N: the angle sets how many labels are 1, and with it the cost
    # of to_text and from_text, so a fixed set keeps every run's mix the same.
    # The dirac count puts the median op inside one class, not between two.
    deck = (
        ("mz-which_way", 12), ("mz-interference", 12), ("dirac", 15), ("chsh16", 6), ("chsh20", 6),
        ("table12", 6), ("table14", 6), ("sample12", 8), ("sample14", 8), ("sample16", 8),
        ("readback12", 4), ("readback14", 4), ("readback16", 4),
        ("malformed-zero-den", 1), ("malformed-missing-angle", 1), ("malformed-n30", 1),
    )
    trace_ops = 102

    def ops(self, seed: int):
        """Read-backs parse the latest sample report of their N; one drawn
        before any such sample waits until the next one has run."""
        latest: dict[int, dict] = {}
        waiting: list[dict] = []
        for op in super().ops(seed):
            if op["cls"].startswith("readback"):
                waiting.append(op)
            else:
                if op["cls"].startswith("sample"):
                    latest[op["config"]["n_bits"]] = op
                yield op
            for rb in [rb for rb in waiting if rb["n_bits"] in latest]:
                waiting.remove(rb)
                yield {**rb, "target": latest[rb["n_bits"]]["config"]}

    def make(self, label: str, copy: int, rng: random.Random) -> dict:
        if label.startswith("mz-"):
            mode = label[3:]
            phi = _niven_phase(rng, 10)
            want = oracles.mz_expectation(mode, Fraction(phi), 10)
            return {"cls": label, "command": "mz", "exits": [0 if want else 2],
                    "config": {"n_bits": 10, "mode": mode, "phi_turns": phi}}
        if label == "dirac":
            return {"cls": label, "command": "dirac", "exits": [0],
                    "config": {"n_bits": 10, "mass": rng.choice(("1", "2", "3", "5/2")),
                               "wavevector": ["0", "0", "0"],
                               "steps": [rng.randint(1, 7), rng.randint(0, 3), 0, 0], "trace_length": 16}}
        if label.startswith("sample"):
            n = int(label[6:])
            phi = Fraction(rng.randrange(1 << (n - 1)), 1 << (n - 1))
            return {"cls": label, "command": "sample", "exits": [0],
                    "config": {"n_bits": n, "theta_turns": NIVEN_8[copy], "phi_turns": str(phi)}}
        if label.startswith("table"):
            return {"cls": label, "command": "sample", "exits": [0], "config": {"n_bits": int(label[5:])}}
        if label.startswith("readback"):
            return {"cls": label, "n_bits": int(label[8:])}
        if label.startswith("chsh"):
            off = Fraction(rng.choice((0, 1, 2, 4)), 16)
            angles = {k: str((off + Fraction(v)) % 1) for k, v in
                      (("A1", "0"), ("A2", "1/4"), ("B1", "1/8"), ("B2", "3/8"))}
            return {"cls": label, "command": "chsh", "exits": [0],
                    "config": {"n_bits": int(label[4:]), "angles": angles}}
        kind = label.partition("-")[2]
        if kind == "zero-den":
            config = {"n_bits": 10, "mode": rng.choice(("which_way", "interference")), "phi_turns": "1/0"}
            command = "mz"
        elif kind == "missing-angle":
            config = {"n_bits": 16, "angles": {"A1": "0", "A2": "1/4", "B1": "1/8"}}
            command = "chsh"
        else:
            config = {"n_bits": 30, "theta_turns": "1/4", "phi_turns": "1/8"}
            command = "sample"
        # Only the N=30 sample has a correct exit-0 answer (a descriptor-only report).
        exits = [0, 1, 2] if kind == "n30" else [1, 2]
        return {"cls": f"malformed-{kind}", "command": command, "malformed": True, "exits": exits, "config": config}

    def prepare(self, op: dict):
        if not op["cls"].startswith("readback"):
            return super().prepare(op)
        path = self.workdir / "out" / f"sample{op['n_bits']}" / "report.json"

        def call():
            with open(path, encoding="utf-8") as fh:
                text = json.load(fh)["string"]
            return text, invset.from_text(text)

        return call

    def check(self, op: dict, result) -> str | None:
        if not op["cls"].startswith("readback"):
            return super().check(op, result)
        text, parsed = result
        target = op["target"]
        want = oracles.sample_text(op["n_bits"], Fraction(target["theta_turns"]), Fraction(target["phi_turns"]))
        if text != want:
            return "read-back found another sample report than its target"
        return oracles.check_bits(parsed.bits, parsed.n_bits, op["n_bits"], want)

    def check_report(self, op: dict, report: dict, csv_bytes: bytes | None) -> str | None:
        cfg = op["config"]
        if op["command"] == "sample" and "theta_turns" in cfg:
            return oracles.check_sample_report(report, csv_bytes, cfg["n_bits"], Fraction(cfg["theta_turns"]),
                                               Fraction(cfg["phi_turns"]))
        if op["command"] == "sample":
            return oracles.check_rotation_table(report, cfg["n_bits"])
        if op["command"] == "chsh":
            return oracles.check_chsh(report)
        if op["command"] == "mz":
            return oracles.check_mz(report, oracles.mz_expectation(cfg["mode"], Fraction(cfg["phi_turns"]),
                                                                   cfg["n_bits"]))
        return oracles.check_dirac(report, cfg)


def _pairs(rng: random.Random, p: int, count: int = 20) -> list[list[str]]:
    """Rational pairs b = a + p^e * r with e in -2..3, so distances span
    several valuations."""
    pairs = []
    for _ in range(count):
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999))
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999))
        b = a + Fraction(p) ** rng.randint(-2, 3) * r
        pairs.append([str(a), str(b)])
    return pairs


class CliPadic(CliWorkload):
    """``invset padic``: Cantor iterates with distances and a probe, and
    distance-only configs at two large primes."""

    name = "cli-padic"
    # (p, cantor level, copies per deck); the cheaper levels appear more often
    # so the median falls inside one class rather than between two.
    CANTOR = ((2, 8, 4), (3, 5, 4), (5, 4, 4), (2, 9, 3), (3, 6, 3), (5, 5, 3), (2, 10, 3), (3, 7, 3),
              (2, 11, 4))
    DIST = ((1_000_003, 2), (1_000_000_007, 8))
    deck = tuple((f"cantor-{p}-{level}", k) for p, level, k in CANTOR) + \
        tuple((f"dist-{p}", k) for p, k in DIST) + (("malformed-level30", 1),)
    trace_ops = 42

    def make(self, label: str, copy: int, rng: random.Random) -> dict:
        kind, _, rest = label.partition("-")
        if kind == "cantor":
            p, level = (int(x) for x in rest.split("-"))
            k = rng.choice([k for k in range(1, 1000) if k % p])
            probe = {"a_digits": [rng.randrange(p) for _ in range(rng.randint(4, 8))],
                     "b_off": str(Fraction(k, p ** rng.randint(1, 3)))}
            config = {"p": p, "pairs": _pairs(rng, p), "cantor_level": level, "probe": probe}
            return {"cls": label, "command": "padic", "exits": [0], "config": config}
        if kind == "dist":
            p = int(rest)
            return {"cls": label, "command": "padic", "exits": [0], "config": {"p": p, "pairs": _pairs(rng, p)}}
        p = rng.choice((2, 3))
        return {"cls": label, "command": "padic", "malformed": True, "exits": [1, 2],
                "config": {"p": p, "pairs": _pairs(rng, p), "cantor_level": 30}}

    def check_report(self, op: dict, report: dict, csv_bytes: bytes | None) -> str | None:
        return oracles.check_padic(report, csv_bytes, op["config"])


WORKLOADS = {w.name: w for w in (SweepMultiqubit, CliStrings, CliPadic)}


def make_workload(name: str, workdir: Path) -> Workload:
    cls = WORKLOADS[name]
    return cls(workdir) if issubclass(cls, CliWorkload) else cls()
