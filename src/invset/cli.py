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
import hashlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .checks import DEFAULT_SEED, golden_d2_text, golden_table_text, run_suite
from .exactmath import (
    ExactAngle,
    NoAdmissibleAngle,
    NotOnInvariantSet,
    ResourceBound,
    fraction_str,
)
from .experiments import ChshConfig, MzConfig, PbrConfig, chsh_run, mz_run, pbr_run
from .padic import PadicInt, cantor_iterates, euclid_padic_probe, padic_dist, similarity_dimension
from .samplespace import first_label_count, fraction, hilbert_shadow, rotation_table, sample, to_text
from . import dirac as dirac_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_EXCLUDED = 2


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).replace(microsecond=0).isoformat()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stable_json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    return cfg


def _angle(cfg: dict, key: str) -> ExactAngle:
    try:
        return ExactAngle.parse(str(cfg[key]))
    except KeyError:
        raise ValueError(f"config is missing {key!r}")


def _n_bits(cfg: dict, args, default: int | None = None) -> int:
    if getattr(args, "n_bits", None) is not None:
        return args.n_bits
    if "n_bits" in cfg:
        return int(cfg["n_bits"])
    if default is not None:
        return default
    raise ValueError("n_bits missing (config key 'n_bits' or --n-bits)")


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _emit(args, command: str, config_echo: dict, report: dict, csv_payload: bytes | None) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fmt = args.format
    written: dict[str, bytes] = {}
    if fmt in ("json", "both"):
        written["report.json"] = _stable_json(report)
    if fmt in ("csv", "both") and csv_payload is not None:
        written["report.csv"] = csv_payload
    for name, data in written.items():
        (out / name).write_bytes(data)
    digest = hashlib.sha256()
    for name in sorted(written):
        digest.update(name.encode() + b"\0" + written[name])
    manifest = {
        "tool": "invset",
        "version": __version__,
        "command": command,
        "config": config_echo,
        "input_sha256": _sha256(_stable_json(config_echo)),
        "timestamp_utc": _utc_now(),
        "output_sha256": digest.hexdigest(),
    }
    (out / "manifest.json").write_bytes(_stable_json(manifest))
    print(f"{command}: wrote {', '.join(sorted(written))} and manifest.json to {out} "
          f"(output_sha256={manifest['output_sha256'][:16]}...)")


def cmd_chsh(args) -> int:
    cfg = _load_config(args)
    if "angles" not in cfg:
        raise ValueError("chsh config needs an 'angles' object with A1, A2, B1, B2 turn strings")
    angles = cfg["angles"]
    n_bits = _n_bits(cfg, args)
    window = Fraction(str(cfg["window_turns"])) if "window_turns" in cfg else None
    config = ChshConfig(
        n_bits,
        _angle(angles, "A1"),
        _angle(angles, "A2"),
        _angle(angles, "B1"),
        _angle(angles, "B2"),
        window,
    )
    report = chsh_run(config)
    rec = report.record()
    rows = [
        [
            pair,
            fraction_str(se.substitution.requested_turns),
            se.substitution.first_count,
            fraction_str(se.substitution.cos_value),
            fraction_str(se.correlation),
            float(se.correlation),
        ]
        for pair, se in report.sub_ensembles.items()
    ]
    payload = _csv_bytes(
        ["pair", "requested_turns", "first_count", "cos_substitute", "correlation", "correlation_float"],
        rows,
    )
    _emit(args, "chsh", {"angles": angles, "n_bits": n_bits, "window_turns": str(config.window)}, rec, payload)
    print(f"S = {rec['s_value']} ({rec['s_value_float_derived']:.6f})")
    return EXIT_OK


def cmd_mz(args) -> int:
    cfg = _load_config(args)
    n_bits = _n_bits(cfg, args)
    config = MzConfig(str(cfg.get("mode", "which_way")), _angle(cfg, "phi_turns"), n_bits)
    report = mz_run(config)
    rec = report.record()
    rows = [
        [detector, fraction_str(p), float(p)] for detector, p in sorted(report.probabilities.items())
    ]
    payload = _csv_bytes(["detector", "probability", "probability_float"], rows)
    _emit(args, "mz", {"mode": config.mode, "phi_turns": str(config.phi.turns), "n_bits": n_bits}, rec, payload)
    return EXIT_OK


def cmd_pbr(args) -> int:
    cfg = _load_config(args)
    n_bits = _n_bits(cfg, args)
    config = PbrConfig(
        _angle(cfg, "alpha_turns"), _angle(cfg, "beta_turns"), _angle(cfg, "theta_turns"), n_bits
    )
    report = pbr_run(config)
    rec = report.record()
    rows = [
        ["X", rec["X"]["exact"], rec["X"]["float_derived"]],
        ["Z", rec["Z"]["exact"], rec["Z"]["float_derived"]],
    ]
    payload = _csv_bytes(["quantity", "exact", "float"], rows)
    echo = {
        "alpha_turns": str(config.alpha.turns),
        "beta_turns": str(config.beta.turns),
        "theta_turns": str(config.theta.turns),
        "n_bits": n_bits,
    }
    _emit(args, "pbr", echo, rec, payload)
    return EXIT_OK


def cmd_sample(args) -> int:
    cfg = _load_config(args)
    n_bits = _n_bits(cfg, args, default=4)
    if args.golden:
        table = "\n".join(rotation_table(4)) + "\n"
        if table != golden_table_text():
            print("golden mismatch: generated table differs from the stored table", file=sys.stderr)
            return EXIT_USAGE
        print("golden table check: PASS (4 strings, byte-identical)")
    if "theta_turns" in cfg or "phi_turns" in cfg:
        s = sample(n_bits, _angle(cfg, "theta_turns"), _angle(cfg, "phi_turns"))
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
        report = {
            "n_bits": n_bits,
            "table_shifts": [0, 1, 2, 4],
            "strings": table_lines,
        }
        rows = [[f"shift_{k}", line] for k, line in zip((0, 1, 2, 4), table_lines)]
    payload = _csv_bytes(["name", "labels"], rows)
    _emit(args, "sample", {"n_bits": n_bits, **{k: str(v) for k, v in cfg.items() if k != "n_bits"}}, report, payload)
    return EXIT_OK


def cmd_padic(args) -> int:
    cfg = _load_config(args)
    p = int(cfg.get("p", 2))
    pairs = cfg.get("pairs", [["7", "3"], ["15", "7"]])
    distances = [
        {
            "a": str(a),
            "b": str(b),
            "distance": fraction_str(padic_dist(Fraction(str(a)), Fraction(str(b)), p)),
        }
        for a, b in pairs
    ]
    if args.golden:
        text = "".join(d["distance"] + "\n" for d in distances)
        if text != golden_d2_text():
            print("golden mismatch: p-adic distances differ from the stored values", file=sys.stderr)
            return EXIT_USAGE
        print("golden distance check: PASS")
    report: dict = {"p": p, "distances": distances, "similarity_dimension_float": similarity_dimension(p)}
    if "cantor_level" in cfg:
        level = int(cfg["cantor_level"])
        report["cantor_intervals"] = [iv.record() for iv in cantor_iterates(p, level)]
    if "probe" in cfg:
        probe_cfg = cfg["probe"]
        a = PadicInt(p, tuple(int(d) for d in probe_cfg["a_digits"]))
        report["probe"] = euclid_padic_probe(a, Fraction(str(probe_cfg["b_off"]))).record()
    rows = [[d["a"], d["b"], d["distance"]] for d in distances]
    payload = _csv_bytes(["a", "b", "distance"], rows)
    _emit(args, "padic", {"p": p, "pairs": pairs}, report, payload)
    return EXIT_OK


def cmd_dirac(args) -> int:
    cfg = _load_config(args)
    n_bits = _n_bits(cfg, args, default=6)
    mass = Fraction(str(cfg.get("mass", "1")))
    wavevector = tuple(Fraction(str(x)) for x in cfg.get("wavevector", ["0", "0", "0"]))
    steps = [int(x) for x in cfg.get("steps", [1, 0, 0, 0])]
    trace_length = int(cfg.get("trace_length", 4))
    psi = dirac_mod.spinor(n_bits, mass=mass, wavevector=wavevector)
    trace = []
    rows = []
    state = psi
    for step in range(trace_length + 1):
        entry = []
        for idx, comp in enumerate(state.components):
            turns = hilbert_shadow(comp).phase_turns
            count = first_label_count(comp)
            entry.append({"component": idx + 1, "phase_turns": fraction_str(turns), "first_count": count})
            rows.append([step, idx + 1, fraction_str(turns), count])
        trace.append({"step": step, "components": entry})
        if step < trace_length:
            state = dirac_mod.full_evolve(state, *steps)
    report = {
        "n_bits": n_bits,
        "mass": fraction_str(mass),
        "wavevector": [fraction_str(k) for k in wavevector],
        "omega_sq": fraction_str(psi.omega_sq),
        "omega": fraction_str(psi.omega) if psi.omega is not None else None,
        "physical": psi.physical,
        "steps_per_application": steps,
        "trace": trace,
    }
    payload = _csv_bytes(["step", "component", "phase_turns", "first_count"], rows)
    echo = {
        "n_bits": n_bits,
        "mass": str(mass),
        "wavevector": [str(k) for k in wavevector],
        "steps": steps,
        "trace_length": trace_length,
    }
    _emit(args, "dirac", echo, report, payload)
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        rows = run_suite(args.suite, args.seed)
    except KeyError:
        print(f"unknown suite {args.suite!r}; choose from algebra, padic, multiqubit, dirac, numbertheory, all",
              file=sys.stderr)
        return EXIT_USAGE
    width = max(len(r.name) for r in rows)
    failures = 0
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{status}  {r.name.ljust(width)}  {r.detail}")
    print(f"{len(rows) - failures}/{len(rows)} checks passed (seed={args.seed})")
    return EXIT_OK if failures == 0 else EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="invset", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--out", type=str, default="invset_reports", help="output directory")
        p.add_argument("--format", choices=["json", "csv", "both"], default="both")
        p.add_argument("--n-bits", type=int, default=None, help="override config n_bits")

    p_chsh = sub.add_parser("chsh", help="four sub-ensemble correlations, S value, counterfactual matrix")
    common(p_chsh)
    p_chsh.set_defaults(func=cmd_chsh)

    p_mz = sub.add_parser("mz", help="which-way / interference run with gate verdicts")
    common(p_mz)
    p_mz.set_defaults(func=cmd_mz)

    p_pbr = sub.add_parser("pbr", help="closed-form outcome values and the preparation obstruction")
    common(p_pbr)
    p_pbr.set_defaults(func=cmd_pbr)

    p_sample = sub.add_parser("sample", help="construct strings; golden-table comparison with --golden")
    common(p_sample)
    p_sample.add_argument("--golden", action="store_true")
    p_sample.set_defaults(func=cmd_sample)

    p_padic = sub.add_parser("padic", help="p-adic distances, Cantor intervals, probes")
    common(p_padic)
    p_padic.add_argument("--golden", action="store_true")
    p_padic.set_defaults(func=cmd_padic)

    p_dirac = sub.add_parser("dirac", help="granular evolution trace")
    common(p_dirac)
    p_dirac.set_defaults(func=cmd_dirac)

    p_check = sub.add_parser("check", help="run an invariant suite")
    p_check.add_argument("--suite", type=str, default="all")
    p_check.add_argument("--seed", type=int, default=DEFAULT_SEED)
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
    except (OSError, ValueError, KeyError, json.JSONDecodeError, ZeroDivisionError, ResourceBound) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
