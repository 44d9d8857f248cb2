"""Large-N smoke runs of the invset CLI, one row of RUNS each.

Each row runs ``python -m invset.cli`` in a child process under coreutils'
``timeout`` and prints its exit status, wall time and peak RSS.  A row with
a peak-RSS bound fails above it; a row with an error text must exit 1 with
one stderr line of at most 300 bytes holding that text, every other row
must exit 0.  The peak is the child's own, read by ``os.wait4``:
``RUSAGE_CHILDREN`` is the largest peak of every child so far.  The output
digests of these runs are pinned in the Tier-1 suite
(``tests/test_cli.py::TestLargeN``), not here.

Run from the repository root:  PYTHONPATH=src python .github/large_n_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile
import time

HUGE = 10**30
ANGLES = {"A1": "0", "A2": "1/4", "B1": "1/8", "B2": "3/8"}
DIRAC = {"mass": "3", "wavevector": ["4", "0", "0"], "steps": [1, 1, 0, 0], "trace_length": 4096}
# r*u - 1 = 2^21000, so the 2-adic distance of r and 1/u has a 6,322-digit denominator
UNPRINTABLE_PAIR = [str(2**14000 - 2**7000 + 1), f"1/{2**7000 + 1}"]
P_1E9 = 1_000_000_007


def write_pairs_200k(fh) -> None:
    """A padic config of 200,000 pairs at p = P_1E9, written pair by pair:
    held whole, the list would raise this process's RSS, which every child
    started after it reports as its own peak.  a - b = -p**(k % 4) / d with
    d < p, so the distances run from 1/1 to 1/p**3; a is often unreduced."""
    fh.write(f'{{"p": {P_1E9}, "pairs": [')
    for k in range(200_000):
        fh.write(f'{", " if k else ""}["{k}/{k % 997 + 1}", "{k + P_1E9 ** (k % 4)}/{k % 997 + 1}"]')
    fh.write("]}")


# name, invset arguments, config (None: no --config; a function: writes the config file), timeout in s,
# peak-RSS bound in MB (None: none), the text an exit-1 run's one stderr line holds (None: the run exits 0)
RUNS = [
    ("padic-3-12", ["padic"], {"p": 3, "pairs": [], "cantor_level": 12}, 30, 64, None),
    ("padic-1048573-1", ["padic"], {"p": 1048573, "pairs": [], "cantor_level": 1}, 30, 64, None),
    ("padic-pairs-200k", ["padic", "--format", "both"], write_pairs_200k, 30, 250, None),
    ("chsh-1000", ["chsh"], {"n_bits": 1000, "angles": ANGLES}, 10, None, None),
    ("chsh-8192", ["chsh"], {"n_bits": 8192, "angles": ANGLES}, 10, None, None),
    ("dirac-24", ["dirac"], {"n_bits": 24, **DIRAC}, 10, None, None),
    ("dirac-14000-json", ["dirac", "--format", "json"], {"n_bits": 14000, **DIRAC}, 30, 64, None),
    ("dirac-14000-both", ["dirac", "--format", "both"], {"n_bits": 14000, **DIRAC}, 30, 64, None),
    ("sample-24-json", ["sample", "--format", "json"], {"n_bits": 24}, 30, 100, None),
    ("sample-24-csv", ["sample", "--format", "csv"], {"n_bits": 24}, 30, 100, None),
    ("mz-which_way", ["mz"], {"n_bits": 2**26, "mode": "which_way", "phi_turns": "1/4"}, 10, 150, None),
    ("mz-interference", ["mz"], {"n_bits": 2**26, "mode": "interference", "phi_turns": "1/4"}, 10, 150, None),
    ("pbr-1e30", ["pbr"], {"n_bits": HUGE, "alpha_turns": "1/2", "beta_turns": "1/6", "theta_turns": "1/4"},
     10, None, None),
    ("dirac-20000", ["dirac", "--n-bits", "20000"], None, 10, None, "'n_bits'"),
    ("mz-1e30", ["mz"], {"n_bits": HUGE, "phi_turns": "1/4"}, 10, None, "'n_bits'"),
    ("sample-1e30", ["sample"], {"n_bits": HUGE}, 10, None, "explicit limit"),
    ("padic-probe-1e6", ["padic"], {"p": 2, "probe": {"a_digits": [1] * 10**6, "b_off": "5/4"}}, 10, None,
     "'a_digits'"),
    ("padic-probe-digit", ["padic"], {"p": 3, "probe": {"a_digits": [5], "b_off": "1/3"}}, 10, None, "'a_digits'"),
    ("padic-distance", ["padic"], {"p": 2, "pairs": [UNPRINTABLE_PAIR]}, 10, None, "'pairs'"),
    ("padic-b-off-4300", ["padic"], {"p": 2, "probe": {"a_digits": [1, 0, 1], "b_off": "5/" + "3" * 4300}}, 10,
     None, "(4300 digits)"),
    ("chsh-window-negative", ["chsh"], {"n_bits": 8, "angles": ANGLES, "window_turns": "-1"}, 10, None,
     "'window_turns'"),
    ("padic-key-nonascii", ["padic"], {"p": 2, "é" * 400: 1}, 10, None, "unknown config key"),
]


def run(tmp: str, name: str, args: list, config, timeout: int, bound, error) -> str | None:
    """Run one row and print its line; the reason it fails, or None."""
    command = ["timeout", str(timeout), sys.executable, "-m", "invset.cli", *args, "--out", f"{tmp}/{name}"]
    if config is not None:
        with open(f"{tmp}/{name}.json", "w") as fh:
            config(fh) if callable(config) else json.dump(config, fh)
        command += ["--config", f"{tmp}/{name}.json"]
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        elapsed = time.perf_counter() - start
        child.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, so Popen waits no more
        err.seek(0)
        stderr = err.read()
    peak_mb = usage.ru_maxrss / 1024  # KiB on Linux
    print(f"{name}: exit {code}, {elapsed:.2f} s, peak RSS {peak_mb:.0f} MB", flush=True)
    sys.stdout.buffer.write(stderr)
    if code != (1 if error else 0):
        return f"exit {code}, expected {1 if error else 0}"
    if bound is not None and peak_mb > bound:
        return f"peak RSS {peak_mb:.0f} MB exceeds {bound} MB"
    if error and (stderr.count(b"\n") != 1 or len(stderr) > 301 or error.encode() not in stderr):
        return f"expected one stderr line of at most 300 bytes naming {error}"  # 300 bytes and the newline
    return None


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        failures = [(row[0], reason) for row in RUNS if (reason := run(tmp, *row))]
    for name, reason in failures:
        print(f"FAILED {name}: {reason}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
