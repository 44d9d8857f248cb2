"""What a fresh interpreter loads: ``import invset, invset.cli`` and the exact
commands load neither mpmath nor the check suites; chsh loads mpmath for its
angle substitution and ``check`` loads the suites but, deciding every row with
integers and rationals, no mpmath.  No command loads the csv module: every
report.csv is a plain join.  Neither the import nor an exact command loads
``dataclasses`` (whose import pulls in ``inspect``), ``inspect`` or
``datetime``: the records are plain slotted classes and the manifest's
timestamp comes from ``time``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WATCHED = ("mpmath", "invset.checks", "csv", "dataclasses", "inspect", "datetime")

SCRIPT = r"""
import contextlib, io, json, sys

def loaded():
    return {name: name in sys.modules for name in sys.argv[2].split(",")}

import invset, invset.cli
seen = {"import": loaded()}
tmp = sys.argv[1]
for command in sys.argv[3:]:  # in turn, in this one interpreter
    if command == "check":
        argv = ["check", "--suite", "all"]
    else:
        argv = [command, "--out", f"{tmp}/{command}"]
        if command in ("mz", "chsh"):
            argv += ["--config", f"{tmp}/{command}.json"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = invset.cli.main(argv)
    seen[command] = {**loaded(), "exit": code}
print(json.dumps(seen))
"""


def test_only_the_commands_that_need_them_load_mpmath_and_the_suites(tmp_path):
    (tmp_path / "mz.json").write_text(json.dumps({"n_bits": 8, "mode": "which_way", "phi_turns": "1/4"}))
    (tmp_path / "chsh.json").write_text(
        json.dumps({"n_bits": 12, "angles": {"A1": "0", "A2": "1/4", "B1": "1/8", "B2": "3/8"}}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}

    def seen_after(*commands):
        out = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path), ",".join(WATCHED), *commands],
                             capture_output=True, text=True, env=env, check=True, timeout=120)
        return json.loads(out.stdout.splitlines()[-1])

    seen = seen_after("padic", "sample", "mz", "dirac", "chsh")
    none = dict.fromkeys(WATCHED, False)
    assert seen.pop("import") == none
    for command in ("padic", "sample", "mz", "dirac"):
        assert seen[command] == {**none, "exit": 0}, command
    chsh = seen["chsh"]  # what mpmath itself imports is not pinned
    assert {name: chsh[name] for name in ("mpmath", "invset.checks", "csv", "exit")} == {
        "mpmath": True, "invset.checks": False, "csv": False, "exit": 0}
    # every suite, in an interpreter that chsh has not given mpmath
    assert seen_after("check")["check"] == {**none, "invset.checks": True, "exit": 0}


def test_chsh_at_rational_cosines_loads_no_mpmath(tmp_path):
    # every relative angle and bridge is in {0, 1/6, 1/3, 1/2}: each substitution takes the exact route
    config = tmp_path / "chsh.json"
    config.write_text(json.dumps({"n_bits": 12, "angles": {"A1": "0", "A2": "1/3", "B1": "1/6", "B2": "1/2"}}))
    code = ("import contextlib, io, sys, invset.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = invset.cli.main(sys.argv[1:])\n"
            "print(code, 'mpmath' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, "chsh", "--config", str(config), "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.split() == ["0", "False"]
