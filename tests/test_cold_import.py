"""What a fresh interpreter loads: ``import invset`` alone loads no submodule;
``import invset, invset.cli`` and the exact commands load neither mpmath nor
the check suites; chsh loads mpmath for its angle substitution and ``check``
loads the suites but, deciding every row with integers and rationals, no
mpmath.  No command loads the csv module: every report.csv is a plain join.
Neither the import nor an exact command loads ``dataclasses`` (whose import
pulls in ``inspect``), ``inspect`` or ``datetime``: the records are plain
slotted classes and the manifest's timestamp comes from ``time``.  argparse
loads only for help and usage errors, ``invset.multiqubit`` only for
``check``, and, in an interpreter started without ``site`` (whose ``.pth``
files may load them first), neither ``typing`` nor ``pathlib`` loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
WATCHED = ("mpmath", "invset.checks", "csv", "dataclasses", "inspect", "datetime", "argparse", "invset.multiqubit")
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}

SCRIPT = r"""
import contextlib, io, json, sys

def loaded():
    return {name: name in sys.modules for name in sys.argv[2].split(",")}

import invset
seen = {"package": sorted(name for name in sys.modules if name.startswith("invset."))}
import invset.cli
seen["import"] = loaded()
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


def _seen_after(tmp_path, *commands, watched=WATCHED, flags=()):
    out = subprocess.run([sys.executable, *flags, "-c", SCRIPT, str(tmp_path), ",".join(watched), *commands],
                         capture_output=True, text=True, env=ENV, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def test_only_the_commands_that_need_them_load_mpmath_and_the_suites(tmp_path):
    (tmp_path / "mz.json").write_text(json.dumps({"n_bits": 8, "mode": "which_way", "phi_turns": "1/4"}))
    (tmp_path / "chsh.json").write_text(
        json.dumps({"n_bits": 12, "angles": {"A1": "0", "A2": "1/4", "B1": "1/8", "B2": "3/8"}}))
    seen = _seen_after(tmp_path, "padic", "sample", "mz", "dirac", "chsh")
    none = dict.fromkeys(WATCHED, False)
    assert seen.pop("package") == []
    assert seen.pop("import") == none
    for command in ("padic", "sample", "mz", "dirac"):
        assert seen[command] == {**none, "exit": 0}, command
    chsh = seen["chsh"]  # what mpmath itself imports is not pinned
    pinned = ("mpmath", "invset.checks", "csv", "argparse", "invset.multiqubit", "exit")
    assert {name: chsh[name] for name in pinned} == {
        "mpmath": True, "invset.checks": False, "csv": False, "argparse": False, "invset.multiqubit": False, "exit": 0}
    # every suite, in an interpreter that chsh has not given mpmath; the suites check multiqubit
    assert _seen_after(tmp_path, "check")["check"] == {
        **none, "invset.checks": True, "invset.multiqubit": True, "exit": 0}


def test_without_site_neither_typing_nor_pathlib_loads(tmp_path):
    watched = ("typing", "pathlib", "argparse", "invset.multiqubit")
    seen = _seen_after(tmp_path, "sample", "padic", watched=watched, flags=["-S"])
    none = dict.fromkeys(watched, False)
    assert seen == {"package": [], "import": none, "sample": {**none, "exit": 0}, "padic": {**none, "exit": 0}}


@pytest.mark.parametrize("argv, code", [(["sample", "--help"], 0), (["sample", "--n-bits", "x"], 1)])
def test_argparse_loads_for_help_and_usage_errors(argv, code):
    script = ("import contextlib, io, sys, invset.cli\n"
              "loaded = 'argparse' in sys.modules\n"
              "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
              "    try:\n"
              "        invset.cli.main(sys.argv[1:])\n"
              "    except SystemExit as exc:\n"
              "        code = exc.code\n"
              "print(loaded, code, 'argparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=ENV, check=True,
                         timeout=120)
    assert out.stdout.split() == ["False", str(code), "True"]


def test_chsh_at_rational_cosines_loads_no_mpmath(tmp_path):
    # every relative angle and bridge is in {0, 1/6, 1/3, 1/2}: each substitution takes the exact route
    config = tmp_path / "chsh.json"
    config.write_text(json.dumps({"n_bits": 12, "angles": {"A1": "0", "A2": "1/3", "B1": "1/6", "B2": "1/2"}}))
    code = ("import contextlib, io, sys, invset.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = invset.cli.main(sys.argv[1:])\n"
            "print(code, 'mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, "chsh", "--config", str(config), "--out", str(tmp_path / "o")],
                         capture_output=True, text=True, env=ENV, check=True, timeout=120)
    assert out.stdout.split() == ["0", "False"]
