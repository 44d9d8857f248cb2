import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: sha256 of each demo's stdout, which is deterministic
STDOUT_SHA256 = {
    "01_roots_of_unity_strings.py": "c48f9ca0aadae7fad7535afa3f7c777015efc12dce29945ed647bc2b6d4e7dd8",
    "02_padic_cantor_geometry.py": "c2107e0b1f2ad0323f553c662da5967739ab8264d514bec7f16bd552a1a45e7f",
    "03_entangled_strings_and_bell.py": "eade67744472e20c6664a87272421f4ead2c50efcb2297eccf810c62e4a987c6",
    "04_granular_dirac_evolution.py": "a1c66da31963c7061ffee550c4924f5dce28032ec003ec22be906b1f1b744aac",
    "05_counterfactual_experiments.py": "f8487ee2f010808cd7e029b7c2f0e89db537148e0367391e9aba7abac33d17c8",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
