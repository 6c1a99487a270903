import os
import subprocess
import sys
from pathlib import Path

import kerrmzi


def test_import_loads_no_scipy():
    src = str(Path(kerrmzi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, kerrmzi; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
