import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_does_not_load_numpy():
    # numpy is a test dependency only; the runtime package must not need it.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import fisheq, sys; assert 'numpy' not in sys.modules"],
        env=env,
        check=True,
    )
