"""numpy is the only runtime dependency: importing the CLI loads no module
outside the standard library and numpy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# modules that the interpreter's own startup loaded (a site-packages .pth
# file may import third-party ones) are not the package's doing
PROBE = """
import sys
before = set(sys.modules)
import xaifuse.cli
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "xaifuse"})))
"""


def test_cli_imports_only_the_standard_library_and_numpy():
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
