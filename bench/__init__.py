"""The repository's one benchmark harness (see ``bench/README.md``).

The harness measures the ``repro`` package that sits beside it in
``src/``; putting that directory on ``sys.path`` here is what lets
``python3 -m bench`` run from a bare checkout with no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
