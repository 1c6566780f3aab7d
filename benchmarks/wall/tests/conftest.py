"""Self-tests of the wall-clock harness (not part of the tier-1 suite).

    python -m pytest benchmarks/wall/tests -q
"""

import pathlib
import sys

WALL = pathlib.Path(__file__).resolve().parent.parent
for path in (WALL.parent.parent / "src", WALL):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
