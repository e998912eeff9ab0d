"""Rewrite the golden files of tests/test_golden.py from the current source.

    python tests/golden/regenerate.py [case ...]

With no arguments every case is regenerated.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from test_golden import CASES, GOLDEN, collect  # noqa: E402


def main(names) -> int:
    for name in names or sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            payload = collect(name, Path(tmp))
        path = GOLDEN / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
