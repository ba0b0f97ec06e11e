"""Recover a log and print what it holds, as one JSON object.

    python3 perfbench/logcheck.py <log-dir>

Prints ``{"recovered": <records>, "damage": <description or null>,
"values": {object: newest value}}``.  durable-long runs this in a child
process so that the recovered history does not count towards the
serving process's peak memory.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.wal import recover  # noqa: E402

from workloads import final_values  # noqa: E402


def main(log_dir: str) -> int:
    result = recover(log_dir)
    print(json.dumps({
        "recovered": result.records_recovered,
        "damage": result.describe() if result.damage else None,
        "values": final_values(result.engine),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
