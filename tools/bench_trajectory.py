"""Print one workload's end-to-end metric across every committed BENCH_*.json.

Usage, from the repository root::

    python3 tools/bench_trajectory.py --workload ito-large-N --metric wall_s

Each file compares a parent and a change.  Three schemas are read, and
no file is rewritten:

- ``end_to_end.<workload>.metrics.<metric>.{parent,change}.median``
  (BENCH_11 to BENCH_18);
- the same under ``end_to_end_set_A`` and ``end_to_end_set_B``, two
  measurement sets of one change (BENCH_19 and BENCH_20);
- ``end_to_end.<workload>.<metric>.{parent_median,change_median}``
  (BENCH_21 on).

One line is printed per measurement set that has the workload and the
metric: the file (and set), the parent and change medians, and their
ratio.
"""

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Point:
    source: str
    parent: float
    change: float

    @property
    def ratio(self) -> float:
        return self.change / self.parent


def _medians(entry: dict) -> tuple[float, float] | None:
    """The parent and change medians of one metric entry, in either shape."""
    if "parent_median" in entry:
        return float(entry["parent_median"]), float(entry["change_median"])
    if isinstance(entry.get("parent"), dict) and "median" in entry["parent"]:
        return float(entry["parent"]["median"]), float(entry["change"]["median"])
    return None


def sets(record: dict) -> dict[str, dict]:
    """The end-to-end measurement sets of one file by name: "" for a
    file's one set, "A" and "B" for a file with two."""
    out = {}
    for key, value in record.items():
        found = re.fullmatch(r"end_to_end(?:_set_(\w+))?", key)
        if found and isinstance(value, dict):
            out[found.group(1) or ""] = value
    return out


def points(record: dict, workload: str, metric: str, source: str) -> list[Point]:
    """One file's points for ``workload``'s ``metric``, one per set."""
    out = []
    for name, workloads in sets(record).items():
        entry = workloads.get(workload)
        if not isinstance(entry, dict):
            continue
        metrics = entry.get("metrics", entry)
        medians = _medians(metrics.get(metric, {}))
        if medians is not None:
            out.append(Point(f"{source} set {name}" if name else source, *medians))
    return out


def _order(path: Path) -> tuple:
    number = re.search(r"(\d+)", path.stem)
    return (int(number.group(1)) if number else -1, path.name)


def trajectory(paths, workload: str, metric: str) -> list[Point]:
    """The points of every file in ``paths``, in file-number order."""
    found = []
    for path in sorted(map(Path, paths), key=_order):
        record = json.loads(path.read_text())
        found += points(record, workload, metric, path.name)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True)
    args = parser.parse_args(argv)
    rows = trajectory(ROOT.glob("BENCH_*.json"), args.workload, args.metric)
    if not rows:
        print(f"no file records {args.metric} for {args.workload}", file=sys.stderr)
        return 1
    width = max(len(p.source) for p in rows)
    print(f"{'file':<{width}}  {'parent':>12}  {'change':>12}  {'ratio':>7}")
    for p in rows:
        print(f"{p.source:<{width}}  {p.parent:>12.6g}  {p.change:>12.6g}  {p.ratio:>7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
