"""tools/bench_trajectory.py reads every committed BENCH_*.json."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))


def load_reader():
    spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


READER = load_reader()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_every_file_gives_every_workload_s_metrics(path):
    record = json.loads(path.read_text())
    for workload in WORKLOADS:
        for metric in METRICS:
            found = READER.points(record, workload, metric, path.name)
            assert found, (workload, metric)
            for p in found:
                assert math.isfinite(p.ratio) and p.parent > 0 and p.change > 0, (workload, metric)


def test_the_trajectory_runs_in_file_order(capsys):
    assert READER.main(["--workload", "ito-large-N", "--metric", "wall_s"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # one line per measurement set, so a file with two sets has two lines
    files = list(dict.fromkeys(line.split()[0] for line in lines[1:]))
    assert files == [p.name for p in sorted(FILES, key=READER._order)]
    assert READER.main(["--workload", "no-such-workload", "--metric", "wall_s"]) == 1
