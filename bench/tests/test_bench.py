"""Tests of the benchmark itself: metric names, span arithmetic, patching
and a tiny-size smoke run of every workload.

Run with ``python -m pytest -q bench/tests`` from the repository root.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from condflow import chainrule, cli, measures, mfc, particle, paths, registry  # noqa: E402

# Per-experiment overrides that shrink n, N and the repetition counts.
TINY = {
    "ito-second-moment": {"n": 8, "N": 8, "M": 2},
    "ito-telescoping": {"n": 8, "N": 8, "M": 2},
    "wentzell-ablation": {"n": 8, "N": 8, "M": 2},
    "wentzell-independent": {"n": 8, "N": 8, "M": 2},
    "brownian-corollary": {"n": 8, "N": 8, "M": 2},
    "factor-linear": {"n": 8, "N": 8, "M": 2},
    "lq-common-noise": {"coefficients": {"mc_particles": 16, "mc_cells": 8, "mc_paths": 2}},
    "dpp-lq": {"n": 8, "N": 16, "M": 2},
    "lemma-qv-bm": {"coefficients": {"cell_counts": [16, 64], "num_seeds": 4}},
    "modulus-lq": {"n": 16, "N": 8, "coefficients": {"repeats": 2, "num_pairs": 3}},
    "deriv-battery": {},
}


def tiny(cfg: dict) -> dict:
    out = copy.deepcopy(cfg)
    for key, value in TINY[cfg["experiment"]].items():
        if key == "coefficients":
            out.setdefault("coefficients", {}).update(value)
        else:
            out[key] = value
    return out


def _registry_experiments() -> list[str]:
    names = []
    for name in registry.list_registry():
        try:
            registry.get_experiment(name)
        except ValueError:
            continue
        names.append(name)
    return names


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]


def test_every_registry_experiment_runs_in_exactly_one_workload():
    used = [c["experiment"] for cfgs in workloads.WORKLOADS.values() for c in cfgs]
    assert sorted(set(used)) == sorted(_registry_experiments())
    for name in set(used):
        owners = {w for w, cfgs in workloads.WORKLOADS.items() if any(c["experiment"] == name for c in cfgs)}
        assert len(owners) == 1, (name, owners)


def test_configs_carry_the_seed_and_do_not_share_state():
    a = workloads.configs("ito-large-N", 5)
    a[0]["M"] = 999
    b = workloads.configs("ito-large-N", 5)
    assert all(c["seed"] == 5 for c in b)
    assert b[0]["M"] == workloads.WORKLOADS["ito-large-N"][0]["M"] != 999
    with pytest.raises(ValueError):
        workloads.configs("qv-refine", -1)


def test_self_times_on_nested_spans():
    rows = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 4.0, 0],  # overlaps a: the union [1, 4] is covered once
        ["c", 5.0, 6.0, 0],
        ["d", 5.5, 5.75, 3],  # grandchild: only c loses it
        ["e", 9.0, 12.0, 0],  # runs past the root's end: clipped to [9, 10]
        ["f", 0.5, 0.5, 0],  # empty
        ["g", 1.5, 2.5, 0],  # inside a: covers nothing new
    ]
    got = spans.self_times(rows)
    assert got == pytest.approx([10.0 - 3.0 - 1.0 - 1.0, 2.0, 2.0, 0.75, 0.25, 3.0, 0.0, 1.0])


def test_summary_counts_and_excludes_same_name_nesting():
    tracer = spans.Tracer()
    tracer.spans[:] = [
        ["cli.run", 0.0, 4.0, -1, 0],
        ["measures.empirical", 1.0, 2.0, 0, 0],
        ["measures.empirical", 1.2, 1.5, 1, 0],
    ]
    s = tracer.summary()["spans"]
    assert s["cli.run"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert s["measures.empirical"]["calls"] == 2
    assert s["measures.empirical"]["s"] == pytest.approx(1.0)
    assert s["measures.empirical"]["self_s"] == pytest.approx(1.0)
    assert s["mfc.dpp_check"] == {"calls": 0, "s": 0.0, "self_s": 0.0}


def _condflow_refs():
    """Every (holder, attribute, object) that refers to a tracer target."""
    originals = {}
    for _, module, attr in spans.TARGETS:
        owner, leaf = spans._resolve(module, attr)
        originals[id(vars(owner)[leaf])] = vars(owner)[leaf]
    holders = [m for n, m in sys.modules.items() if n == "condflow" or n.startswith("condflow.")]
    holders.append(paths.RngStream)
    return [(h, k, v) for h in holders for k, v in vars(h).items() if id(v) in originals]


def test_tracer_patches_every_reference_and_restores_identity():
    before = _condflow_refs()
    empirical, simulate, generator = measures.empirical, particle.simulate_ensemble, paths.RngStream.generator
    with spans.Tracer():
        for holder, key, original in before:
            assert vars(holder)[key] is not original, (holder, key)
        assert particle.empirical is measures.empirical
        assert particle.empirical.__wrapped__ is empirical
        assert registry.simulate_ensemble is chainrule.simulate_ensemble is mfc.simulate_ensemble
        assert chainrule.simulate_ensemble.__wrapped__ is simulate
        assert vars(paths.RngStream)["generator"].__wrapped__ is generator
    for holder, key, original in before:
        assert vars(holder)[key] is original, (holder, key)
    assert len(before) > len(spans.TARGETS)  # names re-bound in other modules were found


def test_traced_payloads_equal_untraced_and_counts_are_exact():
    cfg = tiny({"experiment": "factor-linear", "seed": 3})
    _, plain = cli.run(cfg, write=False)
    tracer = spans.Tracer()
    with tracer:
        _, traced = cli.run(cfg, write=False)
    assert traced == plain
    summary = tracer.summary()
    assert summary["spans"]["cli.run"]["calls"] == 1
    assert summary["spans"]["chainrule.verify"]["calls"] == 1
    assert summary["counters"]["chainrule.repetitions"] == cfg["M"]
    # M ensembles of n x N particle steps, each with one factor path of n steps
    n, big_n, m = cfg["n"], cfg["N"], cfg["M"]
    assert summary["counters"]["particle.particle_steps"] == m * (n * big_n + n)
    assert summary["spans"]["measures.empirical"]["calls"] >= m * n
    assert summary["counters"]["output.payload_bytes"] == sum(len(t.encode()) for t in plain.values())


def test_check_outputs_flags_hash_mismatch_and_counts_verdicts():
    traced = {"codes": [0, 0], "hashes": [{"a": "1"}, {"b": "2"}]}
    same = {"codes": [0, 1], "hashes": [{"a": "1"}, {"b": "2"}]}
    differs = {"codes": [0, 0], "hashes": [{"a": "1"}, {"b": "3"}]}
    ok, attempted, failed, _ = run.check_outputs(2, traced, [same])
    assert (ok, attempted, failed) == (True, 4, 1)
    ok, attempted, failed, problems = run.check_outputs(2, traced, [same, differs, {"error": "boom"}])
    assert (ok, attempted, failed) == (False, 8, 4)
    assert any("sha256" in p for p in problems)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_smoke_at_tiny_size(workload):
    cfgs = [tiny(c) for c in workloads.configs(workload, 1)]
    result = run.measure(cfgs, seconds=0.0, min_runs=1)
    assert result["correct"], result["problems"]
    assert result["attempted"] == 2 * len(cfgs)
    assert set(run.metrics_for(result, 0)) == set(run.END_TO_END)
    assert set(run.metrics_for(result, 1)) == set(run.PER_LAYER)
    assert result["end_to_end"]["wall_s"] > 0 and result["end_to_end"]["setup_s"] > 0
    assert result["per_layer"]["particle.particle_steps"] > 0
    assert run.working_set_line(result).startswith("working set (computed")


def test_exits_2_without_source_tree(tmp_path):
    import shutil
    import subprocess

    copy_dir = tmp_path / "bench"
    shutil.copytree(BENCH, copy_dir, ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qv-refine", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
