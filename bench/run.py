"""Benchmark for condflow: time to a verdict, CPU, memory and per-layer traces.

Usage, from the repository root::

    python3 bench/run.py --workload ito-large-N --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24 --trace 1

One client in a closed loop: each workload run is a fresh child process
(``bench/child.py``) that runs the workload's configs through
``condflow.cli.run(config, write=False)``, and the next child starts only
after the previous one has ended.  The first child of a measurement is
traced; it gives the per-layer numbers and the reference payload hashes.
Untraced children follow for ``--seconds`` (at least ``MIN_RUNS`` of them)
and give the end-to-end medians.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The exit code
is 1 when an output check fails and 2 when the source tree is missing.
README.md explains the workloads and metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from envinfo import parse_size_mib
from workloads import WORKLOADS, configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

MIN_RUNS = 3
# every child must end by then, so that one invocation stays under 180 s
DEADLINE_S = 165.0
MIB = 1024.0 * 1024.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "particle_steps_per_s": "1/s",
}

PER_LAYER = {
    "particle.simulate_ensemble.calls": "count",
    "particle.simulate_ensemble.self_s": "s",
    "particle.particle_steps": "count",
    "particle.ensemble_bytes": "bytes",
    "particle.measure_flow_modulus.s": "s",
    "measures.empirical.calls": "count",
    "measures.empirical.s": "s",
    "measures.fd_checks.s": "s",
    "chainrule.verify.calls": "count",
    "chainrule.verify.self_s": "s",
    "chainrule.repetitions": "count",
    "mfc.solve_lq_value.calls": "count",
    "mfc.solve_lq_value.s": "s",
    "mfc.hjb_residual.s": "s",
    "mfc.nonparametric_gap.s": "s",
    "mfc.dpp_check.self_s": "s",
    "mfc.constant_control_gap.s": "s",
    "quadvar.weighted_qv_sum.calls": "count",
    "quadvar.weighted_qv_sum.s": "s",
    "quadvar.lemma_study.self_s": "s",
    "paths.rng_generator.calls": "count",
    "paths.rng_generator.s": "s",
    "paths.simulate_brownian.calls": "count",
    "paths.simulate_brownian.s": "s",
    "paths.simulate_factor.s": "s",
    "cli.run.self_s": "s",
    "output.serialize.s": "s",
    "output.payload_bytes": "bytes",
    "trace.overhead_s": "s",
}


def source_present() -> bool:
    return (ROOT / "src" / "condflow" / "__init__.py").is_file()


def launch(cfgs: list[dict], trace: bool, spans: Path | None, timeout: float) -> dict:
    """Run one child to completion; returns its summary or ``{"error": ...}``."""
    request = json.dumps({"configs": cfgs, "trace": trace, "spans": str(spans) if spans else None})
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=request,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child exceeded {timeout:.0f} s"}
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"child exit {proc.returncode}: {' | '.join(tail)}"}
    summary = json.loads(lines[-1])
    summary["setup_s"] = summary.pop("setup_end") - start
    summary["elapsed_s"] = elapsed
    return summary


def check_outputs(num_configs: int, traced: dict, untraced: list[dict]) -> tuple[bool, int, int, list[str]]:
    """Output checks: (correct, attempted, failed, problems).

    Every experiment run counts as attempted.  A run fails when it exits
    nonzero (a tolerance verdict) or when a payload hash differs from the
    traced run of the same seed, which comes first.  ``correct`` is false
    on a hash mismatch or a child that did not finish; a failed verdict
    alone is reported in ``failed`` only.
    """
    problems = []
    reference = traced.get("hashes")
    attempted = failed = 0
    correct = reference is not None
    if reference is None:
        problems.append(f"traced run: {traced['error']}")
        attempted += num_configs
        failed += num_configs
    else:
        for i, code in enumerate(traced["codes"]):
            attempted += 1
            if code != 0:
                failed += 1
                problems.append(f"traced run, config {i}: exit {code}")
    for k, child in enumerate(untraced, start=1):
        if "error" in child:
            correct = False
            problems.append(f"run {k}: {child['error']}")
            attempted += num_configs
            failed += num_configs
            continue
        for i, (code, hashes) in enumerate(zip(child["codes"], child["hashes"])):
            attempted += 1
            mismatch = reference is not None and hashes != reference[i]
            if mismatch:
                correct = False
                problems.append(f"run {k}, config {i}: payload sha256 differs from the traced run")
            elif code != 0:
                problems.append(f"run {k}, config {i}: exit {code}")
            failed += int(mismatch or code != 0)
    return correct, attempted, failed, problems


def layer_value(name: str, trace: dict, overhead_s: float):
    if name == "trace.overhead_s":
        return overhead_s
    if name in trace["counters"]:
        return trace["counters"][name]
    span, _, stat = name.rpartition(".")
    return trace["spans"][span][stat]


def measure(cfgs: list[dict], seconds: float, spans: Path | None = None, min_runs: int = MIN_RUNS) -> dict:
    """One traced child, then untraced children for ``seconds``."""
    deadline = time.monotonic() + DEADLINE_S
    traced = launch(cfgs, True, spans, deadline - time.monotonic())
    untraced: list[dict] = []
    start = time.monotonic()
    while time.monotonic() < deadline:
        done = [c for c in untraced if "error" not in c]
        if len(untraced) >= min_runs:
            typical = statistics.median(c["elapsed_s"] for c in done) if done else 0.0
            if time.monotonic() - start + typical > seconds:
                break
        child = launch(cfgs, False, None, deadline - time.monotonic())
        untraced.append(child)
        if "error" in child:
            break
    correct, attempted, failed, problems = check_outputs(len(cfgs), traced, untraced)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": [{k: c[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")} for c in untraced if "error" not in c],
        "traced": traced,
    }
    samples = result["samples"]
    if samples and "error" not in traced:
        med = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
        steps = traced["trace"]["counters"]["particle.particle_steps"]
        med["particle_steps_per_s"] = steps / med["wall_s"]
        result["end_to_end"] = med
        overhead = traced["wall_s"] - med["wall_s"]
        result["per_layer"] = {name: layer_value(name, traced["trace"], overhead) for name in PER_LAYER}
    return result


def working_set_line(result: dict) -> str:
    counters = result["traced"]["trace"]["counters"]
    ens = counters["particle.ensemble_bytes"] / MIB
    arr = counters["particle.largest_array_bytes"] / MIB
    llc_text = result["traced"]["environment"]["l3"]
    llc = parse_size_mib(llc_text)
    line = (
        f"working set (computed from array nbytes, not measured): largest ensemble {ens:.1f} MiB, "
        f"largest single array {arr:.1f} MiB; LLC {llc_text or 'unknown'}"
    )
    if llc:
        where = (
            "below 4x LLC, so not a DRAM-bandwidth measurement"
            if ens < 4 * llc
            else "above 4x LLC, so the Euler sweep streams from DRAM"
        )
        line += f"; ensemble = {ens / llc:.2f}x LLC, {where}"
    return line


def report(workload: str, seed: int, result: dict) -> None:
    samples = result["samples"]
    print(f"== {workload}  seed {seed}: 1 traced + {len(samples)} untraced runs, "
          "closed loop, one client, one fresh child per run")
    env = result["traced"].get("environment")
    if env:
        print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if "end_to_end" in result:
        print(f"{'metric':<24}{'median':>16}  {'unit':<6}{'n':>3}{'min':>14}{'max':>14}")
        for name, unit in END_TO_END.items():
            value = result["end_to_end"][name]
            if name in samples[0]:
                vals = [s[name] for s in samples]
                lo, hi = f"{min(vals):14.6g}", f"{max(vals):14.6g}"
            else:
                lo = hi = f"{'':>14}"
            print(f"{name:<24}{value:16.6g}  {unit:<6}{len(samples):>3}{lo}{hi}")
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"{'fail_rate':<24}{rate:16.6g}  {'share':<6} ({result['failed']} of {result['attempted']} experiment runs)")
    for problem in result["problems"]:
        print(f"  check: {problem}")
    if "per_layer" in result:
        print(working_set_line(result))
        print(f"per-layer, traced run (traced wall {result['traced']['wall_s']:.4f} s):")
        for name, unit in PER_LAYER.items():
            value = result["per_layer"][name]
            shown = f"{value:16.6g}" if isinstance(value, float) else f"{value:16d}"
            print(f"  {name:<36}{shown}  {unit}")


def metrics_for(result: dict, trace: int) -> dict:
    values = result.get("per_layer" if trace else "end_to_end", {})
    units = PER_LAYER if trace else END_TO_END
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cfgs = configs(workload, seed)
    result = measure(cfgs, seconds, spans=OUT / f"spans-{workload}.json")
    report(workload, seed, result)
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=workload, seed=seed, seconds=seconds, configs=cfgs)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source_present():
        print(f"error: no condflow source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if args.workload == "all":
        line["metrics"] = {name: metrics_for(r, args.trace) for name, r in results.items()}
    else:
        line["metrics"] = metrics_for(results[args.workload], args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
