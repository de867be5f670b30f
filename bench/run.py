#!/usr/bin/env python3
"""catafind benchmark: end-to-end and per-layer numbers for three workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload find-rd --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # every workload

Workloads (see workloads.py for why each was chosen):

    find-rd         catafind find --builtin rd --codim 4, k1 and k2 drawn
                    from the seed in [0.5, 2], box span 1.5*max(1, k1, k2)
    scan-rd         catafind scan --builtin rd over a 5x5 (b, d) grid, on the
                    slices a = g = 0.2 and a = g = -1, k1 = k2 = 1
    verify-primary  catafind find --builtin primary:n=3,r=6,lam=..,tau=..
                    --codim 6 --seeds 64, lam and tau drawn from the seed

Every measured pass runs in a fresh interpreter (bench/worker.py) that
imports catafind from the checkout's src/ with CATAFIND_THREADS=1 and calls
`catafind.cli.main` in process.  Each output is graded by the benchmark's
own oracles (oracles.py), never by code from the package under test.  An op
is one `find` call, or one cell of a scan grid; it fails on a non-zero exit,
an exception or an oracle mismatch, and `failed` counts it.  `correct` says
that every op was graded and that repeated commands wrote byte-identical
output.

Times are reported at a reference CPU speed: each call's time is scaled by
the yardstick readings taken around it (yardstick.py), because the host's
speed drifts.
The raw times are in the metadata.  With --trace 0 the run reports, with
tracing off:

    setup_s      median over fresh processes of interpreter start, import
                 catafind and building the workload's field
    op_p50_s     median latency of one step: a find call, or on scan-rd the
                 scans of both slices (one census of the workload)
    op_tail_s    highest percentile of step latency with at least ten
                 steps beyond it (the median when there are too few steps)
    ops_per_s    ops completed per second: find calls, or scan cells
    peak_rss_mib peak resident memory of the measuring process

With --trace 1 it runs a fixed, seed-determined set of calls twice in
fresh processes, without and with the layer tracer (tracer.py), and
reports the per-layer metrics per op, the tracing overhead and the share
of failed ops.  The last line of standard output is the result JSON; the
line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yardstick
from tracer import LAYER_METRICS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
# Explicit, since the CLI's default is os.cpu_count().  One worker: with two,
# scan-rd's throughput on a shared 2-vCPU host swung by 30% between runs,
# following hand-offs of the interpreter lock that no yardstick tracks.
THREADS = "1"
SETUP_STARTS = 11
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["CATAFIND_THREADS"] = THREADS
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run time limit reached")
    return left


def measure_setup(code: str, deadline: float) -> tuple[float, float]:
    """(median set-up time at reference speed, raw median) over fresh
    processes."""
    raw, readings, first = [], [], yardstick.readings_after(1.0)
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                              capture_output=True, timeout=_remaining(deadline))
        raw.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.decode()[-500:]}")
        readings.append([yardstick.measure()])
    scaled = [t * f for t, f in zip(raw, yardstick.scales(first, readings))]
    return statistics.median(scaled), statistics.median(raw)


def run_worker(tmp: Path, tag: str, groups, seconds, trace: bool,
               deadline: float, repeat_first: bool = False) -> dict:
    out_dir = tmp / tag
    out_dir.mkdir()
    spec = {"groups": groups, "seconds": seconds, "trace": trace,
            "out_dir": str(out_dir), "repeat_first": repeat_first}
    spec_path, result_path = tmp / f"{tag}-spec.json", tmp / f"{tag}-result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), str(spec_path),
         str(result_path)],
        cwd=ROOT, env=_env(), capture_output=True, timeout=_remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.decode()[-2000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(result["catafind_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported catafind from {result['catafind_file']}")
    return result


def reference_scales(res) -> list:
    return yardstick.scales(res["first_yards"], [c["yards"] for c in res["calls"]])


def grade(workload, groups, result, outputs: dict) -> tuple[int, list, bool]:
    """(ops attempted, failure messages, outputs deterministic).  outputs
    maps each command already seen to its output, across passes."""
    attempted, failures = 0, []
    deterministic = True
    for call in result["calls"]:
        g, j = call["op"]
        argv = groups[g][j]
        attempted += workload.ops_per_call
        path = Path(call["out"])
        if call["rc"] != 0 or not path.exists():
            why = call["error"] or f"exit code {call['rc']}"
            failures += [f"{' '.join(argv)}: {why}"] * workload.ops_per_call
            continue
        text = path.read_text(encoding="utf-8")
        # the document echoes its command line, which names the output file
        text = text.replace(call["out"], "OUT")
        key = json.dumps(argv)
        if outputs.setdefault(key, text) != text:
            deterministic = False
        try:
            verdicts = workload.grade(argv, text)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            verdicts = [f"ungradeable output: {type(e).__name__}: {e}"] * workload.ops_per_call
        failures += [v for v in verdicts if v is not None]
    return attempted, failures, deterministic


def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples above it, or the median when there are fewer than 21 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.exists() else ref
    return ref


def run_untraced(workload, groups, seconds, tmp, deadline):
    setup_s, setup_raw_s = measure_setup(workload.setup_code(groups), deadline)
    res = run_worker(tmp, "timed", groups, seconds, False, deadline,
                     repeat_first=True)
    timed = res["calls"][:res["timed_calls"]]
    factors = reference_scales(res)[:len(timed)]

    def step_latencies(scaled: bool) -> list:
        steps: dict = {}
        for c, f in zip(timed, factors):
            steps[c["step"]] = steps.get(c["step"], 0.0) + c["wall"] * (f if scaled else 1.0)
        return list(steps.values())

    steps = step_latencies(scaled=True)
    tail_s, tail_pct = tail(steps)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(steps), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (len(timed) * workload.ops_per_call / sum(steps), "1/s"),
        "peak_rss_mib": (res["peak_rss_kib"] / 1024.0, "MiB"),
    }
    raw = step_latencies(scaled=False)
    info = {"calls_timed": len(timed), "steps_timed": len(steps),
            "tail_percentile": tail_pct, "measured_s": res["wall"],
            "raw_setup_s": setup_raw_s, "raw_op_p50_s": statistics.median(raw),
            "raw_op_tail_s": tail(raw)[0],
            "raw_ops_per_s": len(timed) * workload.ops_per_call / sum(raw),
            "speed_scale_p50": statistics.median(factors),
            "trace_overhead": None}  # measured by --trace 1 runs
    return metrics, [res], info


def run_traced(workload, groups, tmp, deadline):
    fixed = groups[:workload.trace_groups]
    plain = run_worker(tmp, "plain", fixed, None, False, deadline)
    traced = run_worker(tmp, "traced", fixed, None, True, deadline)
    n = plain["timed_calls"]

    def reference_seconds(res):
        return sum(c["wall"] * f
                   for c, f in zip(res["calls"][:n], reference_scales(res)))

    overhead = reference_seconds(traced) / reference_seconds(plain) - 1.0
    scale = statistics.median(reference_scales(traced)[:n])
    layers = traced["layers"]
    metrics = {}
    for name, unit, _ in LAYER_METRICS:
        value = float(layers[name])
        metrics[name] = (value * scale if unit == "s" else value, unit)
    metrics["trace_overhead"] = (overhead, "ratio")
    info = {"trace_overhead": overhead, "ops_traced": layers["ops"],
            "calls_traced": n, "speed_scale_p50": scale}
    return metrics, [plain, traced], info


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[name]()
    groups = workload.groups(random.Random(f"{name}:{seed}"))
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        if trace:
            metrics, results, info = run_traced(workload, groups, tmp, deadline)
        else:
            metrics, results, info = run_untraced(workload, groups, seconds, tmp,
                                                  deadline)
        attempted, failures, deterministic, outputs = 0, [], True, {}
        for res in results:
            a, f, d = grade(workload, groups, res, outputs)
            attempted, failures, deterministic = (attempted + a, failures + f,
                                                  deterministic and d)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if trace:
        metrics["ops_failed_frac"] = (len(failures) / attempted, "ratio")
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": results[0]["python"], "numpy": results[0]["numpy"],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "CATAFIND_THREADS": THREADS, "commit": commit(), "src_lines": src_lines(),
        "ops_attempted": attempted, "ops_failed": len(failures),
        "ops_failed_frac": len(failures) / attempted,
        "failures": sorted(set(failures))[:10], "deterministic": deterministic,
        **info,
    }
    return {
        "meta": meta,
        "result": {
            "correct": deterministic,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows, results = [], {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S + 10)
        if proc.returncode != 0:
            print(f"{name}: failed\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        results[name] = {"meta": meta, "result": result}
        metrics = dict(result["metrics"])
        metrics["ops_failed_frac"] = {"value": meta["ops_failed_frac"], "unit": "ratio"}
        for metric, m in metrics.items():
            rows.append(f"{name:16} {metric:32} {m['value']:>14.6g} {m['unit']}")
        rows.append(f"{name:16} {'ops failed / attempted':32} "
                    f"{result['failed']:>7}/{result['attempted']}")
    print("\n".join(rows))
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1) + "\n",
                                   encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="also write the results as JSON to this file")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "catafind" / "__init__.py").is_file():
        print(f"error: no catafind sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.save:
        Path(args.save).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
