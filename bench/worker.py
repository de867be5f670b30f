"""Run catafind CLI calls in this fresh interpreter and time each one.

Usage: python3 bench/worker.py SPEC.json RESULT.json

run.py starts one worker per measured pass, with PYTHONPATH pointing at
the checkout's src/, so that every pass begins with an empty expression
intern table.  The spec holds groups of CLI argument lists; the worker runs
group after group (cycling through the list) until `seconds` would be
exceeded, or runs each group once when `seconds` is null.  Each call is
`catafind.cli.main(argv + ["--out", path])`, in process, and is followed by
yardstick readings (yardstick.py) that give the host's speed around it.
With `trace` set, the layer tracer is installed first and its summary is
written out too.
"""

import json
import resource
import sys
import time


def _run_call(cli, argv, out_path):
    t0 = time.perf_counter()
    try:
        rc, error = cli.main(list(argv) + ["--out", out_path]), None
    except Exception as e:  # an op that raises is a failed op, not a crash
        rc, error = None, f"{type(e).__name__}: {e}"
    return {"wall": time.perf_counter() - t0, "rc": rc, "error": error,
            "out": out_path}


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import numpy
    import yardstick
    from catafind import cli, expr

    tracer = None
    if spec["trace"]:
        import tracer as layer_tracer
        tracer = layer_tracer.Tracer()
        layer_tracer.install(tracer)

    groups, seconds = spec["groups"], spec["seconds"]
    calls = []
    first_yards = yardstick.readings_after(1.0)

    def run_call(g, j, step):
        call = _run_call(cli, groups[g][j], f"{spec['out_dir']}/call-{len(calls)}")
        call["yards"] = yardstick.readings_after(call["wall"])
        call["op"] = [g, j]
        call["step"] = step
        calls.append(call)

    def run_group(k):
        for j in range(len(groups[k % len(groups)])):
            run_call(k % len(groups), j, k)

    start = time.perf_counter()
    k = 0
    while True:
        if seconds is None:
            if k == len(groups):
                break
        elif k and (time.perf_counter() - start) * (k + 1) / k > seconds:
            break  # the next group would end past the deadline
        run_group(k)
        k += 1
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        tracer.restore()
        layers = layer_tracer.summarize(
            tracer, len(getattr(expr, "_intern_table", ())))

    timed = len(calls)
    if spec["repeat_first"] and k <= len(groups):
        run_call(0, 0, k)  # untimed: its output must equal the first call's

    result = {
        "calls": calls, "timed_calls": timed, "wall": wall,
        "first_yards": first_yards,
        "peak_rss_kib": peak_kib, "layers": layers,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "catafind_file": cli.__file__,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
