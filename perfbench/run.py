"""Repository benchmark: times one workload and prints its metrics as JSON.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_warm --seed 1 --seconds 30 --trace 0

One closed-loop client issues operations back to back for ``--seconds``;
each operation is checked before the next starts.  The time is cut into
``SETUP_REPEATS`` (a workload attribute) equal slices, and the workload is
set up afresh, in a new directory, before each slice.  Every input recurs
within a run.  The reported latency is the median over inputs of each
input's fastest run, and ``setup_s`` is the fastest set-up: wall-clock
noise on a shared host only ever adds time, and it comes in phases of
seconds that shift a plain median by tens of percent from run to run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` enables span
tracing and reports the per-layer breakdown instead.  The last line of
standard output is one JSON object.  Scratch state lives in ``.perfbench/``
under the repository root and is removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import pathlib
import shutil
import statistics
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"


def measure(cls, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    from repro.obs.trace import get_tracer, reset_tracers
    from workloads import COUNTS

    trace_path = str(WORK / "trace.jsonl") if trace else None
    workload = cls(cls.make_inputs(seed), trace_path)
    tracer = get_tracer(trace_path)
    setup_s: list[float] = []
    latencies: list[float] = []
    fastest: dict = {}  # input key -> fastest latency
    totals = dict.fromkeys(COUNTS, 0)
    attempted = failed = 0
    # One set-up before each equal slice of the measured time: spread over
    # the run, the fastest set-up is not hostage to one slow phase.
    for n in range(cls.SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        workload.setup(WORK / f"setup-{n}")
        setup_s.append(time.perf_counter() - started)
        gc.collect()
        deadline = time.perf_counter() + seconds / cls.SETUP_REPEATS
        first = attempted
        with layers.cache_spans(tracer) if trace else contextlib.nullcontext():
            while attempted == first or time.perf_counter() < deadline:
                attempted += 1
                try:
                    started = time.perf_counter()
                    with tracer.span("bench.op"):
                        key, out = workload.op(attempted - 1)
                    latency = time.perf_counter() - started
                    ok, counts = workload.check(key, out)
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    continue
                latencies.append(latency)
                fastest[key] = min(latency, fastest.get(key, latency))
                failed += not ok
                for name, value in counts.items():
                    totals[name] += value
    try:
        verified = workload.verify()
    except Exception:
        traceback.print_exc()
        verified = False
    workload.close()
    reset_tracers()
    if not latencies:
        raise RuntimeError("every operation failed")

    best_ms = statistics.median(fastest.values()) * 1e3
    print(
        f"{cls.__name__}: {len(latencies)} ops over {len(fastest)} inputs, "
        f"median {statistics.median(latencies) * 1e3:.3f} ms, "
        f"median of fastest {best_ms:.3f} ms, "
        f"setup {[round(s, 3) for s in setup_s]} s, verified={verified}",
        file=sys.stderr,
    )
    if trace:
        # The plain median and the tail, so a slowdown of only some ops shows.
        p90 = (
            statistics.quantiles(latencies, n=10, method="inclusive")[-1]
            if len(latencies) > 1
            else latencies[0]
        )
        metrics = {
            "op_traced_ms": (best_ms, "ms"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": (p90 * 1e3, "ms"),
            "op_samples": (len(latencies), "count"),
        }
        for layer, share in layers.layer_shares(trace_path).items():
            metrics[f"{layer}_frac"] = (share, "frac")
        for name, total in totals.items():
            metrics[name] = (total / len(latencies), "count")
    else:
        metrics = {
            "op_best_p50_ms": (best_ms, "ms"),
            "setup_s": (min(setup_s), "s"),
        }
    return {
        "correct": failed == 0 and verified,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        result = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
