"""Benchmark of the proxcert certifier.

    python3 bench/run.py --workload {coverage,certify,closed_loop} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics (``ops_per_s``,
``op_ms``, ``op_tail_ms``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1``
the per-layer metrics of a traced run and the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh interpreters whose start-to-first-op time gives the median setup_s;
# the timed worker is the last of them
SETUP_STARTS = 5
WORKER_TIMEOUT_S = 150


def worker_env():
    env = dict(os.environ)
    # one load generator, one op at a time: a single BLAS thread (nproc >= 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(args, setup_only):
    """Run one worker to its end; returns (its JSON, seconds from spawn to ready)."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker timed out after {WORKER_TIMEOUT_S}s")
    finally:
        if proc.poll() is None:  # timed out, or this process is being stopped
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready_at"] - spawned


def _stop(signum, frame):
    raise SystemExit(f"stopped by signal {signum}")


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in declared["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "proxcert" / "__init__.py").is_file():
        print(f"no proxcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup = []
    if not args.trace:
        setup = [start_worker(args, True)[1] for _ in range(SETUP_STARTS - 1)]
    result, ready = start_worker(args, False)
    setup.append(ready)
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    extra = dict(result.pop("extra"), setup_samples_s=setup)
    out_dir = HERE / "output"
    out_dir.mkdir(exist_ok=True)
    record = dict(
        result, workload=args.workload, seed=args.seed, trace=args.trace, metrics=metrics, extra=extra
    )
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  ops attempted {result['attempted']}  failed {result['failed']}", end="")
    print(f"  correct {result['correct']}")
    for name in units:
        print(f"  {name:36s} {metrics[name]:14.6g} {units[name]}")
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
