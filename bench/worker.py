"""One workload process: build the inputs, run whole rounds, check, report.

Started by ``run.py`` in a fresh interpreter.  It prints one JSON line: the
monotonic clock reading when set-up finished (``ready_at``) and, unless
``--setup-only``, the ops, failures and metrics of the timed phase.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import proxcert  # noqa: E402

if Path(proxcert.__file__).resolve().parent != ROOT / "src" / "proxcert":
    sys.exit(f"proxcert imported from {proxcert.__file__}, not from this checkout")

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUTPUT = HERE / "output"


def measure(workload, seconds, mark):
    """Whole rounds until the ops' own time reaches ``seconds``."""
    times, oks = [], []
    busy = 0.0
    while busy < seconds:
        for secs, ok in workload.run_round(mark):
            times.append(secs)
            oks.append(ok)
            busy += secs
    return np.array(times), np.array(oks, dtype=bool)


def tail_percentile(block_ops):
    """The highest percentile with ten ops of a block beyond it."""
    return 100.0 * (1.0 - 10.0 / block_ops)


def op_tail(times, block_ops):
    """Median over the run's full blocks of consecutive ops of each block's
    tail percentile, so that a burst of interference in one block does not
    set the figure."""
    blocks = len(times) // block_ops or 1
    q = tail_percentile(block_ops)
    per_block = np.array_split(times[: blocks * block_ops], blocks)
    return float(np.median([np.percentile(b, q) for b in per_block]))


def end_to_end(times, block_ops):
    return {
        "ops_per_s": len(times) / float(times.sum()),
        "op_ms": 1e3 * float(np.median(times)),
        "op_tail_ms": 1e3 * op_tail(times, block_ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = OUTPUT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0
        extra = {
            "tail_percentile": tail_percentile(workload.block_ops),
            "block_ops": workload.block_ops,
        }
        if args.trace:
            # untraced half first, then the same workload under the tracer
            plain, plain_ok = measure(workload, args.seconds / 2, lambda: None)
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_ok = measure(workload, args.seconds / 2, tracer.mark_op)
            finally:
                tracer.uninstall()
            metrics = tracer.layer_metrics(len(traced))
            # ops_per_s untraced over traced, minus one
            metrics["trace.overhead_pct"] = 100.0 * (traced.mean() / plain.mean() - 1.0)
            OUTPUT.mkdir(exist_ok=True)
            tracer.save(OUTPUT / f"trace-{args.workload}-seed{args.seed}.npz")
            oks = np.concatenate([plain_ok, traced_ok])
            extra.update(
                traced_ops=len(traced),
                traced_op_mean_ms=1e3 * float(traced.mean()),
                untraced_ops=len(plain),
                untraced_op_mean_ms=1e3 * float(plain.mean()),
                spans=len(tracer.start),
            )
        else:
            times, oks = measure(workload, args.seconds, lambda: None)
            metrics = end_to_end(times, workload.block_ops)
            extra["op_times_s"] = times.tolist()
        correct = bool(workload.finish())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        json.dumps(
            {
                "ready_at": ready_at,
                "correct": correct,
                "attempted": int(len(oks)),
                "failed": int((~oks).sum()),
                "metrics": metrics,
                "extra": extra,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
