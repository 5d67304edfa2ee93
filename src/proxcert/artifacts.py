"""Run artifacts: CSV trace/bound exports, binary dumps, atomic writes.

Every artifact is written to a temporary file in the target directory and
renamed into place, so a failed run never leaves a partial file.  CSV floats
use %.17g (lossless round-trip, byte-stable across runs).
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import tempfile

import numpy as np

from .bounds import SERIES, SERIES_NAMES
from .solvers import RunTrace

SCHEMA_VERSION = 1

# the probabilistic series, whose probability columns follow the bound columns
PROB_SERIES = tuple(row.name for row in SERIES if row.probabilistic)

# what trace.npz stores of a run, in its order: every RunTrace field but the status
TRACE_ARRAYS = tuple(f.name for f in dataclasses.fields(RunTrace) if f.name != "status")

BOUNDS_HEADER = ["iter", "f_gap"] + list(SERIES_NAMES) + [f"prob_{name}" for name in PROB_SERIES]


def fmt_column(values):
    """CSV cells of a column of floats: %.17g, NaN as an empty cell."""
    return ["" if v != v else "%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def write_csv(path, header, columns):
    """Header line, then row k: the index k and the k-th cell of each column."""
    rows = enumerate(zip(*columns))
    lines = [",".join(header)] + [",".join((str(k),) + row) for k, row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode())


def atomic_write_bytes(path, data):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_trace_csv(path, trace, f_star=None):
    """Rows k = 0..T; row k carries the state x^k plus the step-k quantities
    (stepsize, errors, and the residual r^{k+1} produced by that step)."""
    t = trace.num_steps
    step_cols = (trace.steps, trace.eps1_norms(), trace.eps2, trace.res_norms())
    columns = [
        fmt_column(trace.fvals),
        [""] * (t + 1) if f_star is None else fmt_column(trace.fvals - f_star),
        *(fmt_column(c) + [""] for c in step_cols),
        [""] + fmt_column(trace.x_change()),
    ]
    header = ["iter", "f", "f_gap", "step", "eps1_norm", "eps2", "res_norm", "x_change"]
    write_csv(path, header, columns)


def write_bounds_csv(path, series_list, f_gap):
    """Fixed-schema bound sweep; absent series emit empty cells."""
    by_name = {s.name: s for s in series_list}
    t = len(f_gap)
    columns = [fmt_column(f_gap)]
    columns += [
        fmt_column(by_name[name].values) if name in by_name else [""] * t
        for name in SERIES_NAMES
    ]
    columns += [
        fmt_column(by_name[name].probability) if name in by_name else [""] * t
        for name in PROB_SERIES
    ]
    write_csv(path, BOUNDS_HEADER, columns)


def write_comparison_csv(path, series_list, f_gap, baseline_name):
    """Figure-style comparison: each bound, the baseline, and the improvement
    columns (baseline minus ours) per proposed bound."""
    by_name = {s.name: s for s in series_list}
    baseline = by_name.get(baseline_name)
    ours = [s for s in series_list if s.name != baseline_name]
    header = (
        ["iter", "f_gap"]
        + [s.name for s in series_list]
        + [f"imprv_{s.name}" for s in ours]
    )
    t = len(f_gap)
    columns = [fmt_column(f_gap)] + [fmt_column(s.values) for s in series_list]
    columns += [
        [""] * t if baseline is None else fmt_column(baseline.values - s.values) for s in ours
    ]
    write_csv(path, header, columns)


def save_iterates_bin(path, trace):
    """Row-major float64 dump of x^0..x^T."""
    atomic_write_bytes(path, np.ascontiguousarray(trace.xs, dtype="<f8").tobytes())


def save_trace_npz(path, trace):
    """The ``TRACE_ARRAYS`` of ``trace`` (a basic run's ``ys`` as a (0, n)
    array) and whether it is ``accelerated``."""
    arrays = {name: getattr(trace, name) for name in TRACE_ARRAYS}
    if trace.ys is None:
        arrays["ys"] = np.zeros((0, trace.n))
    buf = io.BytesIO()
    np.savez(buf, **arrays, accelerated=np.array(trace.ys is not None))
    atomic_write_bytes(path, buf.getvalue())


def load_trace_npz(path):
    with np.load(path) as data:
        arrays = {name: data[name] for name in TRACE_ARRAYS}
        if not data["accelerated"]:
            arrays["ys"] = None
    return RunTrace(**arrays, status="loaded")


def write_summary(path, payload):
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(payload)
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
