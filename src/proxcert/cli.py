"""Command-line entry point.

Subcommands: solve, mpc, lasso, bounds, verify, quantize.  Options resolve
with precedence CLI > config file > defaults; the resolved configuration is
echoed into the output directory next to the artifacts.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 bound
violation under --strict, 5 diagnostic failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import math
import os
import sys
import time
import zipfile

import numpy as np

from . import artifacts
from .bounds import (
    BoundParams,
    ObservedGaps,
    check_bound_validity,
    evaluate_all_series,
    fejer_monotone,
)
from .errors import FixedPointFormat, GradientErrorSpec, ProxErrorSpec, truncated_gaussian_mean
from .problems import OracleError, problem_from_json
from .solvers import SolverConfig, reference_solution, run as run_solver
from .experiments import (
    azuma_coverage,
    gen_lasso,
    hoeffding_coverage,
    martingale_diagnostic,
    mpc_closed_loop,
    mpc_to_lasso,
    spacecraft_mpc,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VIOLATION = 4
EXIT_DIAGNOSTIC = 5


class ConfigError(ValueError):
    pass


# what a run command or verify writes into its out directory besides the config
# echo; a rerun removes them first, so a failed one leaves no earlier run's files
RUN_ARTIFACTS = ("trace.csv", "bounds.csv", "comparison.csv", "iterates.bin", "trace.npz",
                 "closed_loop.csv", "summary.json", "report.json", "report.txt")
FAILED_STATUSES = ("non-finite-iterate", "oracle-error")


# every section and key a config may set, with its default
DEFAULTS = {
    "run": {
        "seed": "0",
        "out": "out",
        "iters": "",
        "strict": "false",
        "command": "",
    },
    "problem": {"file": ""},
    "lasso": {"n": "100", "m": "500", "sparsity": "", "noise": "0.01", "lam": "", "seed": "0"},
    "mpc": {"n_p": "", "lam": "16.79", "x0": "", "closed_loop_steps": ""},
    "solver": {"variant": "basic"},
    "errors": {
        "grad_model": "absolute",
        "delta": "0",
        "format": "",
        "eps0": "0",
        "solver_tol": "",
    },
    "bounds": {"gamma": "3.0"},
    "verify": {"trials": "200"},
}


def load_config(path, strict=True):
    """Read a UTF-8 INI config file.  Unknown sections or keys are errors, or,
    with ``strict=False`` (the echo of a stored run), dropped."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for section in parser.sections():
        if section not in DEFAULTS and strict:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key in DEFAULTS.get(section, ()):
                out.setdefault(section, {})[key] = value
            elif strict:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return out


def resolve_config(file_cfg, cli_overrides):
    """Merge defaults < file < CLI into a nested dict of strings."""
    cfg = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
    for sec, vals in (file_cfg or {}).items():
        cfg[sec].update(vals)
    for (sec, key), value in (cli_overrides or {}).items():
        if value is None:
            continue
        if key not in DEFAULTS[sec]:
            raise ConfigError(f"unknown key {key!r} in section [{sec}]")
        cfg[sec][key] = str(value)
    return cfg


def echo_config(cfg, path):
    parser = configparser.ConfigParser()
    for sec in sorted(cfg):
        parser[sec] = {k: cfg[sec][k] for k in sorted(cfg[sec])}
    import io as _io

    buf = _io.StringIO()
    parser.write(buf)
    artifacts.atomic_write_text(path, buf.getvalue())


def _get(cfg, sec, key, kind=float, default=None):
    """``[sec] key`` as a finite ``kind``.  An empty value takes the one in
    ``DEFAULTS``, and ``default`` when that is empty too."""
    raw = cfg[sec][key].strip() or DEFAULTS[sec][key]
    if raw == "":
        return default
    try:
        value = kind(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"[{sec}] {key} must be {what}, got {raw!r}")
    return value


def _get_bool(cfg, sec, key):
    raw = cfg[sec][key].strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off", ""):
        return False
    raise ConfigError(f"[{sec}] {key} must be a boolean, got {raw!r}")


def _get_floats(cfg, sec, key):
    """Comma-separated finite numbers; empty items are skipped."""
    raw = cfg[sec][key]
    try:
        values = [float(t) for t in raw.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key} must be a list of numbers, got {raw.strip()!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"[{sec}] {key} must be a list of finite numbers, got {raw.strip()!r}")
    return values


def _get_seed(cfg):
    seed = _get(cfg, "run", "seed", int)
    if seed < 0:
        raise ConfigError(f"[run] seed must be a nonnegative integer, got {seed}")
    return seed


def _build_error_specs(cfg):
    """``(grad_spec, prox_spec)`` of ``[errors]``; values the specs reject
    are config errors.  ``format``, when set, is the gradient kind, and it
    excludes ``delta > 0`` and ``grad_model = relative``.  The prox kind
    follows from the tolerances: the inner solver when ``solver_tol`` is set
    (its eps0), else the target gap when ``eps0 > 0``, else exact."""
    errors = cfg["errors"]
    delta = _get(cfg, "errors", "delta")
    fmt_text = errors["format"].strip()
    eps0 = _get(cfg, "errors", "eps0")
    solver_tol = _get(cfg, "errors", "solver_tol")
    prox_mode = "target_gap" if eps0 > 0 else "exact"
    if solver_tol is not None:
        prox_mode, eps0 = "inner_solver", solver_tol
    try:
        noise = GradientErrorSpec(model=errors["grad_model"].strip(), mode="random", delta=delta)
        fmt = FixedPointFormat.parse(fmt_text) if fmt_text else None
        prox_spec = ProxErrorSpec(mode=prox_mode, eps0=eps0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if fmt is None:
        return (noise if delta > 0 else None), prox_spec
    if delta > 0 or noise.model == "relative":
        key = "delta > 0" if delta > 0 else "grad_model = relative"
        raise ConfigError(f"[errors] format and {key} cannot both be set: "
                          "a quantized run measures its own delta")
    return fmt, prox_spec


def _build_solver_config(cfg, default_iters, grad_spec, prox_spec):
    """The run's ``SolverConfig``; the solver takes the largest admissible step."""
    try:
        return SolverConfig(
            variant=cfg["solver"]["variant"].strip(),
            max_iters=_get(cfg, "run", "iters", int, default_iters),
            grad_error=grad_spec,
            prox_error=prox_spec,
            seed=_get_seed(cfg),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _bound_overrides(cfg, grad_spec, prox_spec):
    """The ``BoundParams.from_trace`` overrides of a run: the noise spec's
    ``bound`` (``certify`` measures a quantized run's delta), the prox spec's
    eps0, the target-gap mean of eps2 (no other prox kind has a stationary
    series) and ``[bounds] gamma``, which a run command checks before it solves."""
    gamma = _get(cfg, "bounds", "gamma")
    if not gamma > 0:
        raise ConfigError(f"[bounds] gamma must be positive, got {gamma}")
    gap = prox_spec.mode == "target_gap"
    return dict(delta=grad_spec.bound if isinstance(grad_spec, GradientErrorSpec) else 0.0,
                eps0=prox_spec.eps0, gamma=gamma,
                eps2_mean=float(truncated_gaussian_mean(0.0, prox_spec.eps0)) if gap else None)


def problem_from_cfg(cfg):
    """The problem a run command solves.

    ``mpc`` condenses the spacecraft regulator of ``[mpc]`` (and records the
    resolved horizons in ``cfg``, so the config echo shows them); its spec is
    ``problem.meta["spec"]``.  ``solve`` reads ``[problem] file`` when set,
    otherwise it generates the instance from ``[lasso]`` as ``lasso`` always
    does.  ``lasso`` and ``mpc`` reject ``[problem] file``.
    """
    command = cfg["run"]["command"].strip()
    pfile = cfg["problem"]["file"].strip()
    if pfile and command in ("lasso", "mpc"):
        raise ConfigError(f"{command} builds its own problem; [problem] file is only for solve")
    if command == "mpc":
        # reference setup: basic runs at horizon 10, the time-critical
        # accelerated variant at horizon 2
        accelerated = cfg["solver"]["variant"].strip() == "accelerated"
        n_p = _get(cfg, "mpc", "n_p", int, 2 if accelerated else 10)
        cfg["mpc"]["n_p"] = str(n_p)
        lam = _get(cfg, "mpc", "lam")
        x0 = _get_floats(cfg, "mpc", "x0") or 0.5 * np.ones(7)
        build = lambda: mpc_to_lasso(spacecraft_mpc(n_p=n_p, lam=lam, x0=x0))
        source = "[mpc]"
    elif pfile:
        try:
            with open(pfile, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read problem file {pfile}: {exc.strerror}") from exc
        build = lambda: problem_from_json(data)
        source = f"problem file {pfile}"
    else:
        kwargs = dict(
            n=_get(cfg, "lasso", "n", int),
            m=_get(cfg, "lasso", "m", int),
            sparsity=_get(cfg, "lasso", "sparsity", int),
            noise=_get(cfg, "lasso", "noise"),
            lam=_get(cfg, "lasso", "lam"),
            seed=_get(cfg, "lasso", "seed", int),
        )
        build = lambda: gen_lasso(**kwargs)
        source = "[lasso]"
    try:
        return build()
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid {source}: {exc}") from exc


def problem_digest(problem, *extra):
    """SHA-256 over M, v and the float64s (lam, scale, *extra) of ``problem``.

    The problem's data only, not the L computed from M, whose last bits may
    move with the BLAS thread count; earlier versions wrote ``extra = (L,)``."""
    quad = problem.smooth
    digest = hashlib.sha256(np.ascontiguousarray(quad.mat))
    digest.update(np.ascontiguousarray(quad.vec))
    digest.update(np.array([problem.reg.lam, 0.5 if quad.half else 1.0, *extra]))
    return digest.hexdigest()


# a diverged run's bounds and gaps overflow; that is reported, not warned about
@np.errstate(over="ignore", invalid="ignore")
def certify(cfg, problem, trace, grad_spec, overrides, strict, extra=None):
    """Check a trace against every bound series and write the run artifacts.

    ``grad_spec`` is the run's gradient spec and ``overrides`` the
    ``_bound_overrides`` of its config.  Computes the reference solution and
    the bound parameters, writes ``trace.csv``, ``bounds.csv``, ``comparison.csv``
    (``lasso``/``mpc``), ``iterates.bin``, ``trace.npz`` and ``summary.json``
    (plus ``n_p`` for an MPC problem and any ``extra`` keys), and
    returns the exit code: a violation of a gated series fails only under
    ``strict``.
    """
    out = cfg["run"]["out"]
    ref = reference_solution(problem)
    x_star, f_star = ref
    if isinstance(grad_spec, FixedPointFormat) and trace.eps1.size:
        # the realized machine precision (x1.05 safety)
        overrides = dict(overrides, delta=1.05 * float(np.abs(trace.eps1).max()))
    # quantization errors are componentwise bounded: the absolute model
    model = grad_spec.model if isinstance(grad_spec, GradientErrorSpec) else "absolute"
    params = BoundParams.from_trace(problem, trace, x_star, model=model, **overrides)
    observed = ObservedGaps.from_trace(problem, trace, f_star)
    series = evaluate_all_series(trace, params, x_star)
    # the gated theorem's target is the run's native gap; comparison.csv
    # measures every series against the Schmidt et al. baseline
    native_gap = observed.for_target(next(s.target for s in series if s.gate))
    artifacts.write_trace_csv(os.path.join(out, "trace.csv"), trace, f_star)
    artifacts.write_bounds_csv(os.path.join(out, "bounds.csv"), series, native_gap)
    if cfg["run"]["command"].strip() in ("lasso", "mpc"):
        baseline = next(s.name for s in series if s.name.startswith("schmidt_"))
        artifacts.write_comparison_csv(
            os.path.join(out, "comparison.csv"), series, native_gap, baseline
        )
    artifacts.save_iterates_bin(os.path.join(out, "iterates.bin"), trace)
    artifacts.save_trace_npz(os.path.join(out, "trace.npz"), trace)
    reports = [check_bound_validity(s, observed) for s in series]
    gated = sum(r.violations for r, s in zip(reports, series) if s.gate)
    summary = {
        "iterations": trace.num_steps,
        "status": trace.status,
        "final_f_gap": float(trace.fvals[-1] - f_star),
        "f_star": float(f_star),
        "ref_duality_gap": float(ref.gap),
        "dist0": params.dist0,
        "stepsize": params.s,
        "lipschitz": problem.lipschitz,
        "problem_sha256": problem_digest(problem),
        "fejer_monotone": fejer_monotone(trace, x_star),
        "violations": {r.name: r.violations for r in reports},
        "gated_violations": gated,
        "series_checked": {r.name: r.checked for r in reports},
        "strict": strict,
    }
    if "spec" in problem.meta:
        summary["n_p"] = problem.meta["spec"].n_p
    summary.update(extra or {})
    artifacts.write_summary(os.path.join(out, "summary.json"), summary)
    return EXIT_VIOLATION if strict and gated > 0 else EXIT_OK


def _prepare_out(cfg):
    """Create ``[run] out``, remove the ``RUN_ARTIFACTS`` an earlier run left
    there and write the config echo; returns the directory.  A command calls
    it once its whole config has been checked, so a rejected config leaves
    the directory as it was."""
    out = cfg["run"]["out"]
    os.makedirs(out, exist_ok=True)
    for name in RUN_ARTIFACTS:
        path = os.path.join(out, name)
        if os.path.exists(path):
            os.remove(path)
    echo_config(cfg, os.path.join(out, "config_echo.ini"))
    return out


def cmd_run(cfg, command):
    """``solve``, ``lasso`` and ``mpc``: build, run, certify.

    Default iteration counts: ``solve`` 100, ``lasso`` 300, ``mpc`` 300
    (basic) or 20 (accelerated).  Every setting is resolved before
    ``_prepare_out`` touches the out directory.
    """
    cfg["run"]["command"] = command
    problem = problem_from_cfg(cfg)
    spec = problem.meta.get("spec")
    grad_spec, prox_spec = _build_error_specs(cfg)
    accelerated = cfg["solver"]["variant"].strip() == "accelerated"
    default_iters = {"solve": 100, "lasso": 300, "mpc": 20 if accelerated else 300}[command]
    config = _build_solver_config(cfg, default_iters, grad_spec, prox_spec)
    overrides = _bound_overrides(cfg, grad_spec, prox_spec)
    strict = _get_bool(cfg, "run", "strict")
    steps = _get(cfg, "mpc", "closed_loop_steps", int) if spec is not None else None
    if steps is not None and steps < 0:
        raise ConfigError(f"[mpc] closed_loop_steps must be nonnegative, got {steps}")
    out = _prepare_out(cfg)
    summary_path = os.path.join(out, "summary.json")
    try:
        trace = run_solver(problem, config, np.zeros(problem.n))
    except OracleError as exc:  # e.g. no eps2-prox point once the iterates diverge
        artifacts.write_summary(summary_path, {"status": "oracle-error", "error": str(exc)})
        raise
    if trace.status == "non-finite-iterate":
        artifacts.write_summary(
            summary_path, {"status": trace.status, "iterations": trace.num_steps}
        )
        return EXIT_SOLVER
    extra = {}
    if steps:
        report = mpc_closed_loop(spec, config, steps)
        norms = artifacts.fmt_column(report.state_norms)
        artifacts.write_csv(os.path.join(out, "closed_loop.csv"), ["step", "state_norm"], [norms])
        extra["closed_loop_status"] = report.status
    return certify(cfg, problem, trace, grad_spec, overrides, strict, extra)


def cmd_bounds(file_cfg, overrides, from_dir):
    """Recompute the bound sweep from a stored run directory.

    The stored config echo is the base layer; a new config file and CLI
    flags override it (so e.g. --gamma re-evaluates the probabilistic
    bounds without re-running the solver).  The artifacts are those of the
    command that made the run, except the closed loop, which is not rerun;
    they go to ``--out``, which must be given and must not be ``from_dir``.
    The bounds take the step stored in ``trace.npz``.  A run whose summary
    records a failure (``FAILED_STATUSES``) or whose ``trace.npz`` cannot be
    read, or a ``[solver] variant`` or problem (its ``problem_sha256``) other
    than the stored run's, is a configuration error.
    """
    out = overrides.get(("run", "out"))
    if out is None:
        raise ConfigError("bounds needs --out, a directory other than --from")
    if os.path.realpath(out) == os.path.realpath(from_dir):
        raise ConfigError(f"bounds --out {out} is the --from directory")
    trace_path = os.path.join(from_dir, "trace.npz")
    echo_path = os.path.join(from_dir, "config_echo.ini")
    if not os.path.exists(trace_path) or not os.path.exists(echo_path):
        raise ConfigError(f"{from_dir} does not contain a stored run")
    try:
        with open(os.path.join(from_dir, "summary.json")) as fh:
            stored = json.load(fh)
        if not isinstance(stored, dict):
            raise ValueError("not a JSON object")
    except FileNotFoundError:
        stored = {}
    except ValueError as exc:
        raise ConfigError(f"{from_dir} has a malformed summary.json: {exc}") from exc
    status = stored.get("status")
    if status in FAILED_STATUSES:
        raise ConfigError(f"{from_dir} holds a failed run (status {status}), not a certifiable one")
    try:
        trace = artifacts.load_trace_npz(trace_path)
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"{from_dir} has an unreadable trace.npz: {exc!r}") from exc
    base = load_config(echo_path, strict=False)
    for sec, vals in (file_cfg or {}).items():
        base.setdefault(sec, {}).update(vals)
    cfg = resolve_config(base, overrides)
    variant = "basic" if trace.ys is None else "accelerated"
    if cfg["solver"]["variant"].strip() != variant:
        raise ConfigError(f"{from_dir} holds a {variant} run; [solver] variant cannot change it")
    problem = problem_from_cfg(cfg)
    if problem.n != trace.n:
        raise ConfigError(f"{from_dir} holds a run with n = {trace.n}, the config a problem "
                          f"with n = {problem.n}")
    # a summary without a digest re-certifies unchecked; an earlier version's
    # digest also hashed L, the one its summary records when that is finite
    stored_l = stored.get("lipschitz")
    if not (isinstance(stored_l, (int, float)) and math.isfinite(stored_l)):
        stored_l = problem.lipschitz
    digests = (problem_digest(problem), problem_digest(problem, float(stored_l)))
    if stored.get("problem_sha256", digests[0]) not in digests:
        raise ConfigError(f"{from_dir} holds a run of another problem than the config's")
    grad_spec, prox_spec = _build_error_specs(cfg)
    overrides = _bound_overrides(cfg, grad_spec, prox_spec)
    strict = _get_bool(cfg, "run", "strict")
    _prepare_out(cfg)
    return certify(cfg, problem, trace, grad_spec, overrides, strict)


def cmd_verify(cfg):
    """Martingale + concentration suites; biased-control run must fail."""
    trials = _get(cfg, "verify", "trials", int)
    if trials < 1:
        raise ConfigError(f"[verify] trials must be at least 1, got {trials}")
    k_max, gammas = 25, [1.0, 2.0, 3.0]  # steps of a martingale run, coverage gammas
    seed = _get_seed(cfg)
    out = _prepare_out(cfg)
    problem = gen_lasso(n=20, m=50, seed=7)
    x_star, _ = reference_solution(problem)
    gspec = GradientErrorSpec(model="absolute", mode="random", delta=1e-3)
    pspec = ProxErrorSpec(mode="target_gap", eps0=1e-6)
    biased = GradientErrorSpec(model="absolute", mode="random", delta=1e-3, lo=0.0, hi=1e-3)
    reports = [
        martingale_diagnostic(
            problem, gspec, pspec, trials, k_max, seed=seed, variant="basic", x_star=x_star
        ),
        martingale_diagnostic(
            problem, gspec, pspec, trials, k_max, seed=seed, variant="accelerated", x_star=x_star
        ),
        azuma_coverage(np.ones(50), gammas, max(trials * 10, 1000), seed=seed),
        hoeffding_coverage(0.0, 1e-4, 100, gammas, max(trials * 10, 1000), seed=seed),
    ]
    control = martingale_diagnostic(
        problem, biased, pspec, trials, k_max, seed=seed, variant="basic", x_star=x_star
    )
    control.name = "martingale-biased-control"
    ok = all(r.status in ("pass", "inconclusive") for r in reports)
    control_ok = control.status in ("fail", "inconclusive")
    status = "pass" if (ok and control_ok) else "fail"
    doc = {
        "status": status,
        "suites": [
            {
                "name": r.name,
                "status": r.status,
                "statistics": r.statistics,
                "thresholds": {str(k): v for k, v in r.thresholds.items()},
            }
            for r in reports + [control]
        ],
        "expected": {"martingale-biased-control": "fail"},
    }
    artifacts.write_summary(os.path.join(out, "report.json"), doc)
    width = max(len(r.name) for r in reports + [control])
    lines = [f"{r.name.ljust(width)}  {r.status}" for r in reports + [control]]
    lines.append(f"{'overall'.ljust(width)}  {status}")
    artifacts.atomic_write_text(os.path.join(out, "report.txt"), "\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if status == "pass" else EXIT_DIAGNOSTIC


def cmd_quantize(cfg, values):
    """Print the format's range and ulp and the quantization of ``values``
    (``inf`` shows saturation)."""
    fmt, _ = _build_error_specs(cfg)
    if not isinstance(fmt, FixedPointFormat):
        raise ConfigError("quantize needs --format")
    lo, hi = fmt.dynamic_range()
    print(f"format        {fmt}")
    print(f"dynamic range [{lo:.10g}, {hi:.10g}]")
    print(f"ulp           {fmt.ulp:.10g}")
    print(f"{'input':>18}  {'quantized':>18}")
    for v in values:
        # + 0.0 prints a rounded-away negative input as 0: the format has no -0
        print(f"{v:>18.10g}  {fmt.quantize(v) + 0.0:>18.10g}")
    return EXIT_OK


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="proxcert",
        description="Inexact proximal gradient runs with convergence-bound certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    # a value flag's dest is the ``section.key`` it sets
    common.add_argument("--config", help="INI config file")
    common.add_argument("--seed", dest="run.seed", type=int)
    common.add_argument("--iters", dest="run.iters", type=int)
    common.add_argument("--delta", dest="errors.delta", type=float)
    common.add_argument("--eps0", dest="errors.eps0", type=float)
    common.add_argument("--gamma", dest="bounds.gamma", type=float)
    common.add_argument("--format", dest="errors.format", help="fixed-point format, e.g. s16.8")
    common.add_argument("--solver-tol", dest="errors.solver_tol", type=float)
    common.add_argument("--strict", action="store_true", default=None)
    common.add_argument("--out", dest="run.out", help="output directory")
    common.add_argument("--trials", dest="verify.trials", type=int)
    for name in ("solve", "mpc", "lasso", "verify"):
        sub.add_parser(name, parents=[common])
    p_bounds = sub.add_parser("bounds", parents=[common])
    p_bounds.add_argument("--from", dest="from_dir", required=True, help="stored run directory")
    p_q = sub.add_parser("quantize", parents=[common])
    p_q.add_argument("values", nargs="*", type=float, help="sample inputs to quantize",
                     default=[0.0, 1.3, -1.3, 0.026, 100.0, -100.0])
    return parser


def _overrides_from_args(args):
    """CLI overrides keyed ``(section, key)``; unset flags are None."""
    ov = {tuple(dest.split(".")): value for dest, value in vars(args).items() if "." in dest}
    if args.strict:
        ov[("run", "strict")] = "true"
    return ov


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        file_cfg = load_config(args.config) if args.config else {}
        overrides = _overrides_from_args(args)
        cfg = resolve_config(file_cfg, overrides)
        t0 = time.perf_counter()
        if args.command in ("solve", "mpc", "lasso"):
            code = cmd_run(cfg, args.command)
        elif args.command == "bounds":
            code = cmd_bounds(file_cfg, overrides, args.from_dir)
        elif args.command == "verify":
            code = cmd_verify(cfg)
        elif args.command == "quantize":
            code = cmd_quantize(cfg, args.values)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command!r}")
        if code == EXIT_OK and args.command not in ("quantize",):
            print(f"{args.command}: ok ({time.perf_counter() - t0:.2f}s)")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def console_entry():  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_entry()
