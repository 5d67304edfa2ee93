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
import os
import sys
import time

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
from .problems import OracleError, StepsizePolicy, max_constant_stepsize, problem_from_json
from .solvers import SolverConfig, reference_solution, run as run_solver
from .experiments import (
    azuma_coverage,
    gen_lasso,
    hoeffding_coverage,
    lasso_problem,
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


# every section and key a config may set, with its default
DEFAULTS = {
    "run": {
        "seed": "0",
        "out": "out",
        "iters": "",
        "abstol": "0",
        "strict": "false",
        "command": "",
    },
    "problem": {"file": ""},
    "lasso": {"n": "100", "m": "500", "sparsity": "", "noise": "0.01", "lam": "", "seed": "0"},
    "mpc": {"n_p": "", "n_c": "", "lam": "16.79", "x0": "", "closed_loop_steps": ""},
    "solver": {
        "variant": "basic",
        "stepsize": "auto",
        "backtracking": "false",
        "eta": "0.5",
        "momentum": "fista",
    },
    "errors": {
        "grad_model": "absolute",
        "delta": "0",
        "format": "",
        "prox_mode": "exact",
        "eps0": "0",
        "solver_tol": "",
        "direction": "random_symmetric",
    },
    "bounds": {"gamma": "3.0", "p": "1.0", "eps2_mean": "", "m_u": ""},
    "verify": {"trials": "200", "k_max": "25", "gammas": "1,2,3"},
    "quantize": {"format": "", "values": "0,1.3,-1.3,0.026,100,-100"},
}


def load_config(path):
    """Read an INI config file, rejecting unknown sections or keys."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out = {}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            out.setdefault(section, {})[key] = value
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


def _get_float(cfg, sec, key, default=None):
    raw = cfg[sec][key].strip()
    if raw == "":
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key} must be a number, got {raw!r}") from exc


def _get_int(cfg, sec, key, default=None):
    raw = cfg[sec][key].strip()
    if raw == "":
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key} must be an integer, got {raw!r}") from exc


def _get_bool(cfg, sec, key):
    raw = cfg[sec][key].strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off", ""):
        return False
    raise ConfigError(f"[{sec}] {key} must be a boolean, got {raw!r}")


def _get_floats(cfg, sec, key):
    """Comma-separated numbers; empty items are skipped."""
    raw = cfg[sec][key]
    try:
        return [float(t) for t in raw.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"[{sec}] {key} must be a list of numbers, got {raw.strip()!r}") from exc


def _build_error_specs(cfg):
    grad_model = cfg["errors"]["grad_model"].strip()
    if grad_model not in ("absolute", "relative"):
        raise ConfigError(f"unknown gradient error model {grad_model!r}")
    delta = _get_float(cfg, "errors", "delta", 0.0)
    fmt_text = cfg["errors"]["format"].strip()
    if fmt_text:
        try:
            grad_spec = FixedPointFormat.parse(fmt_text)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif delta > 0:
        grad_spec = GradientErrorSpec(model=grad_model, mode="random", delta=delta)
    else:
        grad_spec = None
    prox_mode = cfg["errors"]["prox_mode"].strip()
    eps0 = _get_float(cfg, "errors", "eps0", 0.0)
    solver_tol = _get_float(cfg, "errors", "solver_tol")
    if solver_tol is not None:
        prox_mode = "inner_solver"
        eps0 = solver_tol
    direction = cfg["errors"]["direction"].strip()
    if prox_mode == "exact" and eps0 > 0:
        prox_mode = "target_gap"
    if prox_mode == "exact":
        prox_spec = ProxErrorSpec()
    elif prox_mode in ("target_gap", "inner_solver"):
        prox_spec = ProxErrorSpec(mode=prox_mode, eps0=eps0, direction=direction)
    else:
        raise ConfigError(f"unknown prox error mode {prox_mode!r}")
    return grad_spec, prox_spec, grad_model, delta, eps0


def _build_solver_config(cfg, problem, default_iters):
    grad_spec, prox_spec, grad_model, delta, _ = _build_error_specs(cfg)
    variant = cfg["solver"]["variant"].strip()
    if variant not in ("basic", "accelerated"):
        raise ConfigError(f"unknown solver variant {variant!r}")
    iters = _get_int(cfg, "run", "iters", default_iters)
    abstol = _get_float(cfg, "run", "abstol", 0.0)
    momentum = cfg["solver"]["momentum"].strip()
    step_raw = cfg["solver"]["stepsize"].strip()
    relative = grad_model == "relative" and isinstance(grad_spec, GradientErrorSpec)
    if step_raw in ("", "auto"):
        s0 = max_constant_stepsize(problem.lipschitz, delta, relative=relative)
    else:
        try:
            s0 = float(step_raw)
        except ValueError as exc:
            raise ConfigError(f"stepsize must be 'auto' or a number, got {step_raw!r}") from exc
    if _get_bool(cfg, "solver", "backtracking"):
        policy = StepsizePolicy.backtracking(s0, _get_float(cfg, "solver", "eta", 0.5))
    else:
        policy = StepsizePolicy.constant(s0)
    try:
        return SolverConfig(
            variant=variant,
            stepsize=policy,
            max_iters=iters,
            abstol=abstol,
            momentum=momentum,
            grad_error=grad_spec,
            prox_error=prox_spec,
            seed=_get_int(cfg, "run", "seed", 0),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _bound_params(cfg, problem, trace, x_star):
    grad_spec, prox_spec, grad_model, delta, eps0 = _build_error_specs(cfg)
    if isinstance(grad_spec, FixedPointFormat):
        # quantization errors are componentwise bounded: absolute-model
        # flavour with the realized machine precision (x1.05 safety)
        grad_model = "absolute"
        if delta == 0.0 and trace.eps1.size:
            delta = 1.05 * float(np.abs(trace.eps1).max())
    overrides = {
        "delta": delta,
        "eps0": eps0,
        "gamma": _get_float(cfg, "bounds", "gamma", 3.0),
        "p": _get_float(cfg, "bounds", "p", 1.0),
    }
    eps2_mean = _get_float(cfg, "bounds", "eps2_mean")
    if eps2_mean is None and prox_spec.mode == "target_gap" and eps0 > 0:
        eps2_mean = float(truncated_gaussian_mean(0.0, eps0))
    if eps2_mean is not None:
        overrides["eps2_mean"] = eps2_mean
    m_u = _get_float(cfg, "bounds", "m_u")
    if m_u is not None:
        overrides["m_u"] = m_u
    return BoundParams.from_trace(problem, trace, x_star, model=grad_model, **overrides)


def problem_from_cfg(cfg):
    """The problem a run command solves: ``(problem, mpc_spec)``.

    ``mpc`` condenses the spacecraft regulator of ``[mpc]`` (and records the
    resolved horizons in ``cfg``, so the config echo shows them); ``solve``
    reads ``[problem] file`` when set, otherwise it generates the instance
    from ``[lasso]`` as ``lasso`` always does.  ``lasso`` and ``mpc`` reject
    ``[problem] file``.  ``mpc_spec`` is None for non-MPC problems.
    """
    command = cfg["run"]["command"].strip()
    pfile = cfg["problem"]["file"].strip()
    if pfile and command in ("lasso", "mpc"):
        raise ConfigError(f"{command} builds its own problem; [problem] file is only for solve")
    if command == "mpc":
        # reference setup: basic runs at horizon 10, the time-critical
        # accelerated variant at horizon 2
        accelerated = cfg["solver"]["variant"].strip() == "accelerated"
        n_p = _get_int(cfg, "mpc", "n_p", 2 if accelerated else 10)
        n_c = _get_int(cfg, "mpc", "n_c", n_p)
        cfg["mpc"]["n_p"], cfg["mpc"]["n_c"] = str(n_p), str(n_c)
        lam = _get_float(cfg, "mpc", "lam", 16.79)
        x0 = _get_floats(cfg, "mpc", "x0") or 0.5 * np.ones(7)
        build = lambda: mpc_to_lasso(spacecraft_mpc(n_p=n_p, n_c=n_c, lam=lam, x0=x0))
        source = "[mpc]"
    elif pfile:
        try:
            with open(pfile) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read problem file {pfile}: {exc.strerror}") from exc
        build = lambda: problem_from_json(text)
        source = f"problem file {pfile}"
    else:
        kwargs = dict(
            n=_get_int(cfg, "lasso", "n", 100),
            m=_get_int(cfg, "lasso", "m", 500),
            sparsity=_get_int(cfg, "lasso", "sparsity"),
            noise=_get_float(cfg, "lasso", "noise", 0.01),
            lam=_get_float(cfg, "lasso", "lam"),
            seed=_get_int(cfg, "lasso", "seed", 0),
        )
        build = lambda: lasso_problem(gen_lasso(**kwargs))
        source = "[lasso]"
    try:
        problem = build()
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid {source}: {exc}") from exc
    return problem, problem.meta.get("spec")


def certify(cfg, problem, trace, spec=None, extra=None):
    """Check a trace against every bound series and write the run artifacts.

    Computes the reference solution and the bound parameters, writes
    ``trace.csv``, ``bounds.csv``, ``comparison.csv`` (``lasso``/``mpc``),
    ``iterates.bin``, ``trace.npz`` and ``summary.json`` (plus the MPC fields
    when ``spec`` is given and any ``extra`` keys), and returns the exit code:
    a violation of a gated deterministic series fails only under --strict.
    """
    out = cfg["run"]["out"]
    accelerated = trace.ys is not None
    x_star, f_star = reference_solution(problem)
    params = _bound_params(cfg, problem, trace, x_star)
    observed = ObservedGaps.from_trace(problem, trace, f_star)
    series = evaluate_all_series(trace, params, x_star, "accelerated" if accelerated else "basic")
    native_gap = observed.iterate_next if accelerated else observed.ergodic_incl
    artifacts.write_trace_csv(os.path.join(out, "trace.csv"), trace, f_star)
    artifacts.write_bounds_csv(os.path.join(out, "bounds.csv"), series, native_gap)
    if cfg["run"]["command"].strip() in ("lasso", "mpc"):
        baseline = "schmidt_acc" if accelerated else "schmidt_basic"
        artifacts.write_comparison_csv(
            os.path.join(out, "comparison.csv"), series, native_gap, baseline
        )
    artifacts.save_iterates_bin(os.path.join(out, "iterates.bin"), trace)
    artifacts.save_trace_npz(os.path.join(out, "trace.npz"), trace)
    reports = [check_bound_validity(s, observed) for s in series]
    gated = sum(r.violations for r, s in zip(reports, series) if s.gate and s.deterministic)
    strict = _get_bool(cfg, "run", "strict")
    summary = {
        "iterations": trace.num_steps,
        "status": trace.status,
        "final_f_gap": float(trace.fvals[-1] - f_star),
        "f_star": float(f_star),
        "dist0": params.dist0,
        "stepsize": params.s,
        "lipschitz": problem.lipschitz,
        "fejer_monotone": fejer_monotone(trace, x_star),
        "violations": {r.name: r.violations for r in reports},
        "gated_violations": gated,
        "series_checked": {r.name: r.checked for r in reports},
        "strict": strict,
    }
    if spec is not None:
        summary.update(
            n_p=spec.n_p,
            n_c=spec.n_c,
            condensed_lipschitz=problem.lipschitz,
            # the reference diagonal lists cover a 2-step window; they are
            # tiled per step to the configured horizon
            weights_tiling="per-step blocks tiled to horizon",
        )
    summary.update(extra or {})
    artifacts.write_summary(os.path.join(out, "summary.json"), summary)
    return EXIT_VIOLATION if strict and gated > 0 else EXIT_OK


def cmd_run(cfg, command):
    """``solve``, ``lasso`` and ``mpc``: build, run, certify.

    Default iteration counts: ``solve`` 100, ``lasso`` 300, ``mpc`` 300
    (basic) or 20 (accelerated).
    """
    cfg["run"]["command"] = command
    problem, spec = problem_from_cfg(cfg)
    out = cfg["run"]["out"]
    os.makedirs(out, exist_ok=True)
    echo_config(cfg, os.path.join(out, "config_echo.ini"))
    accelerated = cfg["solver"]["variant"].strip() == "accelerated"
    default_iters = {"solve": 100, "lasso": 300, "mpc": 20 if accelerated else 300}[command]
    config = _build_solver_config(cfg, problem, default_iters)
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
    steps = _get_int(cfg, "mpc", "closed_loop_steps") if spec is not None else None
    if steps:
        report = mpc_closed_loop(spec, config, steps)
        norms = artifacts.fmt_column(report.state_norms)
        artifacts.write_csv(os.path.join(out, "closed_loop.csv"), ["step", "state_norm"], [norms])
        extra["closed_loop_status"] = report.status
    return certify(cfg, problem, trace, spec, extra)


def cmd_bounds(file_cfg, overrides, from_dir):
    """Recompute the bound sweep from a stored run directory.

    The stored config echo is the base layer; a new config file and CLI
    flags override it (so e.g. --gamma re-evaluates the probabilistic
    bounds without re-running the solver).  The artifacts are those of the
    command that made the run, except the closed loop, which is not rerun.
    """
    trace_path = os.path.join(from_dir, "trace.npz")
    echo_path = os.path.join(from_dir, "config_echo.ini")
    if not os.path.exists(trace_path) or not os.path.exists(echo_path):
        raise ConfigError(f"{from_dir} does not contain a stored run")
    base = load_config(echo_path)
    for sec, vals in (file_cfg or {}).items():
        base.setdefault(sec, {}).update(vals)
    cfg = resolve_config(base, overrides)
    problem, spec = problem_from_cfg(cfg)
    out = cfg["run"]["out"]
    os.makedirs(out, exist_ok=True)
    echo_config(cfg, os.path.join(out, "config_echo.ini"))
    return certify(cfg, problem, artifacts.load_trace_npz(trace_path), spec)


def cmd_verify(cfg):
    """Martingale + concentration suites; biased-control run must fail."""
    out = cfg["run"]["out"]
    os.makedirs(out, exist_ok=True)
    echo_config(cfg, os.path.join(out, "config_echo.ini"))
    trials = _get_int(cfg, "verify", "trials", 200)
    k_max = _get_int(cfg, "verify", "k_max", 25)
    gammas = _get_floats(cfg, "verify", "gammas")
    seed = _get_int(cfg, "run", "seed", 0)
    problem = lasso_problem(gen_lasso(n=20, m=50, seed=7))
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


def cmd_quantize(cfg):
    fmt_text = cfg["quantize"]["format"].strip() or cfg["errors"]["format"].strip()
    if not fmt_text:
        raise ConfigError("quantize needs --format")
    try:
        fmt = FixedPointFormat.parse(fmt_text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lo, hi = fmt.dynamic_range()
    print(f"format        {fmt}")
    print(f"dynamic range [{lo:.10g}, {hi:.10g}]")
    print(f"ulp           {fmt.ulp:.10g}")
    values = _get_floats(cfg, "quantize", "values")
    print(f"{'input':>18}  {'quantized':>18}")
    for v in values:
        print(f"{v:>18.10g}  {fmt.quantize(v):>18.10g}")
    return EXIT_OK


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="proxcert",
        description="Inexact proximal gradient runs with convergence-bound certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--iters", type=int)
    common.add_argument("--abstol", type=float)
    common.add_argument("--delta", type=float)
    common.add_argument("--eps0", type=float)
    common.add_argument("--gamma", type=float)
    common.add_argument("--format", dest="fmt", help="fixed-point format, e.g. s16.8")
    common.add_argument("--solver-tol", dest="solver_tol", type=float)
    common.add_argument("--strict", action="store_true", default=None)
    common.add_argument("--out", help="output directory")
    common.add_argument("--trials", type=int)
    for name in ("solve", "mpc", "lasso", "verify"):
        sub.add_parser(name, parents=[common])
    p_bounds = sub.add_parser("bounds", parents=[common])
    p_bounds.add_argument("--from", dest="from_dir", required=True, help="stored run directory")
    p_q = sub.add_parser("quantize", parents=[common])
    p_q.add_argument("values", nargs="*", type=float, help="sample inputs to quantize")
    return parser


def _overrides_from_args(args):
    ov = {
        ("run", "seed"): args.seed,
        ("run", "iters"): args.iters,
        ("run", "abstol"): args.abstol,
        ("run", "out"): args.out,
        ("errors", "delta"): args.delta,
        ("errors", "eps0"): args.eps0,
        ("errors", "format"): args.fmt,
        ("errors", "solver_tol"): args.solver_tol,
        ("bounds", "gamma"): args.gamma,
        ("verify", "trials"): args.trials,
    }
    if args.strict:
        ov[("run", "strict")] = "true"
    if getattr(args, "values", None):
        ov[("quantize", "values")] = ",".join(str(v) for v in args.values)
        if args.fmt:
            ov[("quantize", "format")] = args.fmt
    elif getattr(args, "fmt", None) and args.command == "quantize":
        ov[("quantize", "format")] = args.fmt
    return ov


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        file_cfg = load_config(args.config) if args.config else {}
        cfg = resolve_config(file_cfg, _overrides_from_args(args))
        t0 = time.perf_counter()
        if args.command in ("solve", "mpc", "lasso"):
            code = cmd_run(cfg, args.command)
        elif args.command == "bounds":
            code = cmd_bounds(file_cfg, _overrides_from_args(args), args.from_dir)
        elif args.command == "verify":
            code = cmd_verify(cfg)
        elif args.command == "quantize":
            code = cmd_quantize(cfg)
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
