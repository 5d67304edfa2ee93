import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from proxcert import reference_solution
from proxcert.cli import DEFAULTS, build_parser, main
from proxcert.experiments import gen_lasso, lasso_problem, mpc_to_lasso, spacecraft_mpc

from oracles import l1_dual_bound


def run_cli(args):
    return main(args)


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


@pytest.fixture()
def toy_config(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[lasso]\nn = 20\nm = 50\nseed = 7\n\n[run]\nseed = 3\niters = 60\n"
    )
    return cfg


class TestSolve:
    def test_zero_error_run_has_no_violations(self, tmp_path, toy_config):
        out = tmp_path / "out"
        code = run_cli(["solve", "--config", str(toy_config), "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["schema_version"] == 1
        assert summary["gated_violations"] == 0
        assert all(v == 0 for v in summary["violations"].values())
        for name in ("trace.csv", "bounds.csv", "config_echo.ini", "iterates.bin", "trace.npz"):
            assert (out / name).exists()

    def test_strict_oversized_stepsize_exits_4(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(
            "[lasso]\nn = 20\nm = 50\nseed = 7\n\n[solver]\nstepsize = 0.04\n"
        )
        code = run_cli(
            ["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--iters", "60",
             "--strict"]
        )
        assert code == 4

    def test_identical_configs_give_identical_csvs(self, tmp_path, toy_config):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["solve", "--config", str(toy_config), "--delta", "1e-3", "--eps0", "1e-5"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        for name in ("trace.csv", "bounds.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_solver_failure_exits_3(self, tmp_path):
        cfg = tmp_path / "diverge.ini"
        cfg.write_text(
            "[lasso]\nn = 20\nm = 50\nseed = 7\n\n[solver]\nstepsize = 1000\n"
        )
        code = run_cli(
            ["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--iters", "5000"]
        )
        assert code == 3

    def test_diverging_target_gap_run_writes_summary(self, tmp_path, capsys):
        # once the iterates diverge no point meets the prox-gap window; the
        # run still leaves its status in summary.json
        cfg = tmp_path / "diverge.ini"
        cfg.write_text(
            "[lasso]\nn = 20\nm = 50\nseed = 7\n\n[solver]\nstepsize = 1000\n\n"
            "[errors]\nprox_mode = target_gap\neps0 = 1e-5\n"
        )
        out = tmp_path / "o"
        code = run_cli(["solve", "--config", str(cfg), "--out", str(out), "--iters", "5000"])
        assert code == 3
        summary = read_summary(out)
        assert summary["status"] == "oracle-error"
        assert summary["error"].startswith("approx_prox gap")
        assert summary["error"] in capsys.readouterr().err

    @pytest.mark.parametrize("prox", ["exact", "target_gap"])
    def test_failed_rerun_leaves_no_stale_artifacts(self, tmp_path, prox):
        # a rerun that ends non-finite-iterate (exact prox) or oracle-error
        # (target gap) into the directory of a good run leaves only its own
        # config echo and summary, so bounds --from finds no run to certify
        lasso = "[lasso]\nn = 10\nm = 30\nseed = 7\n"
        good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
        good.write_text(lasso)
        bad.write_text(
            lasso + "\n[solver]\nstepsize = 1000\n\n"
            f"[errors]\nprox_mode = {prox}\neps0 = {1e-5 if prox == 'target_gap' else 0}\n"
        )
        out = tmp_path / "o"
        assert run_cli(["solve", "--config", str(good), "--out", str(out), "--iters", "50"]) == 0
        assert run_cli(["solve", "--config", str(bad), "--out", str(out), "--iters", "3000"]) == 3
        assert sorted(os.listdir(out)) == ["config_echo.ini", "summary.json"]
        status = {"exact": "non-finite-iterate", "target_gap": "oracle-error"}[prox]
        assert read_summary(out)["status"] == status
        assert run_cli(["bounds", "--from", str(out)]) == 2

    @pytest.mark.parametrize("status", ["non-finite-iterate", "oracle-error"])
    def test_bounds_rejects_a_failed_run(self, tmp_path, toy_config, capsys, status):
        # a directory whose trace and summary disagree, as a failed rerun
        # that kept the earlier run's files left it
        out = tmp_path / "o"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(out)]) == 0
        (out / "summary.json").write_text(json.dumps({"status": status}))
        assert run_cli(["bounds", "--from", str(out), "--out", str(tmp_path / "b")]) == 2
        assert f"holds a failed run (status {status})" in capsys.readouterr().err

    def test_diverging_run_certifies_without_warnings(self, tmp_path, capsys):
        # finite but diverging iterates overflow in the bounds and gaps; that
        # shows in the artifacts, not as numpy warnings
        cfg = tmp_path / "diverge.ini"
        cfg.write_text("[lasso]\nn = 10\nm = 30\nseed = 7\n\n[solver]\nstepsize = 1000\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["solve", "--config", str(cfg), "--out", str(out), "--iters", "50"]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        assert read_summary(out)["status"] == "iteration-cap"

    def test_problem_file_input(self, tmp_path):
        from proxcert import CompositeProblem, QuadraticSmooth, problem_to_json

        prob = CompositeProblem.from_quadratic(
            QuadraticSmooth(np.eye(3), np.array([1.0, -2.0, 0.5]), half=True), 0.2
        )
        pfile = tmp_path / "problem.json"
        pfile.write_text(problem_to_json(prob))
        cfg = tmp_path / "p.ini"
        cfg.write_text(f"[problem]\nfile = {pfile}\n")
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", str(cfg), "--out", str(out), "--iters", "50"]) == 0
        assert read_summary(out)["gated_violations"] == 0


class TestConfigErrors:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nspeed = 11\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[warp]\nfactor = 9\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run_cli(["solve", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_negative_seed_flag(self, tmp_path, capsys):
        assert run_cli(["solve", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "[run] seed must be a nonnegative integer" in capsys.readouterr().err

    def test_malformed_number(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\niters = three\n")
        assert run_cli(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "command, ini, problem_json",
        [
            ("solve", "", '{"n": 3, "M": [1, 0, 0, 0, 1'),  # truncated file
            ("solve", "", '{"n": 3, "M": [1, 2, 3, 4, 5], "v": [1, 2]}'),  # M not n x len(v)
            ("solve", "", '{"M": [1], "v": [1]}'),  # no n
            ("mpc", "[mpc]\nx0 = 1,2,abc\n", None),
            ("mpc", "[mpc]\nx0 = 1,2,3\n", None),  # the model has 7 states
            ("verify", "[verify]\ngammas = 1,x\n", None),
            ("lasso", "", '{"n": 1, "M": [1], "v": [1]}'),  # lasso builds its own problem
            ("mpc", "", '{"n": 1, "M": [1], "v": [1]}'),  # so does mpc
            ("solve", "", '{"n": 2, "M": [1, NaN], "v": [1]}'),
            ("solve", "", '{"n": 1, "M": [1], "v": [1], "lambda": 1e999}'),
            ("solve", "", '{"n": 1, "M": [1], "v": [1], "L": 0}'),
            ("solve", "", '{"n": 1, "M": [1], "v": [1], "L": -1}'),
            ("solve", "", '{"n": 1, "M": [0], "v": [1]}'),  # computed L is 0
            ("solve", "", '{"n": 2.5, "M": [1, 2], "v": [1]}'),
            ("solve", "", '{"n": 0, "M": [], "v": []}'),
            ("solve", "", '{"n": -1, "M": [1], "v": [1]}'),
            ("solve", "[errors]\ndirection = bogus\n", None),
            ("solve", "[errors]\neps0 = -1\n", None),
            ("solve", "[errors]\ndelta = -1\n", None),
            ("solve", "[errors]\nsolver_tol = -1\n", None),
            ("solve", "[solver]\nbacktracking = true\neta = 2\n", None),
            ("solve", "[solver]\nstepsize = -1\n", None),
            ("solve", "[bounds]\ngamma = 0\n", None),
            ("solve", "[bounds]\np = 2\n", None),
            ("verify", "[verify]\ntrials = 0\n", None),
            ("verify", "[verify]\nk_max = 0\n", None),
            ("solve", "[run]\nseed = 1\n[run]\nseed = 2\n", None),
            ("solve", "[errors]\ndelta = nan\n", None),
            ("solve", "[bounds]\ngamma = nan\n", None),
            ("verify", "[verify]\ngammas = ,\n", None),
            ("mpc", "[mpc]\nclosed_loop_steps = -1\n", None),
            ("solve", "[bounds]\neps2_mean = -1\n", None),
            ("solve", "[bounds]\nm_u = 1\n", None),  # keys this version no longer defines
            ("quantize", "[quantize]\nformat = s8.4\n", None),
            ("solve", "[run]\nseed = -1\n", None),
            ("verify", "[run]\nseed = -1\n", None),
            ("mpc", "[mpc]\nx0 = nan,0,0,0,0,0,0\n", None),
            ("verify", "[verify]\ngammas = nan\n", None),
        ],
        ids=["truncated_json", "m_size_mismatch", "missing_n", "x0_not_numbers",
             "x0_wrong_dimension", "gammas_not_numbers", "lasso_problem_file",
             "mpc_problem_file", "nan_in_m", "infinite_lambda", "zero_l", "negative_l",
             "zero_matrix", "fractional_n", "zero_n", "negative_n", "bogus_direction",
             "negative_eps0", "negative_delta", "negative_solver_tol", "eta_above_1",
             "negative_stepsize", "zero_gamma", "p_above_1", "zero_trials", "zero_k_max",
             "duplicate_section", "nan_delta", "nan_gamma", "empty_gammas",
             "negative_closed_loop_steps", "negative_eps2_mean", "removed_m_u",
             "removed_quantize_format", "negative_seed", "negative_verify_seed", "nan_x0",
             "nan_gammas"],
    )
    def test_bad_input_exits_2(self, tmp_path, capsys, command, ini, problem_json):
        if problem_json is not None:
            pfile = tmp_path / "problem.json"
            pfile.write_text(problem_json)
            ini = f"[problem]\nfile = {pfile}\n"
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")


def test_readme_names_every_config_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    para = readme[readme.index("Configuration files are INI"):]
    documented = dict(re.findall(r"`\[(\w+)\]`\s+\(([^)]*)\)", para[: para.index("\n\n")]))
    for sec, keys in DEFAULTS.items():
        assert sec in documented, sec
        for key in keys:
            assert re.search(rf"\b{key}\b", documented[sec]), (sec, key)


class TestQuantizeCommand:
    def test_unsigned_format_table(self, capsys):
        assert run_cli(["quantize", "--format", "u8.4"]) == 0
        out = capsys.readouterr().out
        assert "[0, 15.9375]" in out
        assert "0.0625" in out

    def test_signed_format_table(self, capsys):
        assert run_cli(["quantize", "--format", "s8.4"]) == 0
        out = capsys.readouterr().out
        assert "[-8, 7.9375]" in out

    def test_malformed_format_exits_2(self):
        assert run_cli(["quantize", "--format", "s4.8"]) == 2

    def test_custom_values(self, capsys):
        assert run_cli(["quantize", "--format", "s8.4", "1.3"]) == 0
        assert "1.3125" in capsys.readouterr().out

    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        parser = build_parser()
        assert run_cli(["quantize", "--format", "s8.4", "2.71"]) == 0
        assert run_cli(["quantize", "--bogus"]) == 2
        capsys.readouterr()
        assert run_cli(["quantize", "--format", "u8.4"]) == 0
        out = capsys.readouterr().out
        assert "2.71" not in out and "0.026" in out  # the default sample inputs
        assert build_parser() is parser


class TestMpcCommand:
    def test_artifacts_and_improvement_columns(self, tmp_path):
        out = tmp_path / "mpc"
        code = run_cli(
            ["mpc", "--out", str(out), "--iters", "40", "--delta", "2.2e-4",
             "--eps0", "1e-4", "--seed", "1"]
        )
        assert code == 0
        comparison = (out / "comparison.csv").read_text().splitlines()
        header = comparison[0].split(",")
        assert "imprv_thm_basic_det" in header
        col = header.index("imprv_thm_basic_det")
        values = [float(r.split(",")[col]) for r in comparison[6:]]
        assert all(v > 0 for v in values)

    def test_tiny_errors_bounds_practically_coincide(self, tmp_path):
        out = tmp_path / "mpc2"
        code = run_cli(
            ["mpc", "--out", str(out), "--iters", "120", "--delta", "2.2e-12",
             "--eps0", "1e-12", "--seed", "1"]
        )
        assert code == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        header = rows[0].split(",")
        i_imp = header.index("imprv_thm_basic_det")
        i_sch = header.index("schmidt_basic")
        last = rows[-1].split(",")
        assert float(last[i_imp]) / float(last[i_sch]) <= 0.05

    def test_closed_loop_artifact(self, tmp_path):
        cfg = tmp_path / "cl.ini"
        cfg.write_text("[mpc]\nclosed_loop_steps = 3\nlam = 0.1\nx0 = 0.1,0.1,0.1,0.1,0.1,0.1,0.1\n")
        out = tmp_path / "mpc3"
        code = run_cli(["mpc", "--config", str(cfg), "--out", str(out), "--iters", "40"])
        assert code == 0
        assert (out / "closed_loop.csv").exists()


class TestLassoCommand:
    def test_quantized_gradient_inner_solver_prox(self, tmp_path):
        out = tmp_path / "lasso"
        cfg = tmp_path / "l.ini"
        cfg.write_text("[lasso]\nn = 30\nm = 90\nseed = 2\n")
        code = run_cli(
            ["lasso", "--config", str(cfg), "--out", str(out), "--iters", "80",
             "--format", "s16.8", "--solver-tol", "1e-8", "--strict"]
        )
        assert code == 0
        summary = read_summary(out)
        assert summary["gated_violations"] == 0


class TestBoundsCommand:
    def test_recompute_from_stored_run(self, tmp_path, toy_config):
        runs = {
            "solve": ["solve", "--config", str(toy_config)],
            "mpc": ["mpc", "--iters", "40", "--delta", "1e-3", "--eps0", "1e-4"],
        }
        for command, args in runs.items():
            src, dst = tmp_path / f"{command}-src", tmp_path / f"{command}-recomputed"
            assert run_cli(args + ["--out", str(src)]) == 0
            assert run_cli(["bounds", "--from", str(src), "--out", str(dst)]) == 0
            # the source command's artifact set; only mpc/lasso write comparison.csv
            names = sorted(os.listdir(src))
            assert names == sorted(os.listdir(dst))
            assert ("comparison.csv" in names) == (command == "mpc")
            for name in set(names) - {"config_echo.ini", "summary.json"}:
                assert (dst / name).read_bytes() == (src / name).read_bytes(), name
            stored, recomputed = read_summary(src), read_summary(dst)
            assert recomputed.pop("status") == "loaded"
            stored.pop("status")
            assert recomputed == stored

    def test_reference_duality_gap_in_summary(self, tmp_path, toy_config):
        # the reference is certified to 1e-10 of f*, solve and mpc alike, and
        # the gap is f* minus an independent dual bound at the reference point
        runs = {
            "solve": (["solve", "--config", str(toy_config)],
                      lasso_problem(gen_lasso(n=20, m=50, seed=7))),
            "mpc": (["mpc", "--iters", "20"],
                    mpc_to_lasso(spacecraft_mpc(n_p=10, x0=0.5 * np.ones(7)))),
        }
        for command, (args, problem) in runs.items():
            assert run_cli(args + ["--out", str(tmp_path / command)]) == 0
            summary = read_summary(tmp_path / command)
            gap, f_star = summary["ref_duality_gap"], summary["f_star"]
            assert -1e-12 * abs(f_star) <= gap <= 1e-10 * abs(f_star), command
            ref = reference_solution(problem)
            x_star, _ = ref
            assert gap == ref.gap
            quad = problem.smooth
            lower = l1_dual_bound(quad.mat, quad.vec, problem.reg.lam, x_star, quad.half)
            assert gap == pytest.approx(f_star - lower, rel=0.0, abs=1e-12 * abs(f_star))

    def test_echo_with_removed_keys_recertifies(self, tmp_path, toy_config):
        # an echo written before [bounds] m_u and [quantize] format were
        # removed still loads, and gives the same artifacts as a current one
        src = tmp_path / "src"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(src)]) == 0
        assert run_cli(["bounds", "--from", str(src), "--out", str(tmp_path / "new")]) == 0
        echo = (src / "config_echo.ini").read_text()
        echo = echo.replace("[bounds]\n", "[bounds]\nm_u = \n")
        echo = echo.replace("[quantize]\n", "[quantize]\nformat = \n")
        assert "m_u = " in echo and echo.count("format = ") == 2
        (src / "config_echo.ini").write_text(echo)
        assert run_cli(["bounds", "--from", str(src), "--out", str(tmp_path / "old")]) == 0
        old, new = tmp_path / "old", tmp_path / "new"
        assert sorted(os.listdir(old)) == sorted(os.listdir(new))
        for name in os.listdir(new):
            # the echo differs only in [run] out
            stored = (old / name).read_bytes().replace(bytes(old), bytes(new))
            assert stored == (new / name).read_bytes(), name

    def test_missing_run_dir(self, tmp_path):
        assert run_cli(["bounds", "--from", str(tmp_path / "empty"), "--out", str(tmp_path)]) == 2


class TestVerifyCommand:
    def test_default_suite_passes_and_control_fails(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = run_cli(["verify", "--out", str(out), "--trials", "120", "--seed", "2"])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "pass"
        by_name = {s["name"]: s["status"] for s in report["suites"]}
        assert by_name["martingale-biased-control"] == "fail"
        assert by_name["martingale-basic"] == "pass"
        assert by_name["azuma-coverage"] == "pass"
        assert (out / "report.txt").exists()

    def test_tiny_trials_inconclusive_not_failure(self, tmp_path):
        out = tmp_path / "verify2"
        code = run_cli(["verify", "--out", str(out), "--trials", "10", "--seed", "2"])
        report = json.loads((out / "report.json").read_text())
        by_name = {s["name"]: s["status"] for s in report["suites"]}
        assert by_name["martingale-basic"] == "inconclusive"
        # an inconclusive control cannot certify the suite failed
        assert code in (0, 5)

    def test_diagnostic_failure_exits_5(self, tmp_path, monkeypatch):
        import proxcert.cli as cli
        from proxcert.experiments import DiagnosticReport

        def always_fail(*args, **kwargs):
            return DiagnosticReport(
                name="martingale-basic", trials=0, statistics={}, thresholds={}, status="fail"
            )

        monkeypatch.setattr(cli, "martingale_diagnostic", always_fail)
        code = run_cli(["verify", "--out", str(tmp_path / "v"), "--trials", "120"])
        assert code == 5


COLD_START = """
import sys
import proxcert, proxcert.cli, proxcert.experiments
from proxcert.cli import main

out, loaded = sys.argv[1], []
assert main(["quantize", "--format", "s8.4"]) == 0
assert main(["mpc", "--out", out + "/mpc", "--iters", "100"]) == 0
assert main(["bounds", "--from", out + "/mpc", "--out", out + "/bounds"]) == 0
loaded.append("scipy" in sys.modules)
assert main(["solve", "--eps0", "1e-4", "--out", out + "/solve", "--iters", "100"]) == 0
loaded.append("scipy" in sys.modules)
print(loaded)
"""


class TestColdStart:
    def test_scipy_loads_only_with_a_random_draw(self, tmp_path):
        # a fresh interpreter: exact and quantized commands load no scipy,
        # a target-gap run's first truncated-Gaussian draw does
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", COLD_START, str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout.splitlines()[-1] == "[False, True]"
