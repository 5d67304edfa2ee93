import json
import os

import numpy as np
import pytest

from proxcert.cli import build_parser, main


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
        ],
        ids=["truncated_json", "m_size_mismatch", "missing_n", "x0_not_numbers",
             "x0_wrong_dimension", "gammas_not_numbers", "lasso_problem_file",
             "mpc_problem_file", "nan_in_m", "infinite_lambda"],
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

    def test_missing_run_dir(self, tmp_path):
        assert run_cli(["bounds", "--from", str(tmp_path / "empty"), "--out", str(tmp_path)]) == 2


class TestVerifyCommand:
    def test_default_suite_passes_and_control_fails(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = run_cli(["verify", "--out", str(out), "--trials", "120", "--seed", "2"])
        assert code == 0
        report = json.load(open(out / "report.json"))
        assert report["status"] == "pass"
        by_name = {s["name"]: s["status"] for s in report["suites"]}
        assert by_name["martingale-biased-control"] == "fail"
        assert by_name["martingale-basic"] == "pass"
        assert by_name["azuma-coverage"] == "pass"
        assert (out / "report.txt").exists()

    def test_tiny_trials_inconclusive_not_failure(self, tmp_path):
        out = tmp_path / "verify2"
        code = run_cli(["verify", "--out", str(out), "--trials", "10", "--seed", "2"])
        report = json.load(open(out / "report.json"))
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
