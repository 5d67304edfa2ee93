import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import proxcert.cli as cli
import proxcert.solvers as solvers
from proxcert import reference_solution
from proxcert.cli import DEFAULTS, build_parser, main
from proxcert.experiments import gen_lasso, lasso_problem, mpc_to_lasso, spacecraft_mpc

from oracles import l1_dual_bound, problem_to_json


def run_cli(args):
    return main(args)


def run_at_step(monkeypatch, step):
    """Make a run command's solve take the constant ``step``, which no setting
    chooses; the reference solve in ``certify`` keeps its own 1/L."""
    real = cli.run_solver

    def run(problem, config, x0):
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_stepsize", lambda problem, config: step)
            return real(problem, config, x0)

    monkeypatch.setattr(cli, "run_solver", run)


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


# the L a problem file without a positive, finite one gets, as its error names it
L_NAMED = {
    '{"n": 1, "M": [0], "v": [1]}': "0.0",
    '{"n": 1, "M": [1e200], "v": [1]}': "inf",
    '{"n": 2, "M": [1e200, 1, 1, 1], "v": [1, 1]}': "nan",
}


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

    def test_strict_oversized_stepsize_exits_4(self, tmp_path, monkeypatch):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[lasso]\nn = 20\nm = 50\nseed = 7\n")
        run_at_step(monkeypatch, 0.04)
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

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch):
        cfg = tmp_path / "diverge.ini"
        cfg.write_text("[lasso]\nn = 20\nm = 50\nseed = 7\n")
        run_at_step(monkeypatch, 1000.0)
        code = run_cli(
            ["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--iters", "5000"]
        )
        assert code == 3

    def test_diverging_target_gap_run_writes_summary(self, tmp_path, capsys, monkeypatch):
        # once the iterates diverge no point meets the prox-gap window; the
        # run still leaves its status in summary.json
        cfg = tmp_path / "diverge.ini"
        cfg.write_text("[lasso]\nn = 20\nm = 50\nseed = 7\n\n[errors]\neps0 = 1e-5\n")
        run_at_step(monkeypatch, 1000.0)
        out = tmp_path / "o"
        code = run_cli(["solve", "--config", str(cfg), "--out", str(out), "--iters", "5000"])
        assert code == 3
        summary = read_summary(out)
        assert summary["status"] == "oracle-error"
        assert summary["error"].startswith("approx_prox gap")
        assert summary["error"] in capsys.readouterr().err

    @pytest.mark.parametrize("prox", ["exact", "target_gap"])
    def test_failed_rerun_leaves_no_stale_artifacts(self, tmp_path, monkeypatch, prox):
        # a rerun that ends non-finite-iterate (exact prox) or oracle-error
        # (target gap) into the directory of a good run leaves only its own
        # config echo and summary, so bounds --from finds no run to certify
        lasso = "[lasso]\nn = 10\nm = 30\nseed = 7\n"
        good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
        good.write_text(lasso)
        bad.write_text(lasso + f"\n[errors]\neps0 = {1e-5 if prox == 'target_gap' else 0}\n")
        out = tmp_path / "o"
        assert run_cli(["solve", "--config", str(good), "--out", str(out), "--iters", "50"]) == 0
        run_at_step(monkeypatch, 1000.0)
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

    def test_diverging_run_certifies_without_warnings(self, tmp_path, capsys, monkeypatch):
        # finite but diverging iterates overflow in the bounds and gaps; that
        # shows in the artifacts, not as numpy warnings
        cfg = tmp_path / "diverge.ini"
        cfg.write_text("[lasso]\nn = 10\nm = 30\nseed = 7\n")
        run_at_step(monkeypatch, 1000.0)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(["solve", "--config", str(cfg), "--out", str(out), "--iters", "50"]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        assert read_summary(out)["status"] == "iteration-cap"

    @pytest.mark.parametrize("flags, prox", [
        (["--eps0", "1e-5"], "target_gap"),
        (["--solver-tol", "1e-6"], "inner_solver"),
        ([], "exact"),
    ])
    def test_prox_kind_follows_the_tolerances(self, tmp_path, toy_config, flags, prox):
        from proxcert.artifacts import load_trace_npz

        out = tmp_path / "o"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(out)] + flags) == 0
        trace = load_trace_npz(str(out / "trace.npz"))
        if prox == "target_gap":
            assert np.all((trace.eps2 > 0) & (trace.eps2 <= 1e-5))
        elif prox == "inner_solver":
            assert np.all(trace.eps2 <= 1e-6) and trace.res.any()
        else:
            assert not trace.eps2.any() and not trace.res.any()

    def test_problem_file_input(self, tmp_path):
        from proxcert import CompositeProblem, QuadraticSmooth

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

    def test_problem_file_l_is_ignored(self, tmp_path):
        # a declared L, even one that is not positive, is not read: the run
        # takes the L computed from M
        from proxcert import QuadraticSmooth

        pfile = tmp_path / "problem.json"
        pfile.write_text('{"n": 1, "M": [1], "v": [1], "L": -1}')
        cfg = tmp_path / "p.ini"
        cfg.write_text(f"[problem]\nfile = {pfile}\n")
        out = tmp_path / "out"
        assert run_cli(["solve", "--config", str(cfg), "--out", str(out), "--iters", "5"]) == 0
        lipschitz = QuadraticSmooth(np.ones((1, 1)), np.ones(1)).lipschitz()
        assert read_summary(out)["lipschitz"] == lipschitz


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
            ("lasso", "", '{"n": 1, "M": [1], "v": [1]}'),  # lasso builds its own problem
            ("mpc", "", '{"n": 1, "M": [1], "v": [1]}'),  # so does mpc
            ("solve", "", '{"n": 2, "M": [1, NaN], "v": [1]}'),
            ("solve", "", '{"n": 1, "M": [1], "v": [1], "lambda": 1e999}'),
            ("solve", "", '{"n": 1, "M": [0], "v": [1]}'),  # computed L is 0
            ("solve", "", '{"n": 1, "M": [1e200], "v": [1]}'),  # computed L overflows
            ("solve", "", '{"n": 2, "M": [1e200, 1, 1, 1], "v": [1, 1]}'),  # Gram has no top
            ("solve", "", '{"n": 2.5, "M": [1, 2], "v": [1]}'),
            ("solve", "", '{"n": 0, "M": [], "v": []}'),
            ("solve", "", '{"n": -1, "M": [1], "v": [1]}'),
            ("solve", "[errors]\neps0 = -1\n", None),
            ("solve", "[errors]\ndelta = -1\n", None),
            ("solve", "[errors]\nsolver_tol = -1\n", None),
            ("solve", "[bounds]\ngamma = 0\n", None),
            ("verify", "[verify]\ntrials = 0\n", None),
            ("solve", "[run]\nseed = 1\n[run]\nseed = 2\n", None),
            ("solve", "[errors]\ndelta = nan\n", None),
            ("solve", "[bounds]\ngamma = nan\n", None),
            ("mpc", "[mpc]\nclosed_loop_steps = -1\n", None),
            ("solve", "[errors]\nformat = s8.4\ndelta = 1e-9\n", None),  # a quantized run measures delta
            ("solve", "[bounds]\nm_u = 1\n", None),  # keys this version no longer defines
            ("solve", "[errors]\ndirection = fixed\n", None),
            ("solve", "[bounds]\np = 0.5\n", None),
            ("solve", "[bounds]\neps2_mean = 1e-6\n", None),
            ("mpc", "[mpc]\nn_c = 2\n", None),
            ("verify", "[verify]\nk_max = 0\n", None),
            ("verify", "[verify]\ngammas = 1,x\n", None),
            ("verify", "[verify]\ngammas = ,\n", None),
            ("verify", "[verify]\ngammas = nan\n", None),
            ("solve", "[errors]\nprox_mode = exact\n", None),
            ("solve", "[solver]\nmomentum = fista\n", None),
            ("solve", "[solver]\nbacktracking = true\n", None),
            ("solve", "[solver]\neta = 0.5\n", None),
            ("solve", "[solver]\nstepsize = auto\n", None),
            ("solve", "[run]\nabstol = 0\n", None),
            ("quantize", "[quantize]\nformat = s8.4\n", None),
            ("quantize", "[errors]\nformat = s8.4\neps0 = -1\n", None),
            ("solve", "[run]\nseed = -1\n", None),
            ("verify", "[run]\nseed = -1\n", None),
            ("mpc", "[mpc]\nx0 = nan,0,0,0,0,0,0\n", None),
        ],
        ids=["truncated_json", "m_size_mismatch", "missing_n", "x0_not_numbers",
             "x0_wrong_dimension", "lasso_problem_file",
             "mpc_problem_file", "nan_in_m", "infinite_lambda",
             "zero_matrix", "overflowing_matrix", "overflowing_gram",
             "fractional_n", "zero_n", "negative_n",
             "negative_eps0", "negative_delta", "negative_solver_tol",
             "zero_gamma", "zero_trials", "duplicate_section",
             "nan_delta", "nan_gamma", "negative_closed_loop_steps",
             "format_with_delta",
             "removed_m_u", "removed_direction", "removed_p", "removed_eps2_mean",
             "removed_n_c", "zero_k_max", "gammas_not_numbers", "empty_gammas", "nan_gammas",
             "removed_prox_mode", "removed_momentum",
             "removed_backtracking", "removed_eta", "removed_stepsize", "removed_abstol",
             "removed_quantize_format",
             "quantize_negative_eps0", "negative_seed", "negative_verify_seed", "nan_x0"],
    )
    def test_bad_input_exits_2(self, tmp_path, capsys, command, ini, problem_json):
        if problem_json is not None:
            pfile = tmp_path / "problem.json"
            pfile.write_text(problem_json)
            ini = f"[problem]\nfile = {pfile}\n"
        cfg = tmp_path / "bad.ini"
        cfg.write_text(ini)
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        if problem_json in L_NAMED:
            assert f"L must be positive and finite, got {L_NAMED[problem_json]}\n" in err

    def test_removed_abstol_flag_exits_2(self, tmp_path, capsys):
        assert run_cli(["solve", "--abstol", "1e-6", "--out", str(tmp_path / "o")]) == 2
        assert "unrecognized arguments: --abstol" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("what", ["config", "problem_file", "stored_echo"])
    def test_file_not_utf8_exits_2(self, tmp_path, toy_config, capsys, what):
        # a file that is not UTF-8 is malformed, not a crash, and is reported
        # before the out directory is touched
        src, out, bad = tmp_path / "src", tmp_path / "o", tmp_path / "bad.ini"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(src)]) == 0
        out.mkdir()
        (out / "keep.txt").write_text("earlier run")
        args = ["solve", "--config", str(bad)]
        if what == "config":
            bad.write_bytes(b"[run]\nseed = \xff\n")
        elif what == "problem_file":
            (tmp_path / "problem.json").write_bytes(b'\xff\xfe{"n": 1, "M": [1], "v": [1]}')
            bad.write_text(f"[problem]\nfile = {tmp_path / 'problem.json'}\n")
        else:
            (src / "config_echo.ini").write_bytes(b"[run]\nseed = \xff\n")
            args = ["bounds", "--from", str(src)]
        capsys.readouterr()
        assert run_cli(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert ("invalid problem file" if what == "problem_file" else "malformed config") in err
        assert dir_bytes(out) == {"keep.txt": b"earlier run"}

    def test_rejected_config_leaves_out_untouched(self, tmp_path, toy_config):
        # every setting is checked before the out directory is changed
        out = tmp_path / "o"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(out)]) == 0
        before = dir_bytes(out)
        for command, ini in [
            ("solve", "[bounds]\ngamma = 0\n"),
            ("solve", "[run]\nstrict = maybe\n"),
            ("mpc", "[mpc]\nclosed_loop_steps = -1\n"),
            ("verify", "[verify]\ntrials = 0\n"),
            ("solve", "[errors]\nformat = s2000.1500\n"),  # wider than float64 can hold
            ("lasso", "[errors]\nformat = s1100.600\n"),
        ]:
            cfg = tmp_path / "bad.ini"
            cfg.write_text(ini)
            assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2, ini
            assert dir_bytes(out) == before, ini


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

    @pytest.mark.parametrize("text", ["s2000.1500", "s1100.600", "u65.8"])
    def test_too_wide_format_exits_2(self, capsys, text):
        assert run_cli(["quantize", "--format", text, "1.5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"config error: fixed-point format {text} is wider than 64 bits\n"

    def test_widest_format(self, capsys):
        assert run_cli(["quantize", "--format", "s64.60", "1.5", "inf"]) == 0
        assert "[-8, 8]" in capsys.readouterr().out

    def test_custom_values(self, capsys):
        assert run_cli(["quantize", "--format", "s8.4", "1.3"]) == 0
        assert "1.3125" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["s8.4", "u8.4"])
    def test_small_negative_input_prints_zero(self, capsys, text):
        assert run_cli(["quantize", "--format", text, "--", "-0.01", "-1e-300"]) == 0
        rows = capsys.readouterr().out.splitlines()[-2:]
        assert [row.split() for row in rows] == [["-0.01", "0"], ["-1e-300", "0"]]

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
        # an echo written before [bounds] m_u, p and eps2_mean, [quantize]
        # format, [errors] prox_mode and direction, [solver] momentum,
        # backtracking, eta and stepsize, [run] abstol, [mpc] n_c and [verify]
        # k_max and gammas were removed still loads, and gives the same
        # artifacts as a current one: the bounds take the step in trace.npz
        src = tmp_path / "src"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(src)]) == 0
        assert run_cli(["bounds", "--from", str(src), "--out", str(tmp_path / "new")]) == 0
        echo = (src / "config_echo.ini").read_text()
        added = {
            "bounds": "m_u = \np = 0.5\neps2_mean = 1e-3\n",
            "quantize": "format = \n",
            "errors": "prox_mode = exact\ndirection = fixed\n",
            "solver": "momentum = linear\nbacktracking = true\neta = 0.5\nstepsize = 0.005\n",
            "run": "abstol = 1e-6\n",
            "mpc": "n_c = 3\n",
            "verify": "k_max = 5\ngammas = 1\n",
        }
        for sec, lines in added.items():
            assert f"[{sec}]\n" in echo, sec
            echo = echo.replace(f"[{sec}]\n", f"[{sec}]\n{lines}")
        (src / "config_echo.ini").write_text(echo)
        assert run_cli(["bounds", "--from", str(src), "--out", str(tmp_path / "old")]) == 0
        old, new = tmp_path / "old", tmp_path / "new"
        assert sorted(os.listdir(old)) == sorted(os.listdir(new))
        for name in os.listdir(new):
            # the echo differs only in [run] out
            stored = (old / name).read_bytes().replace(bytes(old), bytes(new))
            assert stored == (new / name).read_bytes(), name

    def test_echo_with_format_and_delta_needs_delta_0(self, tmp_path, toy_config, capsys):
        # an echo that holds both [errors] format and delta > 0 (which an
        # earlier version accepted, and ignored for the run but not for the
        # bounds) exits 2, unless --delta 0 overrides it
        src = tmp_path / "src"
        assert run_cli(["solve", "--config", str(toy_config), "--format", "s8.4",
                        "--out", str(src)]) == 0
        echo = (src / "config_echo.ini").read_text()
        assert "\ndelta = 0\n" in echo
        (src / "config_echo.ini").write_text(echo.replace("\ndelta = 0\n", "\ndelta = 1e-9\n"))
        capsys.readouterr()
        assert run_cli(["bounds", "--from", str(src), "--out", str(tmp_path / "a")]) == 2
        assert "[errors] format and delta > 0 cannot both be set" in capsys.readouterr().err
        dst = tmp_path / "b"
        assert run_cli(["bounds", "--from", str(src), "--out", str(dst), "--delta", "0"]) == 0
        for name in ("trace.csv", "bounds.csv"):
            assert (dst / name).read_bytes() == (src / name).read_bytes(), name

    @pytest.mark.parametrize("ini, key", [("delta = 1e-9\n", "delta > 0"),
                                          ("grad_model = relative\n", "grad_model = relative")])
    def test_format_names_the_key_it_excludes(self, tmp_path, capsys, ini, key):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[errors]\nformat = s8.4\n" + ini)
        assert run_cli(["lasso", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (f"config error: [errors] format and {key} cannot both "
                                           "be set: a quantized run measures its own delta\n")

    def test_missing_run_dir(self, tmp_path):
        assert run_cli(["bounds", "--from", str(tmp_path / "empty"), "--out", str(tmp_path)]) == 2

    def test_out_holds_only_the_new_certification(self, tmp_path, toy_config):
        # an earlier mpc run's comparison.csv and closed_loop.csv do not
        # survive next to a solve run's certification
        old, src = tmp_path / "old", tmp_path / "src"
        loop = tmp_path / "loop.ini"
        loop.write_text("[mpc]\nclosed_loop_steps = 3\n")
        assert run_cli(["mpc", "--config", str(loop), "--iters", "20", "--out", str(old)]) == 0
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(src)]) == 0
        assert run_cli(["bounds", "--from", str(src), "--out", str(old)]) == 0
        assert sorted(os.listdir(old)) == sorted(os.listdir(src))

    @pytest.mark.parametrize("out", ["missing", "from_dir", "from_dir_dot"])
    def test_out_must_be_given_and_not_the_run(self, tmp_path, toy_config, capsys, out):
        # the run was made in run_a and moved; its echo still names run_a
        run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(run_a)]) == 0
        run_a.rename(run_b)
        before = dir_bytes(run_b)
        flags = {"missing": [], "from_dir": ["--out", str(run_b)],
                 "from_dir_dot": ["--out", str(run_b / ".")]}[out]
        capsys.readouterr()
        assert run_cli(["bounds", "--from", str(run_b)] + flags) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert dir_bytes(run_b) == before
        assert not run_a.exists()

    def test_problem_of_another_size_exits_2(self, tmp_path, toy_config, capsys):
        src, dst = tmp_path / "src", tmp_path / "dst"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(src)]) == 0
        other = tmp_path / "n30.ini"
        other.write_text("[lasso]\nn = 30\n")
        capsys.readouterr()
        args = ["bounds", "--from", str(src), "--out", str(dst), "--config", str(other)]
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not dst.exists()

    @pytest.mark.parametrize("case", ["replaced_file", "lasso_seed", "unchanged"])
    def test_only_the_solved_problem_recertifies(self, tmp_path, capsys, case):
        # the stored summary's problem_sha256 names the problem the run
        # solved; another one of the same size is a config error
        from proxcert import CompositeProblem, QuadraticSmooth

        src, dst, pfile = tmp_path / "src", tmp_path / "dst", tmp_path / "problem.json"
        rng = np.random.default_rng(1)

        def write_problem():
            quad = QuadraticSmooth(rng.standard_normal((8, 5)), rng.standard_normal(8), half=True)
            pfile.write_text(problem_to_json(CompositeProblem.from_quadratic(quad, 0.1)))

        run_ini, bounds_ini = tmp_path / "run.ini", tmp_path / "bounds.ini"
        if case == "lasso_seed":
            run_ini.write_text("[lasso]\nn = 20\nm = 50\nseed = 7\n")
            bounds_ini.write_text("[lasso]\nseed = 9\n")
        else:
            write_problem()
            run_ini.write_text(f"[problem]\nfile = {pfile}\n")
            bounds_ini.write_text("")
        args = ["--config", str(run_ini), "--iters", "30", "--out", str(src)]
        assert run_cli(["solve"] + args) == 0
        if case == "replaced_file":
            write_problem()
        dst.mkdir()
        (dst / "keep.txt").write_text("earlier run")
        capsys.readouterr()
        args = ["bounds", "--from", str(src), "--out", str(dst), "--config", str(bounds_ini)]
        if case == "unchanged":
            assert run_cli(args) == 0
            assert read_summary(dst)["problem_sha256"] == read_summary(src)["problem_sha256"]
            return
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert dir_bytes(dst) == {"keep.txt": b"earlier run"}

    def test_another_last_bit_of_l_recertifies(self, tmp_path, toy_config, monkeypatch):
        # L's eigensolve may move in its last bits with the BLAS thread
        # count; problem_sha256 covers the problem's data, not L
        from proxcert import QuadraticSmooth

        src, dst = tmp_path / "src", tmp_path / "dst"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(src)]) == 0
        real = QuadraticSmooth.lipschitz
        monkeypatch.setattr(QuadraticSmooth, "lipschitz",
                            lambda self: np.nextafter(real(self), np.inf))
        assert run_cli(["bounds", "--from", str(src), "--out", str(dst)]) == 0
        stored, recomputed = read_summary(src), read_summary(dst)
        assert recomputed["lipschitz"] == np.nextafter(stored["lipschitz"], np.inf)
        assert recomputed["problem_sha256"] == stored["problem_sha256"]

    def test_digest_with_l_appended_recertifies(self, tmp_path, toy_config):
        # a summary written while problem_sha256 also covered L, as a third
        # float64 after (lam, scale), still names the problem
        src, dst = tmp_path / "src", tmp_path / "dst"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(src)]) == 0
        problem = lasso_problem(gen_lasso(n=20, m=50, seed=7))
        quad = problem.smooth
        digest = hashlib.sha256(quad.mat.tobytes() + quad.vec.tobytes())
        digest.update(np.array([problem.reg.lam, 0.5 if quad.half else 1.0, problem.lipschitz]))
        summary = read_summary(src)
        assert summary["problem_sha256"] != digest.hexdigest()
        summary["problem_sha256"] = digest.hexdigest()
        (src / "summary.json").write_text(json.dumps(summary))
        assert run_cli(["bounds", "--from", str(src), "--out", str(dst)]) == 0
        assert (dst / "bounds.csv").read_bytes() == (src / "bounds.csv").read_bytes()

    def test_summary_not_an_object_exits_2(self, tmp_path, toy_config, capsys):
        src, dst = tmp_path / "src", tmp_path / "dst"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(src)]) == 0
        (src / "summary.json").write_text("[]")
        capsys.readouterr()
        assert run_cli(["bounds", "--from", str(src), "--out", str(dst)]) == 2
        assert "malformed summary.json" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize("stored, asked", [("basic", "accelerated"),
                                               ("accelerated", "basic")])
    def test_variant_other_than_the_trace_exits_2(self, tmp_path, toy_config, capsys,
                                                  stored, asked):
        # the stored trace fixes the variant (no ys: basic); an echo saying
        # otherwise would label one variant's bounds with the other's name
        src, dst = tmp_path / "src", tmp_path / "dst"
        run_ini, bounds_ini = tmp_path / "run.ini", tmp_path / "bounds.ini"
        run_ini.write_text(toy_config.read_text() + f"\n[solver]\nvariant = {stored}\n")
        bounds_ini.write_text(f"[solver]\nvariant = {asked}\n")
        assert run_cli(["solve", "--config", str(run_ini), "--out", str(src)]) == 0
        capsys.readouterr()
        args = ["bounds", "--from", str(src), "--out", str(dst), "--config", str(bounds_ini)]
        assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not dst.exists()

    @pytest.mark.parametrize("damage", ["garbage_bytes", "no_eps2"])
    def test_unreadable_trace_exits_2(self, tmp_path, toy_config, capsys, damage):
        src, dst = tmp_path / "src", tmp_path / "dst"
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(src)]) == 0
        trace = src / "trace.npz"
        if damage == "garbage_bytes":
            trace.write_bytes(b"not an npz archive")
        else:
            with np.load(trace) as data:
                kept = {k: data[k] for k in data.files if k != "eps2"}
            np.savez(trace, **kept)
        capsys.readouterr()
        assert run_cli(["bounds", "--from", str(src), "--out", str(dst)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not dst.exists()


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

    def test_run_into_a_verify_directory_drops_its_reports(self, tmp_path, toy_config):
        # a run's config echo says command = solve; verify's reports would
        # sit next to it as if that run had made them
        out = tmp_path / "v"
        run_cli(["verify", "--out", str(out), "--trials", "10", "--seed", "2"])
        assert (out / "report.json").exists() and (out / "report.txt").exists()
        assert run_cli(["solve", "--config", str(toy_config), "--out", str(out),
                        "--iters", "20"]) == 0
        assert not (out / "report.json").exists() and not (out / "report.txt").exists()

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
assert main(["lasso", "--delta", "1e-3", "--out", out + "/lasso", "--iters", "100"]) == 0
loaded.append("scipy" in sys.modules)
assert main(["verify", "--trials", "20", "--out", out + "/verify"]) == 0
loaded.append("scipy" in sys.modules)
print(loaded)
"""


class TestColdStart:
    def test_no_command_loads_scipy(self, tmp_path):
        # a fresh interpreter: exact, quantized and random-error commands
        # alike run without scipy, which only the tests use as an oracle
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", COLD_START, str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout.splitlines()[-1] == "[False, False, False, False]"

    def test_import_loads_no_orjson(self):
        # orjson decodes problem files; a process that decodes none skips it
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        code = "import sys, proxcert, proxcert.cli; print('orjson' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "False"
