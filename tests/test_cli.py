import dataclasses
import functools
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import cnops
from cnops import cli, cnormal, operators
from cnops.cli import CSV_HEADER, main, run_sweep, sample_case
from cnops.cnormal import STANDARD_TRUNCATIONS, CaseId
from cnops.conjugations import JMu, JWp
from cnops.moebius import LinearFractionalMap
from reference import rescaled


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_weighted_jmu_true(self, capsys):
        code, out, _ = run_main(capsys, [
            "classify", "--map", "0.5,0.25,0.25,1", "--conj", "jmu:-1", "--weighted"])
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_comp_jmu_dilation_true(self, capsys):
        code, out, _ = run_main(capsys, [
            "classify", "--map", "1,0,0,2", "--conj", "jmu:1"])
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_comp_jw_false(self, capsys):
        code, out, _ = run_main(capsys, [
            "classify", "--map", "0.5,0.25,0.25,1", "--conj", "jw:0.4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] is False
        assert payload["case"] == "comp_jw"

    @pytest.mark.parametrize("argv", [
        ["classify", "--map", "1,2,3", "--conj", "jmu:1"],
        ["classify", "--map", "1,0,0,x", "--conj", "jmu:1"],
        ["classify", "--map", "1,0,0,2", "--conj", "jmu:0.5"],
        ["classify", "--map", "1,0,0,2", "--conj", "what:1"],
        ["classify", "--map", "1,2,2,4", "--conj", "jmu:1"],
        ["classify", "--map", "1,0,0,2", "--conj", "jmu:1", "--weighted", "--beta", "0"],
        ["classify", "--map", "2,0,0,1", "--conj", "jmu:1"],
    ])
    def test_bad_input_exits_2(self, capsys, argv):
        code, _, err = run_main(capsys, argv)
        assert code == 2
        assert "error:" in err

    def test_missing_flag_exits_2(self, capsys):
        assert main(["classify", "--map", "1,0,0,2"]) == 2

    def test_non_self_map_exits_2(self, capsys):
        # phi(z) = 2z: C_phi is not even bounded on H^2, so there is no verdict
        code, out, err = run_main(capsys, [
            "classify", "--map", "2,0,0,1", "--conj", "jmu:1"])
        assert code == 2 and out == ""
        assert "error:" in err and "self-map" in err


class TestVerify:
    def test_normal_dilation(self, capsys):
        code, out, _ = run_main(capsys, [
            "verify", "--map", "0.7,0,0,1", "--conj", "jmu:1i", "--trunc", "32,64"])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is True
        assert report["kernel_residual"] < 1e-12
        assert set(report) >= {"verdict", "kernel_residual", "matrix_residuals",
                               "params", "grid", "warnings"}

    def test_hermitian_solved_p(self, capsys):
        # p solving the Hermitian condition for a0 = 0.3, a1 = 0.2
        p = repr(2 * 0.3 * 1.11 / (1 - 0.11 ** 2))
        code, out, _ = run_main(capsys, [
            "verify", "--map", "0.11,0.3,-0.3,1", "--conj", f"jw:{p}",
            "--weighted", "--trunc", "32,64"])
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_false_case_still_consistent(self, capsys):
        code, out, _ = run_main(capsys, [
            "verify", "--map", "0.5,0.25,0.25,1", "--conj", "jw:0.4",
            "--trunc", "32,64"])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is False and report["consistent"] is True

    @pytest.mark.parametrize("conj,weighted,verdict", [
        ("jmu:1", False, True), ("jw:0.4", False, False),
        ("jmu:1", True, True), ("jw:0.4", True, False),
    ])
    def test_subnormal_c_is_no_contradiction(self, capsys, conj, weighted, verdict):
        # phi(z) = 1i z / (1.1e-308i z + 1.5 + 1.5i) is a self-map, all but
        # affine; its power series is taken without dividing by c
        argv = ["verify", "--map", "1i,0,0+1.1125369292536007e-308i,1.5+1.5i",
                "--conj", conj, "--trunc", "32,64"] + ["--weighted"] * weighted
        code, out, err = run_main(capsys, argv)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["verdict"] is verdict and report["consistent"] is True

    def test_csv_format(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _, _ = run_main(capsys, [
            "verify", "--map", "0.7,0,0,1", "--conj", "jmu:1", "--trunc", "32",
            "--format", "csv", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("0,comp_jmu,true,")

    def test_contradiction_exits_1(self, capsys, monkeypatch):
        # mutate the predicate so the oracle disagrees with the verdict
        import cnops.cnormal as cn

        monkeypatch.setattr(cn, "case_predicate", lambda case, m, conj: False)
        code, _, _ = run_main(capsys, [
            "verify", "--map", "0.7,0,0,1", "--conj", "jmu:1", "--trunc", "32"])
        assert code == 1

    def test_small_beta_is_not_a_contradiction(self, capsys):
        code, out, _ = run_main(capsys, [
            "verify", "--map", "0.5,0.3,0.1,1", "--conj", "jmu:1", "--weighted",
            "--beta", "1e-5"])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] is False and report["consistent"] is True

    @pytest.mark.parametrize("beta", ["1e150", "1e-150", "1e154", "1e-160"])
    def test_extreme_beta_is_not_a_contradiction(self, capsys, beta):
        # both residuals scale as |beta|^2; 1e154 once overflowed the kernel
        # residual to nan and 1e-160 underflowed the thresholds to 0
        code, out, err = run_main(capsys, [
            "verify", "--map", "0.99,0,0,1", "--conj", "jmu:1", "--weighted",
            "--beta", beta, "--format", "csv"])
        assert code == 0 and err == ""
        row = out.splitlines()[1].split(",")
        assert row[2] == "true" and row[5] == "true"
        assert all(np.isfinite(float(x)) for x in row[3:5])

    @pytest.mark.parametrize("coeffs", ["5e99,0,0,1e100", "5e-151,0,0,1e-150"])
    def test_extreme_map_scale_is_not_a_contradiction(self, capsys, coeffs):
        # phi(z) = z/2; |ad - bc|^2 once overflowed at the first scale and
        # underflowed to 0 at the second
        code, out, err = run_main(capsys, ["verify", "--map", coeffs, "--conj", "jmu:1i"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["verdict"] is True and report["consistent"] is True

    @pytest.mark.parametrize("command", ["verify", "classify"])
    def test_map_whose_squared_scale_overflows_is_valid(self, capsys, command):
        # phi(z) = z/2; the constructor's scale ** 2 once overflowed (exit 2)
        code, out, err = run_main(capsys, [
            command, "--map", "1e200,0,0,2e200", "--conj", "jmu:1i"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["verdict"] is True
        assert command == "classify" or report["consistent"] is True

    def test_rescaled_true_draw_is_no_contradiction(self):
        # at a scale of 1e-160 the squared coefficients are subnormal: the
        # margin once read 4.9e-4, a false verdict and an inconsistent report
        m, conj, beta = sample_case(CaseId.WEIGHTED_JMU, np.random.default_rng([11, 4]), 4)
        report = cnormal.verify(CaseId.WEIGHTED_JMU, rescaled(m, 1e-160), conj, beta)
        assert report.verdict is True and report.consistent is True

    def test_kept_block_that_grows_with_n_is_no_contradiction(self, capsys):
        # seed-42 weighted_jmu draw 46, a true real-symmetric automorphism: at
        # N = 16, 32 its kept block grows from 4 to 9 rows and the residual
        # from 1.03e-4 to 1.16e-4; on the 4 rows both share it falls to 1.8e-13
        code, out, err = run_main(capsys, [
            "verify", "--map", "1,-0.39049142547478044+0.2702811794631007i,"
            "-0.39049142547478044-0.2702811794631007i,1",
            "--conj", "jmu:-0.30048661680630945-0.9537860310993751i", "--weighted",
            "--trunc", "16,32"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["verdict"] is True and report["consistent"] is True
        assert report["matrix_keep"] == [[16, 4], [32, 9]]

    def test_params_map_echoes_the_stored_coefficients(self, capsys):
        # the map is stored divided by the power of two nearest its scale, 4
        code, out, _ = run_main(capsys, ["verify", "--map", "2,0,0,4", "--conj", "jmu:1i"])
        assert code == 0
        assert json.loads(out)["params"]["map"] == [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0],
                                                    [1.0, 0.0]]

    def test_overflowing_residual_is_json_null(self, capsys):
        # at beta = 1.3e154 the residuals, reported times s^2, exceed the float
        # range; JSON has no Infinity, so they are written as null with a warning
        argv = ["verify", "--map", "0.1,0.05,0.8,1", "--conj", "jmu:1", "--weighted",
                "--beta", "1.3e154"]
        code, out, _ = run_main(capsys, argv)
        assert code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(out, parse_constant=reject)
        assert report["verdict"] is False and report["consistent"] is True
        assert report["kernel_residual"] is None
        assert all(r is None for _, r in report["matrix_residuals"])
        assert report["warnings"] == [
            "kernel_residual: non-finite value written as null",
            "matrix_residuals: non-finite value written as null"]
        code, out, _ = run_main(capsys, argv + ["--format", "csv"])
        assert code == 0 and out.splitlines()[1].split(",")[3:5] == ["inf", "inf"]

    @pytest.mark.parametrize("command", ["verify", "classify"])
    @pytest.mark.parametrize("beta", ["1e300", "1e-300"])
    def test_beta_whose_square_is_not_a_float_exits_2(self, capsys, command, beta):
        code, out, err = run_main(capsys, [
            command, "--map", "0.99,0,0,1", "--conj", "jmu:1", "--weighted",
            "--beta", beta])
        assert code == 2 and out == ""
        assert "error:" in err and "beta" in err

    def test_bad_map_exits_2(self, capsys):
        code, _, _ = run_main(capsys, [
            "verify", "--map", "2,0,0,1", "--conj", "jmu:1"])
        assert code == 2

    @pytest.mark.parametrize("target", ["directory", "missing_dir"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        out = tmp_path if target == "directory" else tmp_path / "missing" / "x.json"
        code, stdout, err = run_main(capsys, [
            "verify", "--map", "0.7,0,0,1", "--conj", "jmu:1", "--trunc", "32",
            "--out", str(out)])
        assert code == 2 and stdout == ""
        assert "error:" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_trunc_exits_2(self, capsys):
        code, _, err = run_main(capsys, [
            "verify", "--map", "0.7,0,0,1", "--conj", "jmu:1", "--trunc", "32,x"])
        assert code == 2 and "--trunc" in err

    @pytest.mark.parametrize("trunc", ["0,32", "6"])
    def test_small_truncation_exits_2(self, capsys, trunc):
        code, _, err = run_main(capsys, [
            "verify", "--map", "0.7,0,0,1", "--conj", "jmu:1", "--trunc", trunc])
        assert code == 2
        assert "error:" in err and "at least 8" in err

    @pytest.mark.parametrize("argv,bound", [
        (["verify", "--map", "1,0,0,1", "--conj", "jw:0.5", "--trunc", "32,4097"], "4096"),
        (["verify", "--map", "1,0,0,1", "--conj", "jmu:1", "--grid", "513"], "512"),
        (["sweep", "--conj", "jmu", "--samples", "1", "--grid", "513"], "512"),
    ])
    def test_oversized_truncation_or_grid_exits_2(self, capsys, argv, bound):
        # rejected before anything of that size is allocated
        code, out, err = run_main(capsys, argv)
        assert code == 2 and out == ""
        assert "error:" in err and f"at most {bound}" in err

    @pytest.mark.parametrize("argv", [["--conj", "jmu:1"], ["--conj", "jw:0.3"],
                                      ["--conj", "jmu:1", "--weighted"],
                                      ["--conj", "jw:0.3", "--weighted"]],
                             ids=["jmu", "jw", "jmu-weighted", "jw-weighted"])
    def test_near_constant_map_verifies(self, capsys, argv):
        # |a| = |c| = 1e-8 of the scale: the split point conj(c/a) = 1 is off
        # the grid
        code, out, err = run_main(capsys, ["verify", "--map", "1e-8,0.5,1e-8,1", *argv])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["verdict"] is False and report["consistent"] is True
        assert report["margin"] > 1e-3


# each command with the library call that does its computing
COMPUTE_STEPS = {
    "classify": (cnormal, "case_predicate",
                 ["classify", "--map", "0.7,0,0,1", "--conj", "jmu:1"]),
    "verify": (cli, "verify",
               ["verify", "--map", "0.7,0,0,1", "--conj", "jmu:1", "--trunc", "32"]),
    "sweep": (cli, "verify",
              ["sweep", "--conj", "jmu", "--samples", "2", "--trunc", "32"]),
}


class TestMain:
    @pytest.mark.parametrize("command", list(COMPUTE_STEPS))
    @pytest.mark.parametrize("error,code", [(ZeroDivisionError, 2), (OverflowError, 2)])
    def test_one_exit_code_map(self, capsys, monkeypatch, command, error, code):
        # arithmetic failures, which are not ValueErrors, exit 2 as bad input does
        module, name, argv = COMPUTE_STEPS[command]

        def boom(*args, **kwargs):
            raise error("synthetic")

        monkeypatch.setattr(module, name, boom)
        assert run_main(capsys, argv) == (code, "", "error: synthetic\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["verify", "--map", "0.7,0,0,1", "--conj", "jmu:1i", "--trunc", "32"],
        ["sweep", "--conj", "jw", "--samples", "4", "--seed", "3", "--trunc", "32"],
    ])
    def test_stdout_and_out_file_have_the_same_bytes(self, capsys, monkeypatch,
                                                     tmp_path, argv, fmt):
        # verify's JSON report carries its wall-clock time, so zero it
        real_verify = cli.verify
        monkeypatch.setattr(cli, "verify", lambda *args, **kwargs: dataclasses.replace(
            real_verify(*args, **kwargs), timing_s=0.0))
        out_path = tmp_path / f"out.{fmt}"
        argv = argv + ["--format", fmt]
        code, out, _ = run_main(capsys, argv)
        assert code == 0 and main(argv + ["--out", str(out_path)]) == 0
        assert out.encode() == out_path.read_bytes()
        assert out.endswith("\n") and not out.endswith("\n\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "--map", "0.7,0,0,1", "--conj", "jmu:1i", "--trunc", "32"],
        ["sweep", "--conj", "jw", "--samples", "4", "--seed", "3", "--trunc", "32"],
    ])
    def test_failed_write_exits_2(self, capsys, tmp_path, argv):
        # the directory is writable, so only the write itself fails: a file
        # name of 300 bytes is longer than common file systems allow
        out_path = tmp_path / ("x" * 300)
        code, out, err = run_main(capsys, argv + ["--out", str(out_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_module_entry_point(self, capsys):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(cnops.__file__)),
             os.environ.get("PYTHONPATH", "")])}

        def run(argv):
            return subprocess.run([sys.executable, "-m", "cnops.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=120)

        argv = ["verify", "--map", "0.7,0,0,1", "--conj", "jmu:1i", "--trunc", "32",
                "--format", "csv"]
        proc = run(argv)
        assert proc.returncode == 0 and proc.stderr == ""
        assert (proc.returncode, proc.stdout, proc.stderr) == run_main(capsys, argv)
        proc = run(["verify", "--map", "2,0,0,1", "--conj", "jmu:1"])
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "self-map" in proc.stderr


class TestParser:
    @pytest.mark.parametrize("argv", [
        ["verify", "--map", "0.7,0,0,1", "--conj", "jmu:1"],
        ["sweep", "--conj", "jmu"],
    ])
    def test_oracle_defaults_are_the_library_defaults(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert args.grid_n == cnormal.GRID_N
        assert args.truncations == STANDARD_TRUNCATIONS
        for fn in (cnormal.verify, run_sweep):
            params = inspect.signature(fn).parameters
            assert params["grid_n"].default == cnormal.GRID_N
            assert params["truncations"].default == STANDARD_TRUNCATIONS
        assert inspect.signature(cnormal.kernel_residual).parameters[
            "grid_n"].default == cnormal.GRID_N

    def test_trunc_parses_to_sizes(self):
        args = cli.build_parser().parse_args([
            "sweep", "--conj", "jw", "--trunc", "64,32"])
        assert args.truncations == (64, 32)


class TestSweepSampling:
    @pytest.mark.parametrize("case", list(CaseId))
    def test_samples_are_valid(self, case):
        from cnops.moebius import lft_is_self_map

        seeds = np.random.SeedSequence(7).spawn(20)
        for i, s in enumerate(seeds):
            m, conj, beta = sample_case(case, np.random.default_rng(s), i)
            assert lft_is_self_map(m)
            assert abs(abs(beta) - 1.0) < 1e-12

    @pytest.mark.parametrize("case", list(CaseId))
    def test_even_odd_margin_split(self, case):
        seeds = np.random.SeedSequence(11).spawn(30)
        for i, s in enumerate(seeds):
            m, conj, _ = sample_case(case, np.random.default_rng(s), i)
            margin = cli.predicate_margin(case, m, conj)
            if i % 2 == 0:
                assert margin <= 1e-12
            else:
                assert margin >= 1e-3


class TestSweep:
    def test_comp_jmu_small_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_main(capsys, [
            "sweep", "--conj", "jmu", "--samples", "24", "--seed", "42",
            "--trunc", "32", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 26   # header + 24 rows + agreement line
        assert lines[-1].startswith("# agreement_rate=1.0")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_determinism(self, capsys, tmp_path, fmt):
        p1, p2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        for p in (p1, p2):
            code, _, _ = run_main(capsys, [
                "sweep", "--conj", "jw", "--samples", "10", "--seed", "3",
                "--trunc", "32", "--format", fmt, "--out", str(p)])
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_weighted_jw_hermitian_rows_true(self, capsys, tmp_path):
        # constructed (even-index) rows of the weighted JW sweep are all true
        reports, agreement = run_sweep(CaseId.WEIGHTED_JW, 16, 5,
                                       truncations=(32,))
        assert agreement == 1.0
        assert all(reports[i].verdict for i in range(0, 16, 2))
        assert not any(reports[i].verdict for i in range(1, 16, 2))

    @pytest.mark.parametrize("case", list(CaseId))
    def test_margin_is_the_reports(self, case):
        reports, _ = run_sweep(case, 4, 9, truncations=(32,))
        seeds = np.random.SeedSequence(9).spawn(4)
        for i, r in enumerate(reports):
            m, conj, _ = sample_case(case, np.random.default_rng(seeds[i]), i)
            assert r.margin == cnormal.predicate_margin(case, m, conj)

    @pytest.mark.parametrize("beta", ["5", "0"])
    def test_beta_is_rejected(self, capsys, beta):
        # the weighted samplers draw their own beta, so sweep takes no --beta
        code, _, err = run_main(capsys, [
            "sweep", "--conj", "jmu", "--weighted", "--samples", "3",
            "--trunc", "32", "--beta", beta])
        assert code == 2
        assert "--beta" in err

    def test_zero_samples_exits_2(self, capsys, tmp_path):
        out_path = tmp_path / "never.csv"
        code, _, err = run_main(capsys, [
            "sweep", "--conj", "jmu", "--samples", "0", "--out", str(out_path)])
        assert code == 2
        assert not out_path.exists()

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "rows.csv"
        code, _, err = run_main(capsys, [
            "sweep", "--conj", "jmu", "--samples", "2", "--out", str(target)])
        assert code == 2
        assert not target.exists()

    def test_json_format(self, capsys):
        code, out, _ = run_main(capsys, [
            "sweep", "--conj", "jmu", "--samples", "4", "--trunc", "32",
            "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["agreement_rate"] == 1.0
        assert len(payload["rows"]) == 4
        assert payload["rows"][2]["sample"] == 2

    @pytest.mark.parametrize("case", list(CaseId))
    def test_json_rows_are_the_reports(self, capsys, case):
        # a row is its report's fields without timing_s, plus its sample index
        argv = ["sweep", "--conj", case.value.split("_")[1], "--samples", "4",
                "--trunc", "32", "--format", "json"]
        code, out, _ = run_main(capsys, argv + ["--weighted"] * case.weighted)
        assert code == 0
        fields = {f.name for f in dataclasses.fields(cnormal.VerificationReport)}
        rows = json.loads(out)["rows"]
        assert [r["case"] for r in rows] == [case.value] * 4
        assert all(set(r) == fields - {"timing_s"} | {"sample"} for r in rows)

    def test_non_finite_json_is_null(self):
        # sweep JSON rows go through the same writer as verify's report
        report = cnormal.VerificationReport(
            case="comp_jmu", verdict=False, kernel_residual=float("nan"),
            matrix_residuals=[(32, 0.5)], matrix_keep=[(32, 16)], params={}, grid={},
            margin=float("inf"))
        payload = json.loads(cli.sweep_json([report], 1.0),
                             parse_constant=lambda c: pytest.fail(f"{c} in JSON"))
        row = payload["rows"][0]
        assert row["kernel_residual"] is None and row["margin"] is None
        assert row["matrix_residuals"] == [[32, 0.5]]
        assert row["warnings"] == ["kernel_residual: non-finite value written as null",
                                   "margin: non-finite value written as null"]
        assert report.warnings == []

    def test_fixed_conjugation_parameter(self, capsys):
        code, out, _ = run_main(capsys, [
            "sweep", "--conj", "jmu:-1", "--samples", "4", "--trunc", "32",
            "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert all(r["params"]["conjugation"]["mu"] == [-1.0, 0.0]
                   for r in payload["rows"])


# sha256 of the rows "sample,verdict,consistent,margin" of run_sweep(case, 48, 42)
SWEEP_48_SEED_42 = {
    CaseId.COMP_JMU: "95dc3eacda5c0c4504754043ac3f99fc68df486cfea6f798b08626d2ad6adb43",
    CaseId.COMP_JW: "e3f094ee2eca341e2bed0b0c0433a411a28017a4788eef665abad212fd0224b7",
    CaseId.WEIGHTED_JMU: "4fbe98b4ba5f8e9b7a089b6d83943565aa8abda66b415ec956fa29475d702177",
    CaseId.WEIGHTED_JW: "741f27119867b278198ac94fd080a4b9e1380221078bc4763acc60ef89ca9020",
}


# sha256 of the kernel_residual column of run_sweep(case, 48, 42), one value
# a line: 0 at <= 1e-12, else 6 significant digits
KERNEL_48_SEED_42 = {
    CaseId.COMP_JMU: "f8ead4f125f98556354dda0e2ba1fa75dc6db937594d3cb8fe6d24bfb21e8e8e",
    CaseId.COMP_JW: "392ec01d539a44d57970782d5ff8706b964d17344afc3d6434a69d2946d1c523",
    CaseId.WEIGHTED_JMU: "ea60ca0adf45855d05fa9dd34da4ba00d45d0e36dfe765323bf61eae8bf4832b",
    CaseId.WEIGHTED_JW: "be19acee430659a9a2a74f7b5716738582b05ae1234e7e60b167affd351233a1",
}


@functools.cache
def sweep_48(case: CaseId):
    return run_sweep(case, 48, 42)


def sweep_rows(case: CaseId) -> str:
    """The seeded sweep without its residual columns, whose last bits depend
    on BLAS and libm; the margin has 8 significant digits, or is 0 at <= 1e-9."""
    reports, _ = sweep_48(case)
    rows = []
    for i, r in enumerate(reports):
        margin = "0" if r.margin <= 1e-9 else f"{r.margin:.8g}"
        rows.append(f"{i},{str(r.verdict).lower()},{str(r.consistent).lower()},{margin}")
    return "\n".join(rows)


@pytest.mark.parametrize("case", list(CaseId))
def test_seeded_sweep_is_pinned(case):
    # a changed sampler draw, verdict or consistency flag changes the digest
    rows = sweep_rows(case)
    assert hashlib.sha256(rows.encode()).hexdigest() == SWEEP_48_SEED_42[case], rows


@pytest.mark.parametrize("case", list(CaseId))
def test_seeded_kernel_residuals_are_pinned(case):
    # true rows sit at rounding level (<= 1.4e-14) and false rows at >= 0.14, so
    # a change of the kernel oracle beyond rounding changes the digest
    reports, _ = sweep_48(case)
    rows = "\n".join("0" if r.kernel_residual <= 1e-12 else f"{r.kernel_residual:.6g}"
                     for r in reports)
    assert hashlib.sha256(rows.encode()).hexdigest() == KERNEL_48_SEED_42[case], rows


# --------------------------------------------------------------------------
# every package function has a caller
# --------------------------------------------------------------------------

# Module-level functions of cnops that neither the commands nor the builders
# the benchmark's layer probe calls reach, each with its reason to stay.
UNREACHED = {
    # the benchmark's excluded_pair_fraction metric reads the weighted sides
    # (the composition sides are cnormal._sides, which verify reaches); they
    # go with that metric
    "cnormal.eval_sides_weighted_jmu",
    "cnormal.eval_sides_weighted_jw",
}


def test_every_package_function_is_reached(tmp_path, capsys):
    # a function only tests call is a reference and belongs in tests/reference.py
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    m = LinearFractionalMap(0.5, 0.25, 0.25, 1)
    sys.setprofile(profile)
    try:
        for conj in ("jmu", "jw"):
            for weighted in ([], ["--weighted"]):
                main(["sweep", "--conj", conj, *weighted, "--samples", "8", "--trunc", "8,16",
                      "--format", "json", "--out", str(tmp_path / "sweep.json")])
        main(["sweep", "--conj", "jw", "--samples", "1", "--trunc", "8",
              "--out", str(tmp_path / "sweep.csv")])   # sweep_csv
        main(["verify", "--map", "0.5,0.25,0.25,1", "--conj", "jmu:-1", "--weighted",
              "--trunc", "8,16", "--out", str(tmp_path / "verify.json")])
        main(["classify", "--map", "0.5,0.25,0.25,1", "--conj", "jw:0.4"])
        # the builders bench/layers.py probes, which verify does not call
        psi = operators.canonical_weight_series(m, 1.0, 16)
        T = operators.weighted_composition_matrix(psi, m, 16)
        for C in (JMu(-1), JWp(0.4)):
            operators.cnormal_residual_matrix(T, operators.conjugation_operator(C, 16), 4)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    missed = set()
    for info in pkgutil.iter_modules(cnops.__path__):
        module = importlib.import_module(f"cnops.{info.name}")
        missed.update(f"{info.name}.{name}" for name, fn in vars(module).items()
                      if inspect.isfunction(fn) and fn.__module__ == module.__name__
                      and fn.__code__ not in reached)
    unexplained = sorted(missed - UNREACHED)
    assert not unexplained, f"nothing in cnops calls {unexplained}"
    assert sorted(UNREACHED - missed) == [], "reached now: drop them from UNREACHED"
