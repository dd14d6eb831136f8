import numpy as np
import pytest
from click.testing import CliRunner

from fuvalkit.cli import load_problem, main, parse_eta_grid, parse_synthetic_spec
from fuvalkit.dataio import SyntheticMode


@pytest.fixture
def runner():
    return CliRunner()


class TestFlagParsing:
    def test_synthetic_spec(self):
        spec = parse_synthetic_spec("interp:n=100,d=10,seed=1")
        assert (spec.n, spec.d, spec.seed) == (100, 10, 1)
        assert spec.mode is SyntheticMode.INTERPOLATING

    def test_synthetic_spec_noisy_with_std(self):
        spec = parse_synthetic_spec("noisy:n=10,d=2,seed=3,std=0.25")
        assert spec.mode is SyntheticMode.NOISY_LEAST_SQUARES
        assert spec.noise_std == 0.25

    def test_synthetic_spec_bad_mode(self):
        import click

        with pytest.raises(click.BadParameter):
            parse_synthetic_spec("bogus:n=1,d=1")

    def test_eta_grid_logspace(self):
        grid = parse_eta_grid("logspace:1e-4,1e2,25")
        assert grid.size == 25
        assert grid[0] == pytest.approx(1e-4)
        assert grid[-1] == pytest.approx(1e2)

    def test_eta_grid_list(self):
        np.testing.assert_allclose(parse_eta_grid("0.1,0.5,1"), [0.1, 0.5, 1.0])


class TestGen:
    def test_gen_writes_parsable_file(self, runner, tmp_path):
        out = tmp_path / "data.svm"
        result = runner.invoke(main, ["gen", "--synthetic", "interp:n=12,d=4,seed=2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        from fuvalkit.dataio import parse_libsvm
        from fuvalkit.problems import LossKind

        problem = parse_libsvm(out.read_text(), loss_kind=LossKind.LEAST_SQUARES)
        assert problem.n == 12

    def test_gen_deterministic(self, runner, tmp_path):
        a, b = tmp_path / "a.svm", tmp_path / "b.svm"
        for out in (a, b):
            runner.invoke(main, ["gen", "--synthetic", "interp:n=5,d=3,seed=7", "--out", str(out)])
        assert a.read_text() == b.read_text()


class TestReference:
    def test_reference_caches_solution(self, runner, tmp_path):
        result = runner.invoke(
            main, ["reference", "--synthetic", "interp:n=10,d=3,seed=1", "--out", str(tmp_path)]
        )
        assert result.exit_code == 0, result.output
        assert list(tmp_path.glob("ref-*.npz"))


    def test_cache_keyed_by_exact_tolerance(self, runner, tmp_path):
        # 1.4e-3 and 1e-3 used to share one file name ("1e-03")
        synth = ["--synthetic", "logistic:n=20,d=3,seed=1"]
        runner.invoke(main, ["reference", *synth, "--tol", "1.4e-3", "--out", str(tmp_path)])
        result = runner.invoke(
            main,
            ["fit", *synth, "--method", "sgd", "--iterations", "5", "--out", str(tmp_path),
             "--solve-reference", "--ref-tol", "1e-3"],
        )
        assert result.exit_code == 0, result.output
        assert len(list(tmp_path.glob("ref-*.npz"))) == 2
        assert "reference_tol=0.001" in next(tmp_path.glob("sgd-*.meta")).read_text().split("\n")


class TestNonConvergedReference:
    """A reference that did not reach its tolerance is used, with a warning
    on stderr; fit records its state in the .meta sidecar."""

    SYNTH = "logistic:n=20,d=3,seed=1"

    def _save(self, path):
        from fuvalkit.bench import reference_solve
        from fuvalkit.cli import save_reference

        problem = load_problem(None, self.SYNTH, "logistic")
        ref = reference_solve(problem, tol=1e-10, max_iters=3)
        assert not ref.converged
        save_reference(ref, path)
        return ref

    def _assert_warned(self, result, ref):
        assert result.exit_code == 0, result.output
        assert "NOT converged" in result.stderr
        assert f"|g| = {ref.grad_norm_at_solution:.3g}" in result.stderr
        assert "tol 1e-10" in result.stderr

    def test_fit_warns_and_records_in_meta(self, runner, tmp_path):
        ref = self._save(tmp_path / "ref.npz")
        result = runner.invoke(
            main,
            ["fit", "--synthetic", self.SYNTH, "--method", "sgd", "--eta", "0.1", "--iterations", "20",
             "--out", str(tmp_path), "--reference", str(tmp_path / "ref.npz")],
        )
        self._assert_warned(result, ref)
        meta = next(tmp_path.glob("sgd-*.meta")).read_text().split("\n")
        assert "reference_converged=False" in meta
        assert f"reference_grad_norm={ref.grad_norm_at_solution:.17g}" in meta

    def test_grid_warns_for_a_reference_file(self, runner, tmp_path):
        ref = self._save(tmp_path / "ref.npz")
        result = runner.invoke(
            main,
            ["grid", "--synthetic", self.SYNTH, "--methods", "sgd", "--eta-grid", "0.1", "--iterations", "20",
             "--jobs", "1", "--out", str(tmp_path / "s.csv"), "--reference", str(tmp_path / "ref.npz")],
        )
        self._assert_warned(result, ref)

    def test_grid_warns_for_a_cached_reference(self, runner, tmp_path):
        from fuvalkit.cli import reference_cache_path

        problem = load_problem(None, self.SYNTH, "logistic")
        ref = self._save(reference_cache_path(problem, 1e-10, tmp_path))
        result = runner.invoke(
            main,
            ["grid", "--synthetic", self.SYNTH, "--methods", "sgd", "--eta-grid", "0.1", "--iterations", "20",
             "--jobs", "1", "--out", str(tmp_path / "s.csv")],
        )
        self._assert_warned(result, ref)

    def test_converged_reference_gives_no_warning(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["fit", "--synthetic", "interp:n=10,d=3,seed=1", "--method", "sgd", "--eta", "0.1",
             "--iterations", "20", "--out", str(tmp_path), "--solve-reference"],
        )
        assert result.exit_code == 0, result.output
        assert "warning" not in result.stderr
        assert "reference_converged=True" in next(tmp_path.glob("sgd-*.meta")).read_text()


class TestFit:
    def test_fit_writes_trace_and_meta(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "fit", "--synthetic", "interp:n=100,d=10,seed=1", "--method", "fuval",
                "--scheme", "uifv", "--eta", "0.5", "--epochs", "2", "--seed", "7",
                "--out", str(tmp_path), "--solve-reference",
            ],
        )
        assert result.exit_code == 0, result.output
        traces = list(tmp_path.glob("fuval-*.csv"))
        assert len(traces) == 1
        assert traces[0].with_suffix(".meta").exists()
        header = traces[0].read_text().split("\n", 1)[0]
        assert header == "t,sample,tau,f,subopt,grad_sq,stepsize"

    def test_missing_dataset_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["fit", "--data", "no-such-file.svm", "--method", "sgd", "--iterations", "10",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 2
        assert "--data" in result.output

    def test_sps_without_reference_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["fit", "--synthetic", "interp:n=10,d=3,seed=1", "--method", "sps",
             "--iterations", "10", "--out", str(tmp_path)],
        )
        assert result.exit_code == 2

    def test_both_problem_sources_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["fit", "--synthetic", "interp:n=10,d=3,seed=1", "--data", "x.svm",
             "--method", "sgd", "--iterations", "10", "--out", str(tmp_path)],
        )
        assert result.exit_code == 2

    def test_missing_length_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["fit", "--synthetic", "interp:n=10,d=3,seed=1", "--method", "sgd",
             "--out", str(tmp_path)],
        )
        assert result.exit_code == 2

    def test_divergent_run_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["fit", "--synthetic", "interp:n=10,d=3,seed=1", "--method", "gd",
             "--eta", "1e6", "--iterations", "300", "--out", str(tmp_path)],
        )
        assert result.exit_code == 3

    def test_fuvalkit_data_env_fallback(self, runner, tmp_path, monkeypatch):
        data_dir = tmp_path / "datasets"
        data_dir.mkdir()
        runner.invoke(main, ["gen", "--synthetic", "interp:n=8,d=3,seed=4", "--out", str(data_dir / "d.svm")])
        monkeypatch.setenv("FUVALKIT_DATA", str(data_dir))
        result = runner.invoke(
            main,
            ["fit", "--data", "d.svm", "--loss", "ls", "--method", "sgd", "--eta", "0.01",
             "--iterations", "10", "--out", str(tmp_path / "runs")],
        )
        assert result.exit_code == 0, result.output


FIT = ["fit", "--synthetic", "interp:n=10,d=3,seed=1", "--iterations", "10"]
GRID = ["grid", "--synthetic", "interp:n=10,d=3,seed=1", "--methods", "sgd", "--eta-grid", "0.1", "--jobs", "1"]


@pytest.mark.parametrize(
    "args",
    [
        FIT + ["--method", "sgd", "--eta", "-1"],
        FIT + ["--method", "gd", "--eta", "0"],
        FIT + ["--method", "fuval", "--eta", "-1"],
        *(FIT + ["--method", method, "--eta", "nan"] for method in ("sgd", "gd", "proxlin", "fuval")),
        FIT + ["--method", "sgd", "--eta", "inf"],
        FIT + ["--method", "fuval", "--penalty-c", "nan"],
        FIT + ["--method", "proxlin", "--penalty-c", "nan"],
        FIT + ["--method", "sgd", "--eval-every", "0"],
        ["fit", "--synthetic", "interp:n=10,d=3,seed=1", "--method", "sgd", "--iterations", "-5"],
        ["fit", "--synthetic", "interp:n=10,d=3,seed=1", "--method", "sgd", "--epochs", "-1"],
        GRID + ["--iterations", "-5"],
        GRID + ["--iterations", "5", "--seeds", "a"],
        GRID + ["--iterations", "5", "--seeds", ""],
        GRID + ["--iterations", "5", "--ref-tol", "nan"],
        FIT + ["--method", "sgd", "--solve-reference", "--ref-tol", "-1"],
        ["reference", "--synthetic", "interp:n=10,d=3,seed=1", "--tol", "nan"],
        ["reference", "--synthetic", "interp:n=10,d=3,seed=1", "--tol", "0"],
    ],
    ids=lambda args: " ".join(args[args.index("--synthetic") + 2:]),
)
def test_bad_input_exits_2_with_one_error_line(runner, tmp_path, args):
    out = str(tmp_path / "s.csv") if args[0] == "grid" else str(tmp_path)
    result = runner.invoke(main, args + ["--out", out])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    assert not list(tmp_path.rglob("*.npz"))  # no reference was solved or cached


class TestGrid:
    def test_grid_row_counts(self, runner, tmp_path):
        out = tmp_path / "sens.csv"
        result = runner.invoke(
            main,
            ["grid", "--synthetic", "interp:n=10,d=3,seed=1", "--methods", "gd,fuval-full",
             "--schemes", "naive,uifv,uigrad", "--eta-grid", "logspace:1e-3,1e0,4",
             "--iterations", "20", "--out", str(out), "--jobs", "1"],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().split("\n")
        # header + gd 4 + fuval-full 3 schemes x 4 etas
        assert len(lines) == 1 + 4 + 12

    def test_grid_rerun_identical(self, runner, tmp_path):
        args = [
            "grid", "--synthetic", "interp:n=10,d=3,seed=1", "--methods", "sgd",
            "--eta-grid", "0.001,0.01", "--iterations", "15", "--jobs", "1",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            result = runner.invoke(main, args + ["--out", str(out)])
            assert result.exit_code == 0, result.output

        def strip_seconds(text):
            return ["".join(line.rsplit(",", 1)[:1]) for line in text.strip().split("\n")]

        assert strip_seconds(out1.read_text()) == strip_seconds(out2.read_text())

    def test_run_length_exits_2(self, runner, tmp_path):
        # exactly one of --epochs and --iterations; grid_search checks it
        base = ["grid", "--synthetic", "interp:n=10,d=3,seed=1", "--methods", "gd,sgd",
                "--eta-grid", "0.1", "--jobs", "2", "--seeds", "0,1", "--out", str(tmp_path / "s.csv")]
        for length in ([], ["--epochs", "1", "--iterations", "5"]):
            result = runner.invoke(main, base + length)
            assert result.exit_code == 2
            assert "exactly one of iterations or epochs" in result.output
            assert not (tmp_path / "s.csv").exists()

    def test_unknown_family_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["grid", "--synthetic", "interp:n=10,d=3,seed=1", "--methods", "sps",
             "--eta-grid", "0.1", "--iterations", "5", "--out", str(tmp_path / "s.csv")],
        )
        assert result.exit_code == 2


class TestVerify:
    def test_unknown_suite_exits_2(self, runner):
        result = runner.invoke(main, ["verify", "nope"])
        assert result.exit_code == 2

    def test_equivalence_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "equivalence"])
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 3
        assert "FAIL" not in result.output


class TestHelp:
    def test_help_lists_subcommands(self, runner):
        result = runner.invoke(main, ["--help"])
        for sub in ("gen", "reference", "fit", "grid", "verify"):
            assert sub in result.output

    def test_fit_help_lists_flags_with_defaults(self, runner):
        result = runner.invoke(main, ["fit", "--help"])
        for flag in ("--eta", "--scheme", "--penalty-c", "--eval-every", "--seed"):
            assert flag in result.output
        assert "default" in result.output
