import importlib.metadata
import importlib.util
import json
import os
import re
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from nonsmooth import solvers
from nonsmooth.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

# The wrapper pip writes for a ``module:attr`` console script.
CONSOLE_SCRIPT = """\
#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def declared_script(name):
    """The ``module:attr`` that ``[project.scripts]`` in pyproject.toml gives *name*."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def can_build_wheel():
    """Whether pip can build this project offline without build isolation.

    setuptools reads ``[project]`` from 61 on; before 70.1 it builds wheels
    only through the separate ``wheel`` package.
    """
    try:
        version = importlib.metadata.version("setuptools")
    except importlib.metadata.PackageNotFoundError:
        return False
    m = re.match(r"(\d+)\.(\d+)", version)
    major_minor = (int(m[1]), int(m[2])) if m else (0, 0)
    if major_minor < (61, 0):
        return False
    return importlib.util.find_spec("wheel") is not None or major_minor >= (70, 1)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_inline_expression(self, capsys):
        code, out, _ = run_cli(["eval", "--expr", "(abs (var 0))", "--point", "-3"], capsys)
        assert code == 0
        assert float(out.strip()) == 3.0

    def test_expression_file(self, tmp_path, capsys):
        p = tmp_path / "model.sexp"
        p.write_text(
            "(max (affine (1 1) 0) (affine (1 -1) 0) (affine (-2 1) 0) (affine (-2 -1) 0))"
        )
        code, out, _ = run_cli(["eval", "--expr", str(p), "--point", "1,1"], capsys)
        assert code == 0
        assert float(out.strip()) == 2.0


class TestSubdiff:
    def test_frechet_of_neg_abs_is_empty_json(self, tmp_path, capsys):
        p = tmp_path / "neg_abs.sexp"
        p.write_text("(scale -1 (abs (var 0)))")
        code, out, err = run_cli(
            ["subdiff", "--expr", str(p), "--point", "0", "--which", "frechet"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "frechet"
        assert payload["set"] == {"components": []}
        assert "empty set" in err

    def test_clarke_json_has_vertices(self, capsys):
        code, out, _ = run_cli(
            ["subdiff", "--expr", "(abs (var 0))", "--point", "0", "--which", "clarke"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["set"]["vertices"] == [[-1.0], [1.0]]

    def test_sampled_clarke(self, capsys):
        code, out, _ = run_cli(
            [
                "subdiff",
                "--expr",
                "(builtin xsqsin (var 0))",
                "--point",
                "0",
                "--which",
                "clarke",
                "--sampled",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exactness"] == "sampled"

    def test_sampled_defaults_are_gradient_sampling_defaults(self, capsys):
        from nonsmooth import as_gradient_oracle, gradient_sampling, parse_expr

        expr = "(abs (var 0))"
        code, out, _ = run_cli(["subdiff", "--sampled", "--which", "clarke", "--expr", expr, "--point", "0.01"], capsys)
        assert code == 0
        want = gradient_sampling(as_gradient_oracle(parse_expr(expr)), [0.01]).to_json()
        assert json.loads(out) == json.loads(json.dumps(want))


class TestClassify:
    def test_f2_json(self, capsys):
        expr = "(max (affine (-1) -1) (min (affine (-1) 0) (const 0)))"
        code, out, _ = run_cli(["classify", "--expr", expr, "--point", "0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_C"] is True
        assert payload["is_l"] is True
        assert payload["is_d"] is False

    @pytest.mark.parametrize(
        "expr,point",
        [
            ("(max (affine (0) 1e-12) (var 0) (scale -1 (var 0)))", "0"),
            ("(max (affine (0 0) 1e-12) (var 0) (scale -1 (var 0)))", "0,0"),
        ],
    )
    def test_near_tie_with_a_constant(self, expr, point, capsys):
        # only the constant is active: f is constant near 0
        code, out, _ = run_cli(["classify", "--expr", expr, "--point", point], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["is_C"], payload["is_l"], payload["is_d"]) == (True, True, True)

    def test_1d_general_tree_gets_a_descending_witness(self, capsys):
        # -|x| + x^4 is GENERAL: only the d-flag is exact, and its witness
        # is checked by dir_deriv, which answers every 1-D tree
        expr = "(sum (scale -1 (abs (var 0))) (sq (sq (var 0))))"
        code, out, err = run_cli(["classify", "--expr", expr, "--point", "0"], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert (payload["is_C"], payload["is_l"], payload["is_d"]) == (None, None, False)
        (w,) = payload["witness_direction"]
        assert payload["witness_value"] == -1.0
        assert -abs(w / 64) + (w / 64) ** 4 < 0.0  # f(t w) < f(0) for small t


class TestSolve:
    def test_subgrad_with_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            [
                "solve",
                "--method",
                "subgrad",
                "--expr",
                "(abs (var 0))",
                "--x0",
                "1",
                "--schedule",
                "diminishing:1",
                "--iters",
                "50",
                "--trace",
                str(trace),
            ],
            capsys,
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,f,step,dist_ref,wall_ms"
        # |x| from 1 hits the kink exactly after one unit step and the
        # Sign(0) = 0 rule stops the method there
        assert len(lines) == 3
        assert lines[-1].split(",")[1] == "0.0"
        assert "np.float64" not in out

    def test_mm_on_lspar(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--method", "mm", "--problem", "lspar", "--N", "10", "--seed", "1"],
            capsys,
        )
        assert code == 0
        assert "d-stationary" in out
        assert "np.float64" not in out

    def test_mm_reports_its_outer_iterations(self, capsys):
        # this run accepts 76 steps and then stalls until the budget is spent
        code, out, _ = run_cli(["solve", "--method", "mm", "--problem", "lspar", "--N", "10", "--seed", "2"], capsys)
        assert code == 0
        assert out.startswith(f"mm: MAX_ITER after {solvers.MM_MAX_OUTER} outer iterations,"), out

    @pytest.mark.parametrize("method", ["mm", "subgrad"])
    def test_lspar_defaults_are_N_10_sigma_0_1_seed_42(self, method, capsys):
        base = ["solve", "--method", method, "--problem", "lspar"]
        base += ["--iters", "30"] if method == "subgrad" else []
        explicit = ["--N", "10", "--sigma", "0.1", "--seed", "42"]
        outs = [run_cli(base + extra, capsys)[1] for extra in ([], explicit)]
        assert outs[0] == outs[1] and outs[0].startswith(f"{method}: ")

    @pytest.mark.parametrize(
        "args",
        [
            ["--method", "subgrad", "--problem", "lspar", "--N", "10", "--iters", "20"],
            ["--method", "proj-subgrad", "--expr", "(abs (var 0))", "--x0", "0.5", "--box", "0 1"],
        ],
    )
    def test_solve_prints_plain_floats(self, args, capsys):
        code, out, _ = run_cli(["solve", *args], capsys)
        assert code == 0
        assert "f=" in out and "np.float64" not in out


class TestGallery:
    def test_gallery_passes(self, capsys):
        code, out, _ = run_cli(["gallery"], capsys)
        assert code == 0
        assert "12/12 examples passed" in out


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nonsmooth.cli", "eval", "--nope", "x"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nonsmooth.cli"], capture_output=True
        )
        assert proc.returncode == 2

    def test_python_dash_m_runs_the_cli(self):
        proc = subprocess.run([sys.executable, "-m", "nonsmooth", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: nonsmooth")

    E2 = "(max (var 0) (var 1))"
    PROJ = ["solve", "--method", "proj-subgrad", "--expr", E2, "--x0", "0.5 0.5", "--iters", "5"]
    SAMPLED = ["subdiff", "--sampled", "--which", "clarke", "--expr", "(abs (var 0))", "--point", "0"]
    SUBGRAD = ["solve", "--method", "subgrad", "--expr", "(abs (var 0))", "--x0", "1"]
    PROJ_BOX = ["solve", "--method", "proj-subgrad", "--expr", "(abs (var 0))", "--x0", "1", "--box", "0 2"]
    LSPAR_SMALL = ["experiment", "lspar", "--set", "trials=1", "--set", "subgrad_iters=5"]

    @pytest.mark.parametrize(
        "args, says",
        [
            (["eval", "--expr", "(max (var 0)", "--point", "1,2"], "line 1, column"),
            (["eval", "--expr", E2, "--point", ""], "empty point"),
            (["eval", "--expr", E2, "--point", "1"], "out of range"),
            (["eval", "--expr", E2, "--point", "1,abc"], "'1,abc'"),
            (["subdiff", "--expr", E2, "--point", "1", "--which", "clarke"], "out of range"),
            (["classify", "--expr", "(abs (var 0)", "--point", "0"], "line 1, column"),
            (["classify", "--expr", E2, "--point", ""], "empty point"),
            (["solve", "--method", "subgrad", "--expr", E2, "--x0", ""], "empty point"),
            (["solve", "--method", "subgrad", "--expr", E2, "--x0", "1,1", "--schedule", "bogus:1"],
             "unknown --schedule kind 'bogus'"),
            (["solve", "--method", "subgrad", "--expr", E2, "--x0", "1,1", "--schedule", "geometric:1"],
             "bad --schedule 'geometric:1'"),
            (["solve", "--method", "subgrad", "--expr", E2, "--x0", "1,1", "--schedule", "constant:-1"],
             "must be positive"),
            (["solve", "--method", "subgrad", "--problem", "lspar", "--schedule", "constant:x"],
             "bad --schedule 'constant:x'"),
            (["experiment", "lspar", "--set", "trials=abc"], "'abc'"),
            (["experiment", "recovery", "--set", "n"], "expected key=value"),
            (["solve", "--method", "mm"], "--method mm needs --problem lspar"),
            (["solve", "--method", "subgrad"], "needs --expr and --x0"),
            (PROJ + ["--box", "0 0 1"], "--box needs as many hi as lo values"),
            (PROJ + ["--box", "0 1 0 0"], "invalid box bounds"),  # lo 1 > hi 0
            (PROJ + ["--ball", "0 0 -1"], "ball radius must be >= 0"),
            (PROJ + ["--ball", "1"], "--ball needs a center and a radius"),
            (PROJ + ["--box", "0 1"], "dimension 1 but --x0 has 2"),
            (PROJ + ["--ball", "0 0 0 1"], "dimension 3 but --x0 has 2"),
            (["experiment", "lspar", "--set", "trials=0"], "trials >= 1"),
            (["experiment", "lspar", "--set", "N_list=10,0"], "every N >= 1"),
            (["experiment", "recovery", "--set", "n=abc"], "'abc'"),
            (["experiment", "recovery", "--set", "n=1,2"], "bad config value"),
            (["experiment", "recovery", "--set", "kind=bogus"], "kind in"),
            (["experiment", "recovery", "--set", "outlier_frac=2"], "0 <= outlier_frac <= 1"),
            (["experiment", "recovery", "--set", "alpha0=-1"], "alpha0 > 0"),
            (["classify", "--expr", "(abs (var 0))", "--point", "0", "--tol", "-1"], "tol must be >= 0"),
            (["classify", "--expr", "(abs (var 0))", "--point", "0", "--tol", "nan"], "tol must be >= 0"),
            (SAMPLED + ["--radius", "-1"], "--radius must be positive and finite, got -1.0"),
            (SAMPLED + ["--radius", "0"], "--radius must be positive and finite, got 0.0"),
            (SAMPLED + ["--radius", "nan"], "--radius must be positive and finite, got nan"),
            (SAMPLED + ["--radius", "inf"], "--radius must be positive and finite, got inf"),
            (PROJ + ["--ball", "0 0 nan"], "ball radius must be >= 0 and finite, got nan"),
            (PROJ + ["--ball", "0 0 inf"], "ball radius must be >= 0 and finite, got inf"),
            (PROJ + ["--ball", "nan 0 1"], "ball center must be finite, got [nan, 0.0]"),
            (["solve", "--method", "proj-subgrad", "--expr", "(abs (var 0))", "--x0", "3", "--box", "nan 1"],
             "bad --box: box bounds must not be NaN"),
            (["solve", "--method", "proj-subgrad", "--problem", "lspar"], "proj-subgrad does not read --problem"),
            (["solve", "--method", "subgrad", "--problem", "lspar", "--expr", E2, "--x0", "1,1"],
             "--method subgrad --problem lspar does not read --expr, --x0"),
            (["solve", "--method", "subgrad", "--expr", E2, "--x0", "1,1", "--box", "0 0 1 1"],
             "--method subgrad does not read --box"),
            (["solve", "--method", "subgrad", "--expr", E2, "--x0", "1,1", "--ball", "0 0 1"],
             "--method subgrad does not read --ball"),
            (["solve", "--method", "mm", "--problem", "lspar", "--iters", "1"],
             "--method mm --problem lspar does not read --iters"),
            (["solve", "--method", "mm", "--problem", "lspar", "--schedule", "bogus:1"],
             "--method mm --problem lspar does not read --schedule"),
            (["solve", "--method", "subgrad", "--expr", "(abs (var 0))", "--x0", "1", "--N", "5", "--seed", "9",
              "--sigma", "3", "--iters", "3"], "--method subgrad does not read --N, --sigma, --seed"),
            (PROJ + ["--box", "0 0 1 1", "--seed", "1"], "--method proj-subgrad does not read --seed"),
            (["solve", "--method", "mm", "--problem", "lspar", "--N", "0"], "--N must be >= 1, got 0"),
            (["solve", "--method", "subgrad", "--problem", "lspar", "--N", "-3"], "--N must be >= 1, got -3"),
            (["solve", "--method", "mm", "--problem", "lspar", "--sigma", "nan"],
             "--sigma must be finite and >= 0, got nan"),
            (["solve", "--method", "mm", "--problem", "lspar", "--sigma", "-1"],
             "--sigma must be finite and >= 0, got -1.0"),
            (["solve", "--method", "subgrad", "--problem", "lspar", "--sigma", "inf"],
             "--sigma must be finite and >= 0, got inf"),
            (["experiment", "lspar", "--set", "noise_sigma=-1"], "a finite noise_sigma >= 0"),
            (["experiment", "lspar", "--set", "noise_sigma=nan"], "a finite noise_sigma >= 0"),
            (["experiment", "lspar", "--set", "trials=2", "--set", "N_list=10,10"], "distinct N in N_list"),
            (["experiment", "recovery", "--set", "warm_start=nan"], "a finite warm_start >= 0"),
            (["experiment", "recovery", "--set", "warm_start=inf"], "a finite warm_start >= 0"),
            (["experiment", "recovery", "--set", "alpha0=inf"], "a finite alpha0 > 0"),
            # the config keys are the dataclass fields, typed by their annotations
            (LSPAR_SMALL + ["--set", "trails=1"], "unknown config key 'trails'"),
            (["experiment", "recovery", "--set", "itres=3"], "unknown config key 'itres'"),
            (["experiment", "recovery", "--set", "iters=2.7"], "'2.7'"),
            (["experiment", "recovery", "--set", "iters=true"], "'true'"),
            (["experiment", "recovery", "--set", "iters=1e3"], "'1e3'"),
            (["experiment", "recovery", "--set", "alpha0=true"], "'true'"),
            (["experiment", "recovery", "--set", "out_dir=x"], "unknown config key 'out_dir'"),
            (SUBGRAD + ["--iters", "0"], "bad --iters 0: max_iter must be >= 1"),
            (PROJ_BOX + ["--iters", "-5"], "bad --iters -5: max_iter must be >= 1"),
            (["solve", "--method", "subgrad", "--problem", "lspar", "--iters", "0"],
             "bad --iters 0: max_iter must be >= 1"),
            (SUBGRAD + ["--schedule", "constant:inf"], "bad --schedule 'constant:inf'"),
            (SUBGRAD + ["--schedule", "diminishing:nan"], "bad --schedule 'diminishing:nan'"),
            (SUBGRAD + ["--schedule", "geometric:inf,0.5"], "bad --schedule 'geometric:inf,0.5'"),
            (SUBGRAD + ["--schedule", "polyak:nan"], "bad --schedule 'polyak:nan'"),
            (SUBGRAD + ["--schedule", "polyak:0,inf"], "bad --schedule 'polyak:0,inf'"),
            (["subdiff", "--sampled", "--which", "bouligand", "--expr", "(abs (var 0))", "--point", "0"],
             "sampled mode supports --which clarke only"),
            (["experiment", "recovery", "--set", "n=1,2"], "bad config value for n: "),
            (["experiment", "recovery", "--set", "iters=2.7"], "bad config value for iters: "),
            # --seed and --radius are --sampled options
            (["subdiff", "--which", "frechet", "--expr", "(abs (var 0))", "--point", "0", "--radius", "5",
              "--seed", "3"], "exact --which frechet does not read --seed or --radius"),
            (["subdiff", "--which", "clarke", "--expr", "(abs (var 0))", "--point", "0", "--seed", "42"],
             "exact --which clarke does not read --seed or --radius"),
            (["subdiff", "--which", "bouligand", "--expr", "(abs (var 0))", "--point", "0", "--radius", "0.1"],
             "exact --which bouligand does not read --seed or --radius"),
            (["classify", "--expr", "(abs (var 0))", "--point", "0", "--tol", "inf"],
             "bad --tol inf: tol must be >= 0 and finite, got inf"),
        ],
    )
    def test_malformed_input_exits_2_with_one_line(self, capsys, args, says):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and says in err, err
        assert err.startswith(f"nonsmooth: {args[0]}: "), err

    def test_file_errors_exit_2_with_one_line_naming_the_path(self, tmp_path, capsys, monkeypatch):
        from nonsmooth import experiments

        def refuse(*args, **kwargs):
            raise AssertionError("the experiment ran before its --out was made")

        monkeypatch.setattr(experiments, "tune_subgrad_coefficient", refuse)
        monkeypatch.setattr(experiments, "gen_robust_instance", refuse)
        (tmp_path / "file").write_text("")
        missing, under_file = str(tmp_path / "missing" / "x"), str(tmp_path / "file" / "out")
        for args, path in [
            (["eval", "--expr", missing, "--point", "0"], missing),
            (["experiment", "recovery", "--config", missing], missing),
            (self.SUBGRAD + ["--iters", "3", "--trace", missing], missing),
            (["experiment", "recovery", "--out", under_file], under_file),
            (self.LSPAR_SMALL + ["--out", under_file], under_file),
        ]:
            code, out, err = run_cli(args, capsys)
            assert code == 2, args
            assert out == "", args  # --trace is opened before the solver runs
            assert err.count("\n") == 1 and err.startswith(f"nonsmooth: {args[0]}: "), err
            assert repr(path) in err, err

    @pytest.mark.parametrize("which", ["clarke", "bouligand", "frechet", "limiting"])
    @pytest.mark.parametrize(
        "expr, point, frag",
        [
            ("(builtin xsqsin (sum (var 0) (var 1)))", "0 0", "GENERAL tree in dimension 2"),
            ("(builtin xsinlog (var 0))", "0", "SMOOTH1D tree in dimension 1"),
        ],
    )
    def test_exact_subdiff_outside_its_fragment_exits_2(self, capsys, which, expr, point, frag):
        # outside the exact fragment, or with no one-sided derivative at x
        code, out, err = run_cli(["subdiff", "--which", which, "--expr", expr, "--point", point], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("nonsmooth: subdiff: "), err
        assert frag in err and "--sampled --which clarke" in err, err

    def test_entry_point_installed(self, tmp_path):
        module, _, attr = declared_script("nonsmooth").partition(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        script = bin_dir / "nonsmooth"
        script.write_text(CONSOLE_SCRIPT.format(python=sys.executable, module=module, attr=attr))
        script.chmod(0o755)
        path = str(bin_dir) + os.pathsep + os.environ.get("PATH", os.defpath)
        proc = subprocess.run(
            ["nonsmooth", "--help"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: nonsmooth")

    @pytest.mark.skipif(
        not can_build_wheel(),
        reason="offline wheel build needs setuptools>=70.1, or setuptools>=61 with wheel",
    )
    def test_entry_point_pip_install(self, tmp_path):
        prefix = str(tmp_path / "prefix")
        install = subprocess.run(
            [
                sys.executable, "-m", "pip", "install",
                "--no-index", "--no-deps", "--no-build-isolation", "--no-cache-dir",
                "--prefix", prefix, str(REPO_ROOT),
            ],
            capture_output=True,
            text=True,
        )
        assert install.returncode == 0, install.stderr
        paths = sysconfig.get_paths(
            sysconfig.get_preferred_scheme("prefix"),
            vars={"base": prefix, "platbase": prefix},
        )
        proc = subprocess.run(
            [os.path.join(paths["scripts"], "nonsmooth"), "--help"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=paths["purelib"]),
        )
        assert proc.returncode == 0, proc.stderr


class TestCapExits:
    """A cap refusal exits 3 with one stderr line naming the cap and the way
    around it."""

    def check(self, args, capsys, cap, fix):
        code, out, err = run_cli(args, capsys)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith(f"nonsmooth: {cap} reached")
        assert fix in err

    def test_selection_cap(self, capsys):
        # 13 abs kinks at one point: 2^13 selections, over the 4096 cap
        expr = "(sum" + " (abs (var 0))" * 13 + ")"
        self.check(
            ["subdiff", "--expr", expr, "--point", "0", "--which", "bouligand"],
            capsys,
            "selection cap",
            "perturb the point",
        )

    def test_dimension_cap(self, capsys):
        # a sampled Clarke set in dimension 5 needs a 5-D hull
        expr = "(max (affine (1 1 1 1 1) 0) (affine (1 -1 1 -1 1) 0))"
        self.check(
            ["subdiff", "--expr", expr, "--point", "0,0,0,0,0", "--which", "clarke", "--sampled"],
            capsys,
            "dimension cap",
            "lower the dimension",
        )

    def test_exact_clarke_dimension_cap(self, capsys):
        # the exact Bouligand and Clarke sets stop at dimension 4, and the
        # message names the set asked for
        expr = "(max (affine (1 1 1 1 1) 0) (affine (1 -1 1 -1 1) 0))"
        for which in ("clarke", "bouligand"):
            self.check(
                ["subdiff", "--expr", expr, "--point", "0,0,0,0,0", "--which", which],
                capsys,
                "dimension cap",
                f"({which} supports dim <= 4); lower the dimension",
            )

    def test_exact_frechet_dimension_cap(self, capsys):
        # the exact Frechet and limiting sets stop at dimension 3, and the
        # refusal is a cap, as Bouligand's and Clarke's are
        expr = "(max (affine (1 1 1 1) 0) (affine (1 -1 1 -1) 0))"
        for which in ("frechet", "limiting"):
            self.check(
                ["subdiff", "--expr", expr, "--point", "0,0,0,0", "--which", which],
                capsys,
                "dimension cap",
                f"({which} supports dim <= 3); lower the dimension",
            )

    def test_tie_cap(self, monkeypatch, capsys):
        from nonsmooth import solvers
        from nonsmooth.stationarity import TooManyTiesError

        def refuse(*args, **kwargs):
            raise TooManyTiesError("TOO_MANY_TIES: 4097+ branch selections; perturb W")

        monkeypatch.setattr(solvers, "lspar_d_stationarity_check", refuse)
        self.check(
            ["solve", "--method", "mm", "--problem", "lspar", "--N", "10", "--seed", "1"],
            capsys,
            "tie cap",
            "perturb W",
        )


class TestExperimentCommand:
    def test_small_lspar_run(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "experiment",
                "lspar",
                "--out",
                str(tmp_path),
                "--set",
                "trials = 4",
                "--set",
                "N_list = 10",
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "trials.csv").exists()
        assert "N=10" in out

    def test_lspar_run_reports_the_tuning(self, capsys):
        code, out, _ = run_cli(
            ["experiment", "lspar", "--set", "trials=1", "--set", "N_list=10,50", "--set", "subgrad_iters=50"],
            capsys,
        )
        assert code == 0
        lines = [line for line in out.splitlines() if "step tuning" in line]
        assert [line.split(":")[0] for line in lines] == ["N=10", "N=50"]
        for line in lines:
            assert all(f"c={c:g} " in line for c in (0.1, 1.0, 10.0)), line
        assert lines[0].startswith("N=10: step tuning picked c=10 (")
        assert lines[0].endswith(", an end of the grid")

    def test_recovery_run(self, capsys):
        code, out, _ = run_cli(
            [
                "experiment",
                "recovery",
                "--set",
                "kind = sign",
                "--set",
                "n = 4",
                "--set",
                "m = 16",
                "--set",
                "iters = 100",
            ],
            capsys,
        )
        assert code == 0
        assert "final distance" in out


def test_every_option_is_read():
    """An option whose dest ``cli.py`` never reads, as ``args.<dest>`` or
    as a name in ``_cmd_solve``'s ``flags``, does nothing."""
    import argparse
    import ast

    from nonsmooth import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    reads = {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
    }
    solve = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_cmd_solve")
    flags = next(
        n.value
        for n in ast.walk(solve)
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) == "flags" for t in n.targets)
    )
    reads |= {c.value for c in flags.elts}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    unread = [
        f"{command} {a.option_strings or a.dest}"
        for command, parser in sub.choices.items()
        for a in parser._actions
        if not isinstance(a, argparse._HelpAction) and a.dest not in reads
    ]
    assert unread == []
