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

    E2 = "(max (var 0) (var 1))"
    PROJ = ["solve", "--method", "proj-subgrad", "--expr", E2, "--x0", "0.5 0.5", "--iters", "5"]
    SAMPLED = ["subdiff", "--sampled", "--which", "clarke", "--expr", "(abs (var 0))", "--point", "0"]

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
        ],
    )
    def test_malformed_input_exits_2_with_one_line(self, capsys, args, says):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and says in err, err

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
