import csv

import numpy as np
import pytest

from nonsmooth.experiments import (
    LSPAR_TRUE_W,
    ROBUST_KINDS,
    LsparExperimentConfig,
    RecoveryConfig,
    fit_log_linear,
    gen_lspar_data,
    gen_robust_instance,
    orbit_distance,
    parse_config,
    robust_objective,
    robust_subgrad_oracle,
    run_lspar_experiment,
    run_recovery_experiment,
    run_single_lspar_trial,
)
from nonsmooth.rng import make_rng


class TestLsparData:
    def test_noiseless_residuals_vanish(self):
        ds = gen_lspar_data(10, 0.0, seed=1)
        model = (ds.X @ LSPAR_TRUE_W).max(axis=1)
        assert np.array_equal(ds.y, model)

    def test_regeneration_is_bit_identical(self):
        a = gen_lspar_data(10, 0.1, seed=42)
        b = gen_lspar_data(10, 0.1, seed=42)
        assert a.X.tobytes() == b.X.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_noise_std_in_expected_band(self):
        ds = gen_lspar_data(100, 0.1, seed=7)
        resid = ds.y - (ds.X @ LSPAR_TRUE_W).max(axis=1)
        assert 0.07 <= float(resid.std()) <= 0.13

    def test_points_in_unit_square(self):
        ds = gen_lspar_data(50, 0.0, seed=3)
        assert np.all(np.abs(ds.X) <= 1.0)


class TestRobustOracles:
    def test_sign_retrieval_scalar_example(self):
        # n=1, a=1, b=1, x=2: (2/1) * 2 * Sign(4-1) * 1 = 4, validated by a
        # finite difference of the objective
        inst = gen_robust_instance("sign", 1, 1, 0.0, seed=1)
        inst = type(inst)(
            A=np.array([[1.0]]),
            b=np.array([1.0]),
            x_star=inst.x_star,
            outlier_mask=inst.outlier_mask,
            seed=1,
        )
        g = robust_subgrad_oracle(inst, [2.0])
        assert g[0] == pytest.approx(4.0, abs=1e-12)
        h = 1e-7
        fd = (robust_objective(inst, [2.0 + h]) - robust_objective(inst, [2.0 - h])) / (2 * h)
        assert fd == pytest.approx(4.0, abs=1e-5)

    def test_matrix_recovery_zero_residual(self):
        inst = gen_robust_instance("matrix", 3, 12, 0.0, seed=2, r=1)
        g = robust_subgrad_oracle(inst, inst.U_star)
        assert np.allclose(g, 0.0, atol=1e-12)  # Sign(0) -> 0 on zero residuals

    def test_blind_deconv_unit_example(self):
        inst = gen_robust_instance("blinddeconv", 1, 1, 0.0, seed=3)
        inst = type(inst)(
            A=np.array([[1.0]]),
            C=np.array([[1.0]]),
            b=np.array([0.0]),
            w_star=inst.w_star,
            x_star=inst.x_star,
            outlier_mask=inst.outlier_mask,
            seed=3,
        )
        g = robust_subgrad_oracle(inst, [1.0, 1.0])
        assert np.allclose(g, [1.0, 1.0], atol=1e-12)
        h = 1e-7
        for i in range(2):
            p = np.array([1.0, 1.0])
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            fd = (robust_objective(inst, pp) - robust_objective(inst, pm)) / (2 * h)
            assert fd == pytest.approx(g[i], abs=1e-5)

    @pytest.mark.parametrize("kind", ["sign", "amplitude", "blinddeconv", "logsum"])
    def test_oracle_matches_fd_at_generic_points(self, kind):
        inst = gen_robust_instance(kind, 4, 20, 0.1, seed=11)
        rng = make_rng(13)
        dim = 8 if kind == "blinddeconv" else 4
        checked = 0
        for _ in range(100):
            x = rng.standard_normal(dim)
            g = robust_subgrad_oracle(inst, x)
            gn = float(np.linalg.norm(g))
            if gn < 1e-9:
                continue
            d = g / gn
            h = 1e-7
            f1 = robust_objective(inst, x + h * d)
            f2 = robust_objective(inst, x - h * d)
            fd = (f1 - f2) / (2 * h)
            # at non-kink points the directional derivative matches <g, d>
            if abs(fd - float(g @ d)) > 1e-5 * max(1.0, abs(fd)):
                continue  # crossed a kink inside the stencil; skip
            checked += 1
        assert checked >= 85

    def test_non_outlier_measurements_exact(self):
        inst = gen_robust_instance("sign", 5, 40, 0.25, seed=21)
        clean = (inst.A @ inst.x_star) ** 2
        assert np.allclose(inst.b[~inst.outlier_mask], clean[~inst.outlier_mask])
        assert int(inst.outlier_mask.sum()) == 10

    def test_orbit_distance_sign_symmetry(self):
        inst = gen_robust_instance("sign", 5, 40, 0.0, seed=22)
        assert orbit_distance(inst, inst.x_star) == 0.0
        assert orbit_distance(inst, -inst.x_star) == 0.0


class TestLsparExperiment:
    def test_row_count_and_attribution(self, tmp_path):
        cfg = LsparExperimentConfig(
            N_list=(10,), trials=12, root_seed=5, out_dir=str(tmp_path)
        )
        summary = run_lspar_experiment(cfg)
        with open(tmp_path / "trials.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == 12 * 2 * 1  # trials x methods x |N list|
        wins = summary["per_N"][10]["wins"]
        assert wins["mm"] + wins["subgrad"] == 12
        assert (tmp_path / "fig5.svg").exists()
        assert (tmp_path / "fig6.svg").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_process_pool_writes_the_same_trials(self, tmp_path):
        # jobs = 2 splits the trials into two lockstep blocks in two workers
        rows = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_lspar_experiment(
                LsparExperimentConfig(N_list=(10,), trials=6, root_seed=4, out_dir=str(out), jobs=jobs)
            )
            with open(out / "trials.csv") as fh:
                rows[jobs] = [r[:-1] for r in csv.reader(fh)]  # wall_ms aside
        assert rows[1][0][-1] == "cert" and len(rows[1]) == 1 + 6 * 2
        assert rows[2] == rows[1]

    def test_single_noiseless_trial_interpolates(self):
        # a seeded noiseless instance where MM reaches the interpolating
        # global minimum (frozen seed; the model class realizes the data)
        recs = run_single_lspar_trial((10, 0, 123, 0.0, 1.0, 1500))
        mm = [r for r in recs if r.method == "mm"][0]
        assert mm.final_f <= 1e-8

    def test_trial_rows_reproducible_in_isolation(self):
        summary = run_lspar_experiment(LsparExperimentConfig(N_list=(10,), trials=6, root_seed=9))
        recs = summary["records"]
        # re-running one trial standalone reproduces its batch rows exactly
        again = run_single_lspar_trial((10, 3, 9, 0.1, summary["tuned_subgrad_c"]["10"], 1500))
        batch = [r for r in recs if r.trial == 3]
        for a, b in zip(again, batch):
            assert a.final_f == b.final_f
            assert a.best_f == b.best_f
            assert a.seed == b.seed
            assert a.iters == b.iters


class TestRecovery:
    def test_exact_init_no_outliers_stays_put(self):
        out = run_recovery_experiment(
            RecoveryConfig(kind="sign", n=6, m=48, outlier_frac=0.0, warm_start=0.0, iters=50)
        )
        assert out["final_distance"] <= 1e-12

    def test_sign_retrieval_linear_convergence(self):
        out = run_recovery_experiment(RecoveryConfig())
        assert out["final_distance"] <= 1e-3
        assert out["slope"] < 0
        assert out["r_squared"] >= 0.8

    def test_blind_deconv_best_distance_decreases(self):
        out = run_recovery_experiment(
            RecoveryConfig(kind="blinddeconv", n=4, m=32, outlier_frac=0.1, iters=1500)
        )
        best = np.minimum.accumulate(out["distances"])
        assert np.all(np.diff(best) <= 0 + 1e-15)
        assert best[-1] < best[0]

    def test_m_too_small_rejected(self):
        with pytest.raises(ValueError):
            run_recovery_experiment(RecoveryConfig(n=10, m=20))

    def test_csv_written(self, tmp_path):
        run_recovery_experiment(
            RecoveryConfig(kind="sign", n=4, m=16, outlier_frac=0.0, iters=20, out_dir=str(tmp_path))
        )
        assert (tmp_path / "recovery.csv").exists()


class TestConfigChecks:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("trials", 0),
            ("N_list", ()),
            ("N_list", (10, 0)),
            ("subgrad_iters", 0),
            ("jobs", 0),
        ],
    )
    def test_lspar_config_rejects(self, field, value):
        with pytest.raises(ValueError, match="LsparExperimentConfig needs"):
            LsparExperimentConfig(**{field: value})

    def test_lspar_config_edges_are_valid(self):
        LsparExperimentConfig(N_list=(1,), trials=1, subgrad_iters=1, jobs=1)
        LsparExperimentConfig(trials=8, jobs=1)  # the benchmark's configuration

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", "bogus"),
            ("n", 0),
            ("m", 0),
            ("m", 39),  # sign retrieval needs m >= 4 n = 40
            ("outlier_frac", -0.1),
            ("outlier_frac", 1.5),
            ("outlier_frac", float("nan")),
            ("alpha0", 0.0),
            ("q", 1.0),
            ("iters", 0),
            ("r", 0),
        ],
    )
    def test_recovery_config_rejects(self, field, value):
        with pytest.raises(ValueError, match="RecoveryConfig needs"):
            RecoveryConfig(**{"n": 10, field: value})

    @pytest.mark.parametrize("kind", ROBUST_KINDS)
    def test_recovery_kinds_are_the_generators(self, kind):
        cfg = RecoveryConfig(kind=kind, outlier_frac=1.0)
        assert gen_robust_instance(kind, cfg.n, cfg.m, cfg.outlier_frac, cfg.seed) is not None

    def test_generator_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown instance kind 'bogus'"):
            gen_robust_instance("bogus", 2, 8, 0.0, seed=1)


class TestConfigParser:
    def test_basic_types(self):
        cfg = parse_config("trials = 5\nnoise_sigma = 0.1\nkind = sign\nflag = true\n")
        assert cfg == {"trials": 5, "noise_sigma": 0.1, "kind": "sign", "flag": True}

    def test_lists_and_comments(self):
        cfg = parse_config("N_list = 10, 50, 100  # sample sizes\n\n")
        assert cfg == {"N_list": [10, 50, 100]}

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_config("not a pair\n")


class TestFitLogLinear:
    def test_exact_geometric_sequence(self):
        vals = 3.0 * 0.5 ** np.arange(20)
        slope, r2 = fit_log_linear(vals)
        assert slope == pytest.approx(np.log10(0.5), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)
