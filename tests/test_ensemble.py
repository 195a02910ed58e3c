import math
import tracemalloc

import numpy as np
import pytest

from dcollapse.grid import (RECORD_FIELDS, NoiseStream, build_superposition,
                            evolve_batch)
from dcollapse import ensemble as en
from dcollapse import master as ms
from dcollapse.errors import InstabilityError
from dcollapse.model import scale_parameters

from conftest import write_config


SMALL = en.ExperimentConfig(n_trajectories=24, n_steps=30, dt=0.01,
                            n_points=128, x_min=-16.0, x_max=16.0,
                            xbar0=0.4, kbar0=-0.2, batch_size=8,
                            record_every=10, master_seed=314)


class TestConfig:
    def test_text_round_trip(self, tmp_path):
        # a value of every kind the flat format reads: None, a tuple, an
        # int, a float and a string
        path = tmp_path / "exp.cfg"
        path.write_text(
            "units = natural\nhbar = None\ninitial = superposition\n"
            "centers = -4.0,3.5\nweights = 0.25,0.75\nkbars = 0.3,-0.1\n"
            "a0_real = 1.2\na0_imag = -0.4\nn_points = 128\ndt = 0.01\n"
            "master_seed = 314\n")
        want = en.ExperimentConfig(
            initial="superposition", centers=(-4.0, 3.5),
            weights=(0.25, 0.75), kbars=(0.3, -0.1), a0_real=1.2,
            a0_imag=-0.4, n_points=128, dt=0.01, master_seed=314)
        assert en.ExperimentConfig.from_file(str(path)) == want

    def test_json_round_trip(self, tmp_path):
        cfg = SMALL.replace(hbar=None, a0_real=None, kbars=())
        path = str(tmp_path / "exp.json")
        write_config(cfg, path)
        assert en.ExperimentConfig.from_file(path) == cfg

    def test_text_parser_accepts_comments(self, tmp_path):
        path = str(tmp_path / "exp.cfg")
        with open(path, "w") as f:
            f.write("# an experiment\n\nn_trajectories = 7\n"
                    "dt = 0.02  # step\nweights = 0.5,0.5\n")
        cfg = en.ExperimentConfig.from_file(path)
        assert cfg.n_trajectories == 7
        assert cfg.dt == 0.02
        assert cfg.weights == (0.5, 0.5)

    def test_text_parser_rejects_unknown_key(self, tmp_path):
        path = str(tmp_path / "bad.cfg")
        with open(path, "w") as f:
            f.write("dt = 0.02\nnonsense = 1\n")
        with pytest.raises(ValueError, match="nonsense"):
            en.ExperimentConfig.from_file(path)

    def test_text_parser_rejects_missing_equals(self, tmp_path):
        path = str(tmp_path / "bad.cfg")
        with open(path, "w") as f:
            f.write("just some words\n")
        with pytest.raises(ValueError):
            en.ExperimentConfig.from_file(path)

    def test_natural_units_default_hbar(self):
        assert SMALL.params().hbar == 1.0
        si = SMALL.replace(units="si")
        assert si.params().hbar == pytest.approx(1.054571817e-34, rel=1e-9)

    def test_si_couplings_scale_with_the_mass(self):
        # collapse_rate, momentum_coupling and hbar apply in natural units
        # only; SI runs take the couplings the mass scaling gives
        cfg = en.ExperimentConfig(units="si", mass=3e-26, collapse_rate=5.0,
                                  momentum_coupling=2.0, hbar=1.0)
        assert cfg.params() == scale_parameters(3e-26)

    def test_zero_collapse_rate_needs_a_start_width(self):
        cfg = en.ExperimentConfig(collapse_rate=0.0)
        with pytest.raises(ValueError, match="a0_real must be set"):
            cfg.initial_gaussian()
        assert cfg.replace(a0_real=0.5).initial_gaussian().a == 0.5

    def test_accepts_a_start_momentum_inside_the_band(self):
        assert en.ExperimentConfig(kbar0=-25.0).kbar0 == -25.0
        assert en.ExperimentConfig(kbar0=40.0, n_points=512).kbar0 == 40.0
        # a superposition starts its packets at kbars, not at kbar0
        assert en.ExperimentConfig(initial="superposition", kbar0=40.0,
                                   kbars=(25.0, -25.0)).kbar0 == 40.0

    def test_default_width_is_stationary(self):
        from dcollapse.model import derive_constants
        g = SMALL.initial_gaussian()
        d = derive_constants(SMALL.params(), boltzmann=1.0)
        assert g.a == complex(d.a_inf)

    def test_unknown_initial_raises(self):
        # refused when the config is built, before any grid exists
        with pytest.raises(ValueError, match="initial"):
            SMALL.replace(initial="plane-wave")

    @pytest.mark.parametrize("bad", [
        dict(dt=-0.01), dict(dt=0.0), dict(n_steps=0), dict(record_every=0),
        dict(n_trajectories=0), dict(batch_size=0), dict(n_workers=0),
    ])
    def test_rejects_nonpositive_sizes(self, bad):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name):
            en.ExperimentConfig(**bad)

    @pytest.mark.parametrize("bad", [
        dict(equation="typo"), dict(equation="Linear"),
        dict(initial="plane"), dict(units="furlongs"), dict(units="SI"),
    ])
    def test_rejects_unknown_names(self, bad):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name):
            en.ExperimentConfig(**bad)

    @pytest.mark.parametrize("bad, name", [
        (dict(dt=math.inf), "dt"),
        (dict(xbar0=math.nan), "xbar0"),
        (dict(initial="superposition", centers=(), weights=()), "centers"),
        (dict(initial="superposition", weights=(-0.5, 1.5)), "weights"),
        (dict(initial="superposition", weights=(0.0, 0.0)), "weights"),
        (dict(master_seed=-1), "master_seed"),
        (dict(master_seed=2**64), "master_seed"),
        # a start momentum at or past pi/dx folds back into the band,
        # where no alias check sees it
        (dict(kbar0=40.0), "kbar0 = 40 is not below"),
        (dict(kbar0=-60.0), "kbar0 = -60 is not below"),
        (dict(kbar0=math.pi / 0.125), "kbar0 = 25.1327 is not below"),
        (dict(initial="superposition", kbars=(0.0, -30.0)),
         "kbars = -30 is not below"),
        (dict(initial="superposition", kbars=(1.0, 20.0), x_min=-64.0,
              x_max=64.0), r"kbars = 20 is not below .* pi/dx = 6\.283"),
        # the model's own rules, and a start width that is not normalizable
        (dict(mass=-1.0), "mass must be positive"),
        (dict(units="si", mass=0.0), "mass must be positive"),
        (dict(collapse_rate=-0.1), "collapse_rate must be non-negative"),
        (dict(momentum_coupling=-0.5),
         "momentum_coupling must be non-negative"),
        (dict(hbar=0.0), "hbar must be positive"),
        (dict(a0_real=-0.5), "a0_real must be positive"),
        (dict(a0_real=0.0, a0_imag=1.0), "a0_real must be positive"),
    ], ids=["inf", "nan", "no-centre", "negative-weight", "zero-weights",
            "negative-seed", "seed-past-uint64", "kbar0-40", "kbar0-60",
            "kbar0-at-limit", "kbars-30", "kbars-wide-box", "negative-mass",
            "zero-si-mass", "negative-collapse-rate",
            "negative-momentum-coupling", "zero-hbar", "negative-a0-real",
            "zero-a0-real"])
    def test_rejects_values_no_run_can_use(self, bad, name):
        with pytest.raises(ValueError, match=name):
            en.ExperimentConfig(**bad)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_accepts_both_ends_of_the_seed_range(self, seed):
        cfg = en.ExperimentConfig(master_seed=seed)
        assert len(NoiseStream(cfg.master_seed, 0).increments(3, 0.01)) == 3

    def test_rejects_weights_centers_mismatch(self):
        with pytest.raises(ValueError, match="weights"):
            en.ExperimentConfig(initial="superposition",
                                centers=(-5.0, 0.0, 5.0), weights=(0.5, 0.5))

    def test_rejects_kbars_centers_mismatch(self):
        with pytest.raises(ValueError, match="kbars"):
            SMALL.replace(kbars=(1.0,))
        assert SMALL.replace(kbars=(1.0, -1.0)).kbars == (1.0, -1.0)

    def test_build_superposition_rejects_ragged_packets(self):
        grid = SMALL.grid()
        with pytest.raises(ValueError):
            build_superposition(grid, 1.0 + 0.0j, (-5.0, 0.0, 5.0),
                                (0.5, 0.5))


@pytest.fixture(scope="module")
def small_run():
    return en.run_ensemble(SMALL, return_records=True)


@pytest.fixture(scope="module")
def master_run():
    cfg = en.ExperimentConfig(n_trajectories=200, n_steps=80, dt=0.01,
                              xbar0=0.5, kbar0=-0.3, batch_size=128,
                              master_seed=31, record_every=20)
    summary, records, aborted = en.run_ensemble(cfg, return_records=True)
    return cfg, summary, records, aborted


class TestRunEnsemble:
    def test_shapes_and_counts(self, small_run):
        summary, records, aborted = small_run
        n_rec = len(summary.times)
        assert records.shape == (n_rec, 24, len(RECORD_FIELDS))
        assert summary.mean.shape == (n_rec, len(RECORD_FIELDS))
        assert summary.sem.shape == summary.mean.shape
        assert summary.n_trajectories == 24
        assert summary.n_aborted == 0
        assert aborted.shape == (24,)

    def test_density_normalized_and_hist_complete(self, small_run):
        summary, _, _ = small_run
        dx = float(summary.density_x[1] - summary.density_x[0])
        assert float(summary.density.sum() * dx) == pytest.approx(1.0,
                                                                  abs=1e-9)
        assert int(summary.hist_counts.sum()) == 24

    def test_worker_count_leaves_bytes_unchanged(self):
        one = en.run_ensemble(SMALL.replace(n_workers=1)).to_json()
        three = en.run_ensemble(SMALL.replace(n_workers=3)).to_json()
        assert one == three

    def test_records_are_in_trajectory_order_across_workers(self):
        # ragged batches on two workers: row i is still trajectory i, with
        # the bits it gets alone
        cfg = SMALL.replace(n_workers=2, batch_size=7)
        _, records, aborted = en.run_ensemble(cfg, return_records=True)
        grid = cfg.grid()
        psi0 = cfg.initial_psi(grid)
        for i in range(cfg.n_trajectories):
            inc = NoiseStream(cfg.master_seed, i).increments(cfg.n_steps,
                                                             cfg.dt)
            _, rec, _, ab = evolve_batch(psi0, grid, cfg.params(), cfg.dt,
                                         cfg.n_steps, inc[None, :],
                                         record_every=cfg.record_every)
            assert np.array_equal(records[:, i], rec[:, 0]), i
            assert aborted[i] == ab[0]

    @pytest.mark.parametrize("n_workers, n_trajectories, pool", [
        (64, 16, 2), (2, 8, None), (3, 24, 3)],
        ids=["more-workers-than-batches", "one-batch", "as-configured"])
    def test_pool_holds_no_more_workers_than_batches(
            self, monkeypatch, n_workers, n_trajectories, pool):
        # a fork pool starts every worker it is built with, so it is sized
        # to the batches, and one batch runs without a pool; the fake runs
        # the batches in this process
        import concurrent.futures

        built = []

        class RecordingPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        cfg = SMALL.replace(n_trajectories=n_trajectories)
        got = en.run_ensemble(cfg.replace(n_workers=n_workers)).to_json()
        assert built == ([] if pool is None else [pool])
        assert got == en.run_ensemble(cfg).to_json()

    def test_seed_changes_results(self):
        one = en.run_ensemble(SMALL).to_json()
        other = en.run_ensemble(SMALL.replace(master_seed=315)).to_json()
        assert one != other

    def test_ragged_batches_cover_all_trajectories(self):
        cfg = SMALL.replace(batch_size=7)
        summary = en.run_ensemble(cfg)
        assert summary.n_trajectories == 24
        assert int(summary.hist_counts.sum()) == 24

    def test_nonfinite_trajectory_is_excluded(self, monkeypatch):
        class PoisonedStream(NoiseStream):
            def increments(self, n_steps, dt):
                inc = super().increments(n_steps, dt)
                if self.trajectory_index == 5:
                    inc[3] = np.nan
                return inc

        # the fork pool's workers inherit the patched stream; 301 records
        # of 24 trajectories are reduced in two blocks
        monkeypatch.setattr(en, "NoiseStream", PoisonedStream)
        cfg = SMALL.replace(n_steps=300, record_every=1)
        for n_workers in (1, 2):
            summary, records, aborted = en.run_ensemble(
                cfg.replace(n_workers=n_workers), return_records=True)
            assert np.flatnonzero(aborted).tolist() == [5]
            assert np.isnan(records[-1, 5]).any()
            assert summary.n_aborted == 1
            assert np.isfinite(summary.mean).all()
            assert np.isfinite(summary.sem).all()
            assert np.isfinite(summary.density).all()
            assert int(summary.hist_counts.sum()) == 23
            # reduced block by block, the statistics are the whole
            # tensor's bit for bit
            assert records.nbytes > en._BLOCK_BYTES
            kept = records[:, ~aborted, :]
            assert np.array_equal(summary.mean, kept.mean(axis=1))
            assert np.array_equal(summary.sem, kept.std(axis=1, ddof=1)
                                  / math.sqrt(kept.shape[1]))

    def test_run_holds_one_record_tensor(self):
        # a serial run of 16 batches, recorded at every step: besides its
        # record tensor it holds one batch at a time and one block of the
        # reduction, where a copy of the whole tensor would be another 1x
        cfg = en.ExperimentConfig(n_points=64, n_trajectories=256,
                                  batch_size=16, n_steps=100, record_every=1,
                                  master_seed=5)
        tracemalloc.start()
        try:
            _, records, aborted = en.run_ensemble(cfg, return_records=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not aborted.any()
        assert peak < 1.5 * records.nbytes + 2**16

    def test_all_aborted_run_raises(self):
        cfg = SMALL.replace(xbar0=11.0, n_trajectories=6, batch_size=6,
                            n_steps=4)
        with pytest.raises(InstabilityError, match=r"all 6 trajectories"):
            en.run_ensemble(cfg)

    def test_start_that_fails_at_t0_gets_box_advice(self):
        # the default box and centres leave a packet tail at the box edge
        # above the leak check's threshold, so no dt can help
        cfg = en.ExperimentConfig(initial="superposition", n_steps=10,
                                  n_trajectories=4)
        with pytest.raises(InstabilityError,
                           match=r"all 4 trajectories aborted: the initial "
                                 r"state already fails .* widen the box"):
            en.run_ensemble(cfg)

    def test_oversized_step_keeps_dt_advice(self):
        cfg = SMALL.replace(dt=1.0, n_trajectories=6, batch_size=6,
                            n_steps=4)
        with pytest.raises(InstabilityError,
                           match=r"all 6 trajectories aborted \(.*\); try a "
                                 r"smaller dt"):
            en.run_ensemble(cfg)


class TestMasterComparison:
    def test_moments_within_monte_carlo_error(self, master_run):
        comp = en.compare_to_master(*master_run)
        assert comp.max_abs_z < 4.5
        assert comp.l1_density < 0.1
        assert comp.z_q_mean.shape == master_run[1].times.shape
        assert comp.passed(z_threshold=4.5, l1_tol=0.1)

    def test_aborted_rows_are_excluded(self, master_run):
        cfg, summary, records, aborted = master_run
        rec2 = records.copy()
        ab2 = aborted.copy()
        rec2[:, 5, :] = 1e9
        rec2[:, 17, :] = -3e7
        ab2[5] = ab2[17] = True
        comp = en.compare_to_master(cfg, summary, rec2, ab2)
        assert comp.max_abs_z < 4.5
        base = en.compare_to_master(cfg, summary, records, aborted)
        assert comp.l1_density == base.l1_density

    def test_degenerate_initial_record_compares_directly(self, master_run):
        # identical t=0 samples have no spread; the comparison must report
        # zero there, not a blow-up
        comp = en.compare_to_master(*master_run)
        assert comp.z_q_mean[0] == 0.0
        assert comp.z_p_mean[0] == 0.0

    def test_requires_gaussian_initial(self, master_run):
        cfg, summary, records, aborted = master_run
        bad = cfg.replace(initial="superposition")
        with pytest.raises(ValueError):
            en.compare_to_master(bad, summary, records, aborted)

    def test_l1_density_matches_moment_gaussian(self):
        # on the ensemble of `dcollapse verify`, the closed-form reference
        # density gives the L1 distance of the normal density built from the
        # coeff_flow moments
        cfg = en.ExperimentConfig(n_trajectories=256, n_steps=100, dt=0.01,
                                  record_every=20, n_points=128, xbar0=1.0)
        summary, records, aborted = en.run_ensemble(cfg, return_records=True)
        comp = en.compare_to_master(cfg, summary, records, aborted)
        p = cfg.params()
        c0 = ms.coefficients_from_gaussian(cfg.initial_gaussian(), p)
        mom = ms.moments_from_coefficients(
            ms.coeff_flow(c0, float(summary.times[-1]), p), p)
        x = summary.density_x
        ref = np.exp(-((x - mom.q_mean) ** 2) / (2.0 * mom.var_q)) \
            / math.sqrt(2.0 * math.pi * mom.var_q)
        l1 = float(np.abs(summary.density - ref).sum() * (x[1] - x[0]))
        assert abs(comp.l1_density - l1) <= 1e-12
