import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import dcollapse
from dcollapse import cli
from dcollapse.constants import NUCLEON_MASS
from dcollapse.ensemble import ExperimentConfig, run_ensemble
from dcollapse.grid import RECORD_FIELDS
from dcollapse.model import derive_constants, scale_parameters

from conftest import write_config
from reference_closed_forms import constants_80_digits


def read_csv(path):
    with open(path) as f:
        schema = f.readline().strip()
        header = f.readline().strip().split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return schema, header, body


class TestImport:
    def test_cli_imports_no_scipy(self):
        # scipy is a test dependency only, the process pool is imported by
        # a run with more than one worker, numpy.random by the first noise
        # draw, and the series tables need no rational arithmetic;
        # importing any of them would slow the start-up and grow the
        # resident memory of every command
        root = os.path.dirname(os.path.dirname(dcollapse.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        code = ("import sys, dcollapse.cli; print(sorted(m for m in "
                "sys.modules if m.split('.')[0] in ('scipy', "
                "'multiprocessing', 'concurrent', 'fractions') or "
                "m.startswith('numpy.random')))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestConstants:
    def test_natural_units_json(self, tmp_path, capsys):
        rc = cli.main(["constants", "--units", "natural", "--format", "json",
                       "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "constants.json") as f:
            row = json.load(f)
        assert row["schema"] == "constants-v1"
        assert row["hbar"] == 1.0
        assert row["omega"] == pytest.approx(0.6328504467012849, rel=1e-12)
        assert row["theta"] == pytest.approx(0.7604189655364769, rel=1e-12)
        assert row["sigma_q_bar"]**2 == pytest.approx(1.6211486820500447,
                                                      rel=1e-12)
        assert row["uncertainty_product"] >= 0.5 * row["hbar"]
        assert "constants.json" in capsys.readouterr().out

    def test_si_reference_mass_csv(self, tmp_path):
        rc = cli.main(["constants", "--units", "si", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "constants.csv") as f:
            assert f.readline().strip() == "# schema=constants-v1"
            assert f.readline().strip() == "name,value"
            vals = {}
            for line in f:
                k, v = line.strip().split(",")
                vals[k] = float(v)
        assert vals["mass"] == pytest.approx(1.67262192369e-27, rel=1e-12)
        assert vals["omega"] == pytest.approx(5.021912987305437e-05, rel=1e-10)
        assert vals["theta"] == pytest.approx(math.pi / 4, abs=1e-10)
        assert vals["sigma_q_bar"] == pytest.approx(0.035432728469966285,
                                                    rel=1e-10)
        assert vals["temperature"] == pytest.approx(0.12039577943343933,
                                                    rel=1e-10)
        assert vals["energy_inf"] == pytest.approx(8.31121562394993e-25,
                                                   rel=1e-10)

    def test_si_mass_scaling(self, tmp_path):
        cli.main(["constants", "--units", "si", "--mass", "1.0",
                  "--format", "json", "--out", str(tmp_path / "kg")])
        cli.main(["constants", "--units", "si",
                  "--format", "json", "--out", str(tmp_path / "ref")])
        with open(tmp_path / "kg" / "constants.json") as f:
            kg = json.load(f)
        with open(tmp_path / "ref" / "constants.json") as f:
            ref = json.load(f)
        # frequency, angle and temperature do not depend on the mass; the
        # stationary width shrinks as 1/sqrt(mass)
        assert kg["omega"] == pytest.approx(ref["omega"], rel=1e-12)
        assert kg["theta"] == pytest.approx(ref["theta"], rel=1e-12)
        assert kg["temperature"] == pytest.approx(ref["temperature"],
                                                  rel=1e-12)
        ratio = ref["sigma_q_bar"] / kg["sigma_q_bar"]
        assert ratio == pytest.approx(1.0 / math.sqrt(ref["mass"]), rel=1e-9)

    @pytest.mark.parametrize("units", ["natural", "si"])
    def test_mass_flag_sets_the_mass(self, tmp_path, units):
        rows = {}
        for tag, extra in (("flag", ["--mass", "5"]), ("default", [])):
            rc = cli.main(["constants", "--units", units, "--format", "json",
                           "--out", str(tmp_path / tag)] + extra)
            assert rc == 0
            with open(tmp_path / tag / "constants.json") as f:
                rows[tag] = json.load(f)
        row = rows["flag"]
        assert row["mass"] == 5.0
        assert rows["default"]["mass"] != 5.0
        # the derived constants follow the mass: E_inf = hbar^2 / (8 m alpha)
        assert row["energy_inf"] == pytest.approx(
            row["hbar"] ** 2 / (8.0 * row["mass"] * row["momentum_coupling"]),
            rel=1e-12)

    @pytest.mark.parametrize("text, flag, mass", [
        ("units = si\nmass = 1.0\n", [], 1.0),
        ('{"units": "si", "mass": 1.0}', [], 1.0),
        ("units = si\n", [], NUCLEON_MASS),
        ("units = si\nmass = 1.0\n", ["--mass", "5"], 5.0),
    ], ids=["flat", "json", "unset", "flag"])
    def test_si_config_mass(self, tmp_path, text, flag, mass):
        # a config that sets the mass to the field's default of 1.0 is a
        # 1 kg object, not the nucleon an unset mass stands for
        path = tmp_path / "run.cfg"
        path.write_text(text)
        rc = cli.main(["constants", "--config", str(path), "--format",
                       "json", "--out", str(tmp_path)] + flag)
        assert rc == 0
        with open(tmp_path / "constants.json") as f:
            assert json.load(f)["mass"] == mass

    def test_tiny_collapse_rate(self, tmp_path):
        # lam^2 underflows to 0 here; a_inf is still the oracle's
        path = tmp_path / "tiny.cfg"
        path.write_text("collapse_rate = 1e-300\n")
        for command in ("constants", "gaussian"):
            rc = cli.main([command, "--config", str(path),
                           "--out", str(tmp_path)])
            assert rc == 0
        with open(tmp_path / "constants.csv") as f:
            vals = dict(line.strip().split(",") for line in f.readlines()[2:])
        ref = constants_80_digits(ExperimentConfig(
            collapse_rate=1e-300).params()).a_inf
        for got, want in ((vals["a_inf_real"], ref.real),
                          (vals["a_inf_imag"], ref.imag)):
            assert abs(float(got) - want) < 2e-15 * abs(want)
        _, _, body = read_csv(str(tmp_path / "gaussian.csv"))
        assert np.all(np.isfinite(body))


class TestTables:
    def test_gaussian_csv(self, tmp_path):
        rc = cli.main(["gaussian", "--out", str(tmp_path)])
        assert rc == 0
        schema, header, body = read_csv(str(tmp_path / "gaussian.csv"))
        assert schema == "# schema=gaussian-relaxation-v1"
        assert header[:4] == ["t", "a_real", "a_imag", "sigma_q"]
        assert body.shape == (21, 10)
        assert body[0, 0] == 0.0
        assert body[-1, 0] == pytest.approx(2.0)
        # default initial width is already stationary, so nothing moves
        assert np.ptp(body[:, 3]) < 1e-12

    def test_gaussian_json_format(self, tmp_path):
        rc = cli.main(["gaussian", "--format", "json", "--out",
                       str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "gaussian.json") as f:
            payload = json.load(f)
        assert payload["schema"] == "gaussian-relaxation-v1"
        assert len(payload["columns"]) == 10
        assert len(payload["rows"]) == 21

    def test_si_runs_take_the_scaled_couplings(self, tmp_path):
        # a 1 kg object: the start width is its own stationary width, and
        # the master flow of that start is a physical state
        d = derive_constants(scale_parameters(1.0))
        for command in ("gaussian", "master"):
            rc = cli.main([command, "--units", "si", "--format", "json",
                           "--out", str(tmp_path)])
            assert rc == 0
        with open(tmp_path / "gaussian.json") as f:
            rows = json.load(f)["rows"]
        assert rows[0][1:3] == pytest.approx([d.a_inf.real, d.a_inf.imag],
                                             rel=1e-12)
        with open(tmp_path / "master.json") as f:
            purity = [row[-1] for row in json.load(f)["rows"]]
        assert purity[0] == pytest.approx(1.0, abs=1e-12)

    def test_master_flow_purity(self, tmp_path):
        rc = cli.main(["master", "--out", str(tmp_path)])
        assert rc == 0
        schema, header, body = read_csv(str(tmp_path / "master.csv"))
        assert schema == "# schema=master-flow-v1"
        assert header[-1] == "purity"
        # decoherence degrades purity monotonically from the pure start
        pur = body[:, -1]
        assert pur[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(pur) < 0)
        assert np.all((pur > 0) & (pur <= 1 + 1e-12))

    def test_density_methods(self, tmp_path, capsys):
        cfg = ExperimentConfig(n_steps=100, dt=0.01)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        rc = cli.main(["density", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        schema, header, body = read_csv(str(tmp_path / "density.csv"))
        assert schema == "# schema=density-v1"
        assert header == ["x", "exact", "expansion", "smoothed", "free"]
        dx = body[1, 0] - body[0, 0]
        for j in range(1, 5):
            assert body[:, j].sum() * dx == pytest.approx(1.0, abs=1e-3)
        out = capsys.readouterr().out
        assert "beta_t=" in out

    def test_unresolved_si_density_is_refused(self, tmp_path, capsys):
        # a 1 kg packet on the default grid falls on one point, and the
        # trapezoid norms would read 3.4e13
        out = tmp_path / "out"
        rc = cli.main(["density", "--units", "si", "--out", str(out)])
        assert rc == 1
        assert ("error: the grid cannot resolve the density at t=2: its "
                "width sigma_q = 1.45e-15 is below the grid spacing "
                "dx = 0.125; raise n_points or narrow the box "
                "(x_min, x_max)") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["master", "density"])
    def test_superposition_is_refused(self, tmp_path, capsys, command):
        # both tables describe a single Gaussian start; a superposition
        # would silently be read as one packet at xbar0
        cfg = ExperimentConfig(initial="superposition", centers=(-5.0, 3.0),
                               weights=(0.3, 0.7), x_min=-32.0, x_max=32.0)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        out = tmp_path / "out"
        rc = cli.main([command, "--config", path, "--out", str(out)])
        assert rc == 1
        assert "needs a Gaussian initial state" in capsys.readouterr().err
        assert not out.exists()


class TestTrajectory:
    def test_nonlinear_run(self, tmp_path):
        cfg = ExperimentConfig(n_steps=40, record_every=8, master_seed=7)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        rc = cli.main(["trajectory", "--config", path, "--out",
                       str(tmp_path)])
        assert rc == 0
        schema, header, body = read_csv(str(tmp_path / "trajectory.csv"))
        assert schema == "# schema=trajectory-v1"
        assert header[0] == "t"
        assert header[-1] == "norm_sq"
        assert body.shape[0] == 6
        assert np.allclose(body[:, -1], 1.0, atol=1e-12)

    @pytest.mark.parametrize("equation", ["nonlinear", "linear"])
    def test_rows_match_batch_of_one(self, tmp_path, equation):
        # trajectory.csv holds evolve_batch's B = 1 records for the noise
        # stream (seed, 0), exactly through the %.17g round trip
        cfg = ExperimentConfig(n_steps=40, record_every=10, master_seed=7,
                               equation=equation)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        rc = cli.main(["trajectory", "--config", path, "--out",
                       str(tmp_path)])
        assert rc == 0
        _, header, body = read_csv(str(tmp_path / "trajectory.csv"))
        grid = cfg.grid()
        inc = dcollapse.NoiseStream(7, 0).increments(40, cfg.dt)[None, :]
        _, recs, _, aborted = dcollapse.evolve_batch(
            cfg.initial_psi(grid), grid, cfg.params(), cfg.dt, 40, inc,
            equation=equation, record_every=10)
        assert not aborted[0]
        assert header == list(dcollapse.RECORD_FIELDS)
        assert np.array_equal(body, recs[:, 0, :])

    def test_seed_flag_changes_noise(self, tmp_path):
        for seed, name in ((3, "a"), (4, "b")):
            out = tmp_path / name
            rc = cli.main(["trajectory", "--seed", str(seed), "--out",
                           str(out)])
            assert rc == 0
        a = open(tmp_path / "a" / "trajectory.csv").read()
        b = open(tmp_path / "b" / "trajectory.csv").read()
        assert a != b

    def test_aborted_trajectory_exits_1(self, tmp_path, capsys):
        cfg = ExperimentConfig(n_steps=4, xbar0=15.0)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        rc = cli.main(["trajectory", "--config", path, "--out",
                       str(tmp_path)])
        assert rc == 1
        assert "aborted" in capsys.readouterr().err

    def test_unresolved_si_trajectory_says_why(self, tmp_path, capsys):
        # the default 1 kg packet is narrower than the grid spacing: the
        # records are still written, and the error names both widths
        rc = cli.main(["trajectory", "--units", "si", "--out",
                       str(tmp_path)])
        assert rc == 1
        assert (tmp_path / "trajectory.csv").exists()
        assert ("trajectory aborted a validity check: the initial state "
                "already fails at t = 0, because its packet width sigma_q = "
                "1.45e-15 is below the grid spacing dx = 0.125; raise "
                "n_points or narrow the box (x_min, x_max)"
                ) in capsys.readouterr().err


class TestEnsemble:
    def test_csv_outputs_and_determinism(self, tmp_path):
        cfg = ExperimentConfig(n_trajectories=8, n_steps=20, batch_size=4,
                               record_every=10, master_seed=12)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        rc = cli.main(["ensemble", "--config", path, "--out",
                       str(tmp_path / "one")])
        assert rc == 0
        for name in ("moments.csv", "final_density.csv", "final_q_hist.csv"):
            assert (tmp_path / "one" / name).exists()
        rc = cli.main(["ensemble", "--config", path, "--out",
                       str(tmp_path / "two")])
        assert rc == 0
        for name in ("moments.csv", "final_density.csv", "final_q_hist.csv"):
            one = open(tmp_path / "one" / name).read()
            two = open(tmp_path / "two" / name).read()
            assert one == two

    def test_json_summary(self, tmp_path, capsys):
        cfg = ExperimentConfig(n_trajectories=6, n_steps=10, batch_size=3,
                               record_every=5)
        path = str(tmp_path / "exp.json")
        write_config(cfg, path)
        rc = cli.main(["ensemble", "--config", path, "--format", "json",
                       "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "summary.json") as f:
            payload = json.load(f)
        assert payload["schema"] == "ensemble-summary-v1"
        assert payload["n_trajectories"] == 6
        out = capsys.readouterr().out
        assert "6 trajectories, 0 aborted" in out

    def test_all_aborted_exits_1(self, tmp_path, capsys):
        # leaked nonlinear rows, and linear rows whose norm blows up, which
        # are then not integrated on into an overflow: no numpy warning
        for cfg in (ExperimentConfig(n_trajectories=4, batch_size=4,
                                     n_steps=4, xbar0=15.0),
                    ExperimentConfig(equation="linear", collapse_rate=1.0,
                                     dt=0.05, n_steps=400, n_trajectories=4,
                                     batch_size=4)):
            path = str(tmp_path / "exp.cfg")
            write_config(cfg, path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = cli.main(["ensemble", "--config", path, "--out",
                               str(tmp_path)])
            assert rc == 1
            err = capsys.readouterr().err
            assert "run error: all 4 trajectories aborted" in err
            assert not (tmp_path / "moments.csv").exists()

    def test_unresolved_si_start_names_width_and_spacing(self, tmp_path,
                                                         capsys):
        # the default box at 256 points has dx = 0.125 m, far wider than a
        # 1 kg packet: the advice is a finer grid, not a wider box
        rc = cli.main(["ensemble", "--units", "si", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert ("all 100 trajectories aborted: the initial state already "
                "fails at t = 0, because its packet width sigma_q = "
                "1.45e-15 is below the grid spacing dx = 0.125; raise "
                "n_points or narrow the box (x_min, x_max)") in err
        assert "widen" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_superposition_writes_branch_outcomes(self, tmp_path, capsys,
                                                  fmt):
        # centres not symmetric about 0: both branches lie at q > 0
        cfg = ExperimentConfig(
            initial="superposition", centers=(2.0, 8.0), weights=(0.5, 0.5),
            x_min=-32.0, x_max=32.0, dt=0.008, n_steps=300, record_every=5,
            n_trajectories=16, batch_size=8, master_seed=3)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        rc = cli.main(["ensemble", "--config", path, "--format", fmt,
                       "--out", str(tmp_path)])
        assert rc == 0
        tables = {}
        for name in ("localization", "outcomes"):
            if fmt == "csv":
                schema, cols, body = read_csv(tmp_path / f"{name}.csv")
                schema = schema.removeprefix("# schema=")
            else:
                with open(tmp_path / f"{name}.json") as f:
                    payload = json.load(f)
                schema, cols = payload["schema"], payload["columns"]
                body = np.array(payload["rows"])
            assert schema == f"ensemble-{name}-v1"
            tables[name] = dict(zip(cols, body.T))
        assert list(tables["localization"]) == [
            "t", "localized_fraction", "mean_sigma_q"]
        out = tables["outcomes"]
        assert list(out) == ["trajectory", "settled", "t_reduce", "branch"]

        _, records, _ = run_ensemble(cfg, return_records=True)
        times = records[:, 0, 0]
        assert np.array_equal(tables["localization"]["t"], times)
        settled = out["settled"] == 1
        rec = np.searchsorted(times, out["t_reduce"][settled])
        traj = out["trajectory"][settled].astype(int)
        q = records[rec, traj, RECORD_FIELDS.index("q_mean")]
        nearest = np.argmin(np.abs(q[:, None] - np.array(cfg.centers)), axis=1)
        assert np.array_equal(out["branch"][settled], nearest)
        assert set(nearest) == {0, 1}
        assert (q > 0.0).all()
        stdout = capsys.readouterr().out
        assert "branch 0 at 2: fraction" in stdout
        assert "reduction time: median" in stdout

    def test_run_with_nothing_settled_prints_no_fractions(self, tmp_path,
                                                         capsys):
        cfg = ExperimentConfig(initial="superposition", x_min=-32.0,
                               x_max=32.0, n_steps=10, n_trajectories=4)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["ensemble", "--config", path, "--out",
                           str(tmp_path)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "localized at end: 0.000 (0 of 4 kept trajectories)" in stdout
        assert "fraction" not in stdout and "reduction time" not in stdout

    def test_gaussian_prints_route_l1s(self, tmp_path, capsys):
        cfg = ExperimentConfig(n_trajectories=8, batch_size=4, n_steps=20,
                               dt=0.005)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        rc = cli.main(["ensemble", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("L1(ensemble, ")]
        assert [ln.split()[1] for ln in lines] == [
            "exact", "expansion", "smoothed", "free"]
        assert not (tmp_path / "localization.csv").exists()
        assert not (tmp_path / "outcomes.csv").exists()

    def test_linear_writes_no_branch_report(self, tmp_path, capsys):
        cfg = ExperimentConfig(equation="linear", initial="superposition",
                               x_min=-32.0, x_max=32.0, n_trajectories=4,
                               batch_size=4, n_steps=20)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        rc = cli.main(["ensemble", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "localized at end" not in stdout and "L1(" not in stdout
        assert sorted(os.listdir(tmp_path)) == [
            "exp.cfg", "final_density.csv", "final_q_hist.csv", "moments.csv"]

    def test_shares_a_directory_with_density(self, tmp_path):
        # the ensemble's final density and the master density routes are
        # two files, so neither command overwrites the other's
        cfg = ExperimentConfig(n_trajectories=4, batch_size=4, n_steps=20)
        path = str(tmp_path / "exp.cfg")
        write_config(cfg, path)
        for command in ("density", "ensemble"):
            rc = cli.main([command, "--config", path, "--out", str(tmp_path)])
            assert rc == 0
        schema, _, _ = read_csv(str(tmp_path / "density.csv"))
        assert schema == "# schema=density-v1"
        schema, _, _ = read_csv(str(tmp_path / "final_density.csv"))
        assert schema == "# schema=ensemble-density-v1"


class TestSummaryFiles:
    CFG = ExperimentConfig(n_trajectories=24, n_steps=30, n_points=128,
                           xbar0=0.4, kbar0=-0.2, batch_size=8,
                           record_every=10, master_seed=314, n_workers=2)

    def run(self, tmp_path, fmt):
        path = str(tmp_path / "exp.cfg")
        write_config(self.CFG, path)
        out = tmp_path / "out"
        rc = cli.main(["ensemble", "--config", path, "--format", fmt,
                       "--out", str(out)])
        assert rc == 0
        return out, run_ensemble(self.CFG)

    def test_json_payload(self, tmp_path):
        out, summary = self.run(tmp_path, "json")
        assert os.listdir(out) == ["summary.json"]
        with open(out / "summary.json") as f:
            payload = json.load(f)
        assert payload["schema"] == "ensemble-summary-v1"
        assert payload["fields"] == list(RECORD_FIELDS)
        assert "n_workers" not in payload["config"]
        assert payload["n_trajectories"] == 24
        assert np.array_equal(payload["mean"], summary.mean)

    def test_csv_files(self, tmp_path):
        out, summary = self.run(tmp_path, "csv")
        assert sorted(os.listdir(out)) == [
            "final_density.csv", "final_q_hist.csv", "moments.csv"]
        tables = {name: read_csv(out / f"{name}.csv")
                  for name in ("moments", "final_density", "final_q_hist")}
        assert [t[0] for t in tables.values()] == [
            "# schema=ensemble-moments-v1", "# schema=ensemble-density-v1",
            "# schema=ensemble-hist-v1"]
        _, header, body = tables["moments"]
        assert body.shape == (len(summary.times), 1 + 2 * 8)
        assert header[:3] == ["t", f"mean_{RECORD_FIELDS[1]}",
                              f"sem_{RECORD_FIELDS[1]}"]
        # through the %.17g round trip every value comes back bit for bit
        assert np.array_equal(body[:, 0], summary.times)
        assert np.array_equal(body[:, 1::2], summary.mean[:, 1:])
        assert np.array_equal(body[:, 2::2], summary.sem[:, 1:])
        _, header, body = tables["final_q_hist"]
        assert header == ["q_center", "count"]
        assert np.array_equal(body[:, 1], summary.hist_counts)

    def test_unknown_format_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ensemble", "--format", "parquet",
                      "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()


class TestErrors:
    def test_missing_config_exits_1(self, tmp_path, capsys):
        rc = cli.main(["constants", "--config",
                       str(tmp_path / "missing.cfg")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_key_exits_1(self, tmp_path, capsys):
        path = str(tmp_path / "bad.cfg")
        with open(path, "w") as f:
            f.write("frobnicate = 2\n")
        rc = cli.main(["gaussian", "--config", path])
        assert rc == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_bad_json_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n_step": 10}\n')
        rc = cli.main(["constants", "--config", str(path),
                       "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unknown key 'n_step'" in err

    def test_json_config_scalar_for_list_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"centers": 5}\n')
        rc = cli.main(["constants", "--config", str(path),
                       "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "centers must be a list of numbers" in err

    def test_json_config_wrong_type_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n_steps": "abc"}\n')
        rc = cli.main(["constants", "--config", str(path),
                       "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "n_steps must be an integer, got 'abc'" in err

    def test_flat_config_wrong_type_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("n_steps = abc\n")
        rc = cli.main(["constants", "--config", str(path),
                       "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "n_steps must be an integer, got 'abc'" in err

    @pytest.mark.parametrize("text, message", [
        ("n_points = 100\n", "n_points = 100 (x_min = -16, x_max = 16): "
                             "n must be a power of two, at least 64"),
        ("x_min = 4.0\nx_max = 4.0\n",
         "n_points = 256 (x_min = 4, x_max = 4): empty grid interval"),
        ("mass = 1" + "0" * 400 + "\n", "mass must be finite"),
        ('{"centers": [1' + "0" * 400 + ', 2]}', "centers must be finite"),
        ("master_seed = -1\n", "master_seed must be in [0, 2**64), got -1"),
        ("master_seed = 1" + "0" * 30 + "\n", "master_seed must be in"),
        ("kbar0 = 40\n", "kbar0 = 40 is not below the grid's largest "
                         "wavenumber pi/dx = 25.13; raise n_points or narrow "
                         "the box (x_min, x_max)"),
        ("initial = superposition\nkbars = 0,-30\n",
         "kbars = -30 is not below the grid's largest wavenumber"),
        ("mass = -1\n", "mass must be positive"),
        ("units = si\nmass = 0.0\n", "mass must be positive"),
        ("hbar = 0.0\n", "hbar must be positive"),
        ("a0_real = -0.5\n",
         "a0_real must be positive for a normalizable start, got -0.5"),
    ], ids=["n_points", "interval", "huge-int", "huge-int-in-tuple",
            "negative-seed", "huge-seed", "aliased-kbar0", "aliased-kbars",
            "negative-mass", "zero-si-mass", "zero-hbar",
            "negative-a0-real"])
    def test_config_refused_when_built_exits_1(self, tmp_path, capsys,
                                               text, message):
        # the grid, float and model checks run when the config is built,
        # so a command that builds no grid refuses the file too
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        rc = cli.main(["constants", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_unphysical_config_starts_no_worker(self, tmp_path, capsys,
                                                 monkeypatch):
        # the model's rules run when the config is built, before a
        # two-worker ensemble would start its pool
        import concurrent.futures
        started = []

        def recording_pool(*args, **kwargs):
            started.append(kwargs)
            raise AssertionError("the ensemble started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            recording_pool)
        path = tmp_path / "bad.cfg"
        path.write_text("mass = -1\nn_workers = 2\n")
        rc = cli.main(["ensemble", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {path}: mass must be positive\n")
        assert started == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", "1" + "0" * 30])
    def test_seed_flag_out_of_range_exits_1(self, tmp_path, capsys, seed):
        # the seed keys a uint64 noise stream; it is refused when the
        # config is built, not deep inside the run
        rc = cli.main(["trajectory", "--seed", seed,
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: master_seed must be in [0, 2**64), got {seed}\n")
        assert not (tmp_path / "out").exists()

    def test_zero_collapse_rate_names_the_start_width(self, tmp_path,
                                                       capsys):
        # no stationary width to start at, and none set
        path = tmp_path / "free.cfg"
        path.write_text("collapse_rate = 0\n")
        rc = cli.main(["gaussian", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: a0_real must be set: collapse_rate = 0 leaves no "
            "stationary width to start at\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_gaussian_time_exits_1(self, tmp_path, capsys):
        # the last record time t = 1e155 squares past the float range
        path = tmp_path / "far.cfg"
        path.write_text("dt = 1e155\nn_steps = 1\n")
        rc = cli.main(["gaussian", "--config", str(path),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: t = 1e+155 overflows the width law\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestVerify:
    def test_passes_on_defaults(self, tmp_path, capsys):
        rc = cli.main(["verify", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "verify.json") as f:
            report = json.load(f)
        assert report["schema"] == "verify-v1"
        assert report["passed"] is True
        assert set(report["checks"]) == {
            "stationary_identities", "width_closed_form", "coefficient_flow",
            "stationary_covariance", "energy_relaxation",
            "localization_drift", "ensemble_vs_master",
        }
        assert all(c["passed"] for c in report["checks"].values())
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    def test_zero_collapse_rate_exits_1(self, tmp_path, capsys):
        path = tmp_path / "free.cfg"
        path.write_text("collapse_rate = 0\na0_real = 0.5\n")
        rc = cli.main(["verify", "--config", str(path),
                       "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: verify needs collapse_rate > 0")
        assert not (tmp_path / "verify.json").exists()

    def test_si_units_exit_1_before_any_check(self, tmp_path, capsys,
                                              monkeypatch):
        # the ensemble check sets its own 128-point grid and start, which
        # cannot resolve an SI packet; energy_relaxation covers SI units
        def no_checks(cfg):
            raise AssertionError("verify ran a check")

        monkeypatch.setattr(cli, "_verify_checks", no_checks)
        rc = cli.main(["verify", "--units", "si", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: verify runs in natural units only")
        assert not (tmp_path / "verify.json").exists()

    def _usual_model(self, tmp_path):
        """--config arguments for the usual model, alpha = 0."""
        path = tmp_path / "usual.cfg"
        path.write_text("momentum_coupling = 0\n")
        return ["--config", str(path)]

    def test_usual_model_passes(self, tmp_path, capsys):
        # coeff_flow's undamped branch and the contraction law are held to
        # their ODEs, not to themselves: both residuals are rounding, not 0
        rc = cli.main(["verify", "--out", str(tmp_path),
                       *self._usual_model(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.count("PASS") == 7
        with open(tmp_path / "verify.json") as f:
            checks = json.load(f)["checks"]
        for name in ("coefficient_flow", "localization_drift"):
            assert 0.0 < checks[name]["max_residual"] < checks[name]["tol"]

    def test_failing_check_exits_2(self, tmp_path, capsys, monkeypatch):
        self._patch_constant(monkeypatch, "a_inf", 1e-8)
        self._fails_only("stationary_identities", tmp_path, capsys)
        with open(tmp_path / "verify.json") as f:
            report = json.load(f)
        assert report["passed"] is False
        assert report["checks"]["stationary_identities"]["passed"] is False

    @staticmethod
    def _patch_constant(monkeypatch, field, k):
        """Scale one field of every DerivedConstants verify derives by
        1 + k."""
        exact = cli.derive_constants

        def scaled(p, boltzmann=cli.BOLTZMANN):
            d = exact(p, boltzmann)
            return dataclasses.replace(d, **{field: getattr(d, field) * (1 + k)})

        monkeypatch.setattr(cli, "derive_constants", scaled)

    @pytest.mark.parametrize("field, k", [
        ("omega1", 1e-6), ("omega2", 1e-6), ("sigma_qp_bar_sq", 1e-6)])
    def test_scaled_constant_fails_only_the_stationary_check(
            self, tmp_path, capsys, monkeypatch, field, k):
        # the constants are the width law's fixed point: a_inf zeroes its
        # right-hand side, omega1 + i omega2 is its slope there, and the
        # bars are the spreads of a_inf
        self._patch_constant(monkeypatch, field, k)
        self._fails_only("stationary_identities", tmp_path, capsys)

    def test_energy_law_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # the paper's energy law, off by one part in 1e6, fails the check
        exact = cli.me.mean_energy
        monkeypatch.setattr(cli.me, "mean_energy",
                            lambda e0, t, p: exact(e0, t, p) * (1.0 + 1e-6))
        rc = cli.main(["verify", "--out", str(tmp_path)])
        assert rc == 2
        with open(tmp_path / "verify.json") as f:
            checks = json.load(f)["checks"]
        assert checks["energy_relaxation"]["passed"] is False
        assert checks["energy_relaxation"]["max_residual"] > 1e-7
        assert "FAIL  energy_relaxation" in capsys.readouterr().out

    def _fails_only(self, name, tmp_path, capsys, *argv):
        rc = cli.main(["verify", "--out", str(tmp_path), *argv])
        assert rc == 2
        out = capsys.readouterr().out
        assert f"FAIL  {name}" in out
        assert out.count("FAIL") == 1
        assert out.count("PASS") == 6
        with open(tmp_path / "verify.json") as f:
            check = json.load(f)["checks"][name]
        assert check["tol"] < check["max_residual"]

    def test_scaled_width_fails_only_its_check(self, tmp_path, capsys,
                                               monkeypatch):
        # the width flow off by ten times its tolerance
        exact = cli.ge.a_closed_form
        monkeypatch.setattr(cli.ge, "a_closed_form",
                            lambda a0, t, p: exact(a0, t, p) * (1.0 + 1e-7))
        self._fails_only("width_closed_form", tmp_path, capsys)

    def test_scaled_covariance_fails_only_its_check(self, tmp_path, capsys,
                                                    monkeypatch):
        # the covariances off by ten times their tolerance
        exact = cli.ge.stationary_covariance

        def scaled(t, p):
            cov = exact(t, p)
            k = 1.0 + 1e-5
            return cli.ge.CovarianceMatrix(cov.qq * k, cov.qp * k, cov.pp * k)

        monkeypatch.setattr(cli.ge, "stationary_covariance", scaled)
        self._fails_only("stationary_covariance", tmp_path, capsys)

    def test_undamped_noise_defect_fails_only_the_coefficient_check(
            self, tmp_path, capsys, monkeypatch):
        # c1's position-noise term lam t^3 / 6m^2 doubled in the alpha = 0
        # branch; c1 enters no energy, so only the coefficient check sees it
        exact = cli.me.coeff_flow

        def defect(c, t, p):
            out = exact(c, t, p)
            if p.momentum_coupling != 0.0:
                return out
            return dataclasses.replace(
                out, c1=out.c1 + p.collapse_rate * t**3 / (6.0 * p.mass**2))

        monkeypatch.setattr(cli.me, "coeff_flow", defect)
        self._fails_only("coefficient_flow", tmp_path, capsys,
                         *self._usual_model(tmp_path))

    def test_damped_branch_defect_fails_only_the_coefficient_check(
            self, tmp_path, capsys, monkeypatch):
        # c1 off by one part in 1e9 per unit time where alpha > 0
        exact = cli.me.coeff_flow

        def defect(c, t, p):
            out = exact(c, t, p)
            if p.momentum_coupling == 0.0:
                return out
            return dataclasses.replace(out, c1=out.c1 * (1.0 + 1e-9 * t))

        monkeypatch.setattr(cli.me, "coeff_flow", defect)
        self._fails_only("coefficient_flow", tmp_path, capsys)

    def test_halved_drift_fails_only_the_localization_check(
            self, tmp_path, capsys, monkeypatch):
        # sigma_O^2 along the width flow falls at the full rate, twice the
        # predicted one
        exact = cli.loc.drift_prediction
        monkeypatch.setattr(cli.loc, "drift_prediction",
                            lambda *args: 0.5 * exact(*args))
        self._fails_only("localization_drift", tmp_path, capsys)

    def test_dropped_offset_fails_only_the_localization_check(
            self, tmp_path, capsys, monkeypatch):
        # sigma_O^2 without its -hbar^2 / (2 sq~^2) no longer vanishes at
        # a_inf; its slope is unchanged, but drift_prediction, which
        # reads it, is not
        exact = cli.loc.sigma_O_sq

        def defect(q2, p2, qp2, p):
            d = derive_constants(p, boltzmann=1.0)
            return exact(q2, p2, qp2, p) + p.hbar**2 / (2.0 * d.sigma_q_bar**2)

        monkeypatch.setattr(cli.loc, "sigma_O_sq", defect)
        self._fails_only("localization_drift", tmp_path, capsys)

    def test_riccati_constant_defect_fails_the_width_check(
            self, tmp_path, capsys, monkeypatch):
        # the kernel's argument w = mu^2 t^2 off by 2e-7, as if mu^2 were:
        # tau = t H(w) keeps a(0) = a0 exactly, and the flow still relaxes,
        # to the fixed point of another Riccati equation: only the ODE
        # residual can see it
        exact = cli.ge.numerics.H
        monkeypatch.setattr(cli.ge.numerics, "H",
                            lambda w: exact(w * (1.0 + 2e-7)))
        self._fails_only("width_closed_form", tmp_path, capsys)

    def test_runs_in_one_process(self, tmp_path, capsys, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("verify started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        rc = cli.main(["verify", "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.count("PASS") == 7
        assert multiprocessing.active_children() == []

    def test_two_worker_ensemble(self, tmp_path, capsys):
        # the ensemble check runs on a two-worker pool, joined before the
        # report is written
        path = str(tmp_path / "exp.cfg")
        write_config(ExperimentConfig(n_workers=2), path)
        rc = cli.main(["verify", "--config", path, "--out", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().out.count("PASS") == 7
        assert multiprocessing.active_children() == []

    def test_aborted_ensemble_names_its_fixed_settings(self, tmp_path,
                                                        capsys):
        # every trajectory of verify's own ensemble aborts on this model;
        # dt, n_points and the step count are verify's, so the message
        # names them and gives no advice to change them
        path = tmp_path / "strong.cfg"
        path.write_text("collapse_rate = 1\nmomentum_coupling = 2\n")
        rc = cli.main(["verify", "--config", str(path),
                       "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("run error: verify's ensemble check aborted "
                              "all 256 trajectories")
        assert "dt = 0.01, n_points = 128, 100 steps" in err
        assert "smaller dt" not in err
        assert not (tmp_path / "verify.json").exists()

    def test_ode_residual_fails_on_a_nan_start(self):
        # f is NaN at t = 0 only and solves y' = 0 elsewhere: the start gap
        # is NaN, and so must be the residual
        def f(t):
            return np.where(t == 0.0, np.nan, 1.0)[:, None]

        def terms(y):
            return (np.zeros_like(y),)

        t = np.linspace(0.0, 1.0, 5)
        assert math.isnan(cli._ode_residual(f, terms, t, np.ones(1)))
        # the same f with a finite start reads 0
        assert cli._ode_residual(lambda t: np.ones((t.size, 1)), terms, t,
                                 np.ones(1)) == 0.0
