"""The scripts run end to end on small inputs and write their outputs."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"),
                      os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *argv], env=env,
        capture_output=True, text=True, timeout=60)


def header(path):
    with open(path) as f:
        return f.readline().strip()


class TestScripts:
    def test_collapse_study(self, tmp_path):
        out = run_script("collapse_study.py", "--n-traj", "8", "--batch", "4",
                         "--steps", "40", "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        assert "8 trajectories" in out.stdout
        assert header(tmp_path / "localized_fraction.csv") == \
            "t,localized_fraction,mean_sigma_q"
        assert header(tmp_path / "outcomes.csv") == \
            "trajectory,settled,t_reduce,branch_right"

    def test_density_comparison(self, tmp_path):
        out = run_script("density_comparison.py", "--n-traj", "8",
                         "--batch", "4", "--steps", "20", "--out",
                         str(tmp_path))
        assert out.returncode == 0, out.stderr
        assert "averaged 8 trajectories" in out.stdout
        assert header(tmp_path / "profiles.csv") == \
            "x,ensemble,exact,expansion,smoothed,free"

    def test_record_replay(self, tmp_path):
        # this tree against itself: both sides load and give equal records
        out = run_script("record_replay.py", "--base",
                         os.path.join(ROOT, "src"), "--n", "64", "--batch",
                         "2", "--steps", "4", "--rounds", "2", "--json",
                         str(tmp_path / "replay.json"))
        assert out.returncode == 0, out.stderr
        assert "record_us" in out.stdout
        with open(tmp_path / "replay.json") as f:
            result = json.load(f)
        assert result["max_abs_record_diff"] == 0.0
        assert len(result["rounds"]["head"]["step_us"]) == 2
