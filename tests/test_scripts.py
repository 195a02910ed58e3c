"""The study scripts run end to end on small inputs and write their CSVs."""

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
        out = run_script("density_comparison.py", "--n-pairs", "4",
                         "--batch", "4", "--steps", "20", "--out",
                         str(tmp_path))
        assert out.returncode == 0, out.stderr
        assert "averaged 8 trajectories" in out.stdout
        assert header(tmp_path / "profiles.csv") == \
            "x,ensemble,exact,expansion,smoothed,free"
