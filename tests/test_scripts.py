"""The one script left, record_replay.py, runs end to end on a small input
and writes its JSON report."""

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


class TestScripts:
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
