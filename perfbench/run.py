"""dcollapse benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dcollapse checkout: the package is imported from
./src (pure Python, nothing to build).  The untraced run repeats the
workload with seeds N, N + 2**32, N + 2*2**32, ... for at least S seconds
and at least three reps, gating every rep, and the ensembles of the first
reps pooled where the workload asks for it.
The traced run does the same reps, then one rep with spans around each
layer's entry points, plus replays of single layers.

Standard output ends with one JSON line {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Exit status: 0 when every gate passed, 1 when one failed,
2 when the checkout holds no dcollapse sources.
"""

import os

# one BLAS/OpenMP thread per process, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("ensemble_gaussian", "twopacket_dense", "master_verify")
SEED_STRIDE = 2**32
MIN_REPS = 3
OUT_DIR = ".perfbench-out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "traj_steps_per_s": "1/s",
    "density_points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "se2_x_s": "se2.s",
}
PER_LAYER_UNITS = {
    "grid.step_us_per_traj_step": "us",
    "grid.fft_calls_per_step": "count",
    "grid.record_us_per_traj_record": "us",
    "grid.fft_calls_per_record": "count",
    "grid.evolve_batch_busy_s": "s",
    "noise.busy_s": "s",
    "noise.calls": "count",
    "ensemble.self_s": "s",
    "ensemble.batches": "count",
    "ensemble.aborted": "count",
    "ensemble.speedup_2w": "x",
    "master.compare_busy_s": "s",
    "master.coeff_flow_us": "us",
    "master.coeff_flow_calls": "count",
    "master.density_ms_per_point.exact": "ms",
    "master.density_ms_per_point.expansion": "ms",
    "master.density_ms_per_point.smoothed": "ms",
    "master.density_ms_per_point.free": "ms",
    "gaussian.integrate_a_ode_busy_s": "s",
    "gaussian.integrate_covariance_busy_s": "s",
    "localization.busy_s": "s",
    "verify.ensemble_busy_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.attributed_frac": "frac",
}
ATTRIBUTED_MIN = 0.95

# A fresh interpreter: import the entry point, then build the config, grid
# and initial state.  Prints the import time.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, "src")
import dcollapse.cli
t1 = time.perf_counter()
from dcollapse.ensemble import ExperimentConfig
cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
cfg.initial_psi(cfg.grid())
print(json.dumps({"import_s": t1 - t0}))
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the smoke test")
    ap.add_argument("--break-gate", action="store_true",
                    help="feed every gate a wrong expected value")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < SEED_STRIDE:
        ap.error(f"--seed must be in [0, {SEED_STRIDE})")
    return args


# Runs SETUP_CODE in a fresh interpreter for each config line on stdin and
# prints the wall and import times.  The setup interpreters are its
# children, not the workload process's, so RUSAGE_CHILDREN of the workload
# process sees only its pool workers until the helper is waited for.
SETUP_HELPER = """\
import json, subprocess, sys, time
for line in sys.stdin:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", sys.argv[1], line.strip()],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    wall = time.perf_counter() - t0
    import_s = json.loads(done.stdout.splitlines()[-1])["import_s"]
    print(json.dumps([wall, import_s]), flush=True)
"""


class SetupTimer:
    """Times fresh-interpreter setups through one helper process."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_HELPER, SETUP_CODE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __call__(self, cfg_json: str):
        """Wall time of one setup, and its import time."""
        self.proc.stdin.write(cfg_json + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the setup interpreter failed")
        return tuple(json.loads(line))

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=150)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def peak_rss_mb() -> float:
    """Peak RSS of this process and of the children it has waited for."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run_reps(wl, args, n_setups: int):
    """Reps with seeds seed, seed + 2**32, ... for at least --seconds of
    rep time and MIN_REPS reps, stopping at the first failed gate; a failed
    gate fails its whole run.  Between reps, n_setups fresh-interpreter
    setups are timed, spread over the run so that they see the machine the
    reps see.  A rep's ensemble is dropped once it is checked, unless the
    workload pools it, so memory does not grow with the number of reps.
    Returns the reps, the failed gates, the median setup and import times
    and the peak RSS of the reps (pool workers included)."""
    cfg_json = json.dumps(wl.setup_config().to_dict())
    min_reps = max(MIN_REPS, wl.pooled_reps)
    setups, reps, errors = [], [], []
    rep_s = 0.0  # time spent in reps, setups not counted
    with SetupTimer() as setup:
        setup(cfg_json)  # uncounted: compiles the bytecode
        while len(reps) < min_reps or rep_s < args.seconds:
            if len(setups) < n_setups \
                    and rep_s * n_setups >= len(setups) * args.seconds:
                setups.append(setup(cfg_json))
            t0 = time.perf_counter()
            rep = wl.rep(args.seed + len(reps) * SEED_STRIDE,
                         broken=args.break_gate)
            rep_s += time.perf_counter() - t0
            if len(reps) >= wl.pooled_reps:
                rep.ensemble = None
            reps.append(rep)
            errors += rep.errors
            if errors:
                break
        errors += wl.gate(reps, broken=args.break_gate)
        peak_mb = peak_rss_mb()
        while len(setups) < n_setups:
            setups.append(setup(cfg_json))
    print(f"{len(reps)} reps, wall_s each: "
          + " ".join(f"{r.wall_s:.3f}" for r in reps))
    setup_s = statistics.median(wall for wall, _ in setups)
    import_s = statistics.median(imp for _, imp in setups)
    return reps, errors, setup_s, import_s, peak_mb


def untraced(wl, args):
    reps, errors, setup_s, _, peak_mb = run_reps(wl, args,
                                                 2 if args.tiny else 7)
    wall = statistics.median(r.wall_s for r in reps)
    # the estimator's variance is pooled over every rep of the run; its
    # standard error is that of one rep's sample
    samples = np.concatenate([r.samples for r in reps])
    n_rep = statistics.median(r.samples.size for r in reps)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "traj_steps_per_s": statistics.median(
            r.traj_steps / r.wall_s for r in reps),
        "density_points_per_s": statistics.median(
            r.density_points / r.density_s for r in reps),
        "peak_rss_mb": peak_mb,
        "se2_x_s": float(samples.var(ddof=1)) / n_rep * wall,
    }
    return metrics, reps, errors


def traced(wl, args, fft, out_dir):
    import contextlib
    import io

    from dcollapse import cli, ensemble
    from layers import (VERIFY_SIDE, density_replay, grid_replay,
                        layers_entered, span_metrics)
    from tracing import Tracer, install_spans
    from workloads import ROUTES, load_reference

    reps, errors, _, import_s, _ = run_reps(wl, args, 1 if args.tiny else 3)

    inp = wl.inputs(args.seed, workers=1, broken=args.break_gate)
    tracer = Tracer(f"{wl.name}/seed={args.seed}")
    patches = install_spans(tracer)
    try:
        raw = tracer.wrap("bench.rep", wl.call)(inp)
        root = tracer.spans[0]
        # layers the rep never enters are measured on a traced verify call
        missing = set(VERIFY_SIDE.values()) - layers_entered(tracer, root)
        if missing:
            probe_at = len(tracer.spans)
            with contextlib.redirect_stdout(io.StringIO()) as log:
                probe_rc = tracer.wrap("bench.verify_probe", cli.main)(
                    ["verify", "--out", out_dir])
    finally:
        patches.undo()
    rep = wl.check(inp, raw)
    # the same rep untraced, on one worker, and its ensemble on two workers
    ref = wl.rep(args.seed, workers=1, broken=args.break_gate)
    two = rep.ens_cfg.replace(n_workers=2)
    t0 = time.perf_counter()
    summary_2w = ensemble.run_ensemble(two)
    wall_2w = time.perf_counter() - t0
    reps += [rep, ref]
    errors += rep.errors + ref.errors
    if not rep.fingerprint == ref.fingerprint == reps[0].fingerprint:
        errors.append("traced, untraced and first reps differ in output")
    if summary_2w.to_json() != rep.ensemble[0].to_json():
        errors.append("2-worker summary differs from the 1-worker one")

    metrics = {
        "ensemble.aborted": rep.aborted,
        "ensemble.speedup_2w": ref.ens_s / wall_2w,
        "cli.import_s": import_s,
        "trace.overhead_frac": rep.wall_s / ref.wall_s - 1.0,
    }
    metrics.update(span_metrics(tracer, root))
    if missing:
        probe = span_metrics(tracer, tracer.spans[probe_at])
        metrics.update({k: probe[k] for k, layer in VERIFY_SIDE.items()
                        if layer in missing})
        if probe_rc != 0:
            errors.append(f"verify exited {probe_rc}:\n{log.getvalue()}")
    metrics.update(grid_replay(rep.ens_cfg, args.seed, fft))
    metrics.update(density_replay(load_reference(), ROUTES))
    if metrics["trace.attributed_frac"] < ATTRIBUTED_MIN:
        print(f"warning: leaf layer spans cover only "
              f"{metrics['trace.attributed_frac']:.3f} of the traced wall",
              file=sys.stderr)
    tracer.write(os.path.join(
        out_dir, f"spans-{wl.name}-seed{args.seed}.json"))
    return metrics, reps, errors


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter.  Prints their
    tables, then one JSON line that merges their results, with metric names
    prefixed by the workload; exits with the worst exit status."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--tiny"] * args.tiny + ["--break-gate"] * args.break_gate
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1):
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print(f"{name}:", *lines[:-1], sep="\n")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in result["metrics"].items()})
        worst = max(worst, done.returncode)
    print(json.dumps(merged))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dcollapse", "__init__.py")):
        print(f"no dcollapse sources under {src}; run from the root of a "
              "dcollapse checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    fft = None
    if args.trace:
        from tracing import FFTCounter

        fft = FFTCounter()
        fft.install()
    import dcollapse
    from workloads import WORKLOADS as CLASSES

    if not os.path.abspath(dcollapse.__file__).startswith(src + os.sep):
        print(f"dcollapse was imported from {dcollapse.__file__}, not {src}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    wl = CLASSES[args.workload](tiny=args.tiny, out_dir=out_dir)

    if args.trace:
        metrics, reps, errors = traced(wl, args, fft, out_dir)
        units = PER_LAYER_UNITS
    else:
        metrics, reps, errors = untraced(wl, args)
        units = END_TO_END_UNITS
    attempted = sum(r.attempted for r in reps)
    # a failed gate fails its whole run
    failed = attempted if errors else sum(r.failed for r in reps)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics out of step with their units: "
                           f"{sorted(metrics.keys() ^ units.keys())}")
    for e in errors:
        print(f"gate failed: {e}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
