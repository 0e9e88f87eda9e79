"""pbclab benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a source checkout; it imports ``pbclab`` from the
checkout's ``src/`` and nothing else, and writes only under
``.perfbench-work/`` in the checkout.  It drives the real CLI in-process
through ``pbclab.cli.main``, as a closed loop: one client, and the next
repetition of the workload's command starts when the previous one has ended.

``--trace 0`` repeats the command for ``--seconds`` seconds with tracing off,
then times set-up in fresh interpreters, and reports the end-to-end metrics
(medians over the repetitions and interpreters), with every time scaled to
the reference speed by the calibration loops (calibrate.py) timed between
them.  ``--trace 1`` alternates untraced and traced
repetitions for ``--seconds`` seconds (at least two of each) and reports
calls and self time per module function, and the tracing overhead against
the untraced repetitions.  Both modes check every
output (see checks.py) and print a summary followed, on the last line, by
one JSON object: ``correct``, ``attempted`` and ``failed`` runs, and the
metrics.  Exit status 2 means there is no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_REPS = 3
MIN_TRACED = 2  # traced rounds; their exact counts must agree
SETUP_PROBES = 11  # fresh interpreters timed per run, after one untimed warm-up
CAL_LOOPS = 3  # calibration loops before each timed repetition and after the last
# the self times of a traced repetition must sum to its wall time within this share
ACCOUNTING_TOL = 0.02


@dataclass
class Rep:
    """One repetition of the workload's command."""

    wall: float = 0.0
    code: int | None = None
    error: str = ""
    trajectories: list = field(default_factory=list)
    metrics: list = field(default_factory=list)
    reloaded: object = None
    reload_metrics: dict | None = None
    problems: list = field(default_factory=list)  # one list per run
    digests: dict = field(default_factory=dict)  # artifact name -> sha256

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


def execute(wl, out: Path) -> Rep:
    """Run the command once; the timed region is the command plus the reload."""
    from pbclab import cli, sim

    if out.exists():
        shutil.rmtree(out)
    gc.collect()  # start every repetition from the same heap, as a fresh CLI does
    rep = Rep()
    capture = spans.Capture()
    with capture.installed(), redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rep.code = cli.main(wl.argv(out))
            if wl.reload and rep.code == 0:
                (path,) = out.glob("*.csv")
                rep.reloaded = sim.Trajectory.from_csv(path)
                rep.reload_metrics = sim.compute_metrics(rep.reloaded)
        except (Exception, SystemExit):
            rep.error = traceback.format_exc()
        rep.wall = time.perf_counter() - t0
    rep.trajectories, rep.metrics = capture.trajectories, capture.metrics
    return rep


def evaluate(wl, rep: Rep, out: Path, reference) -> int:
    """Check every run of `rep`; returns the number of runs the command reported."""
    if rep.error or rep.code != 0:
        rep.problems = [[f"exit code {rep.code} {rep.error}".strip()]] * wl.runs
        return 0
    try:
        printed = checks.printed_metrics(wl.command, out)
        if len(printed) != wl.runs:
            rep.problems = [[f"{len(printed)} runs reported, {wl.runs} expected"]] * wl.runs
            return len(printed)
        rep.problems = _check_runs(wl, rep, out, printed, reference)
    except Exception:  # output the checks cannot read fails every run
        rep.problems = [[traceback.format_exc()]] * wl.runs
        return 0
    finally:
        rep.trajectories, rep.reloaded = [], None  # keep memory flat across repetitions
    rep.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
    return len(printed)


def _check_runs(wl, rep: Rep, out: Path, printed, reference) -> list:
    from pbclab import sim

    full = rep.metrics if len(rep.metrics) == wl.runs else [None] * wl.runs
    trajs = rep.trajectories if len(rep.trajectories) == wl.runs else [None] * wl.runs
    result = []
    for i, (label, shown) in enumerate(printed):
        metrics, traj = full[i], trajs[i]
        problems = checks.check_run(wl, shown if metrics is None else metrics, traj)
        if reference is not None:
            pin = reference[i]
            if pin["label"] != label:
                problems.append(f"run {i} is {label!r}, pinned {pin['label']!r}")
            problems += checks.compare(shown, pin["metrics"], checks.print_tol)
            if metrics is not None:
                problems += checks.compare(metrics, pin["metrics"], checks.pin_tol)
        if wl.command == "simulate" and traj is not None:
            (path,) = out.glob("*.csv")
            with open(path) as fh:
                header = fh.readline().strip().split(",")
            reloaded = rep.reloaded if rep.reloaded is not None else sim.Trajectory.from_csv(path)
            problems += checks.check_round_trip(traj, reloaded, header)
            if rep.reload_metrics is not None:
                problems += checks.check_reload_metrics(metrics, rep.reload_metrics)
        result.append(problems)
    return result


def fail_all(rep: Rep, problem: str):
    rep.problems = [p + [problem] for p in rep.problems]


def measure(wl, seconds: float, reference, trace: bool):
    """Closed loop: one warm-up repetition (checked, not timed), then repeat
    the command until the next round would end after `seconds`.  Without
    `trace`, `CAL_LOOPS` calibration loops are timed before every repetition
    and after the last.  With `trace`, each round is an untraced repetition followed by
    a traced one, so that the pair sees the same machine speed.  Returns the
    warm-up, the untraced repetitions, the (tracer, repetition) pairs and
    the calibration times."""
    out = WORK / wl.name
    warmup = execute(wl, out)
    evaluate(wl, warmup, out, reference)
    plain, traced, cals = [], [], []
    start = time.perf_counter()
    while True:
        if not trace:
            cals += [calibrate.loop_s() for _ in range(CAL_LOOPS)]
        rep = execute(wl, out)
        evaluate(wl, rep, out, reference)
        if rep.digests != warmup.digests:
            fail_all(rep, "artifacts differ from the first repetition")
        plain.append(rep)
        if trace:
            traced.append(traced_rep(wl, out, reference, warmup))
        elapsed = time.perf_counter() - start
        rounds = len(plain)
        next_end = elapsed * (rounds + 1) / rounds
        if rounds >= (MIN_TRACED if trace else MIN_REPS) and next_end > seconds:
            break
    if not trace:
        cals += [calibrate.loop_s() for _ in range(CAL_LOOPS)]
    first = _exact(traced[0][0]) if traced else None
    for tracer, rep in traced:
        if _exact(tracer) != first:
            fail_all(rep, "exact counts differ from the first traced repetition")
    return warmup, plain, traced, cals


def _exact(tracer):
    return tracer.counts, [calls for calls, _ in tracer.stats.values()]


def traced_rep(wl, out: Path, reference, baseline: Rep):
    """One traced repetition, with the gates that only a trace can check."""
    tracer = spans.Tracer()
    with tracer.installed():
        rep = execute(wl, out)
    tracer.counts["cli.runs"] = evaluate(wl, rep, out, reference)
    if rep.digests != baseline.digests:
        fail_all(rep, "traced artifacts differ from the untraced ones")
    if abs(tracer.root_s - rep.wall) > ACCOUNTING_TOL * rep.wall:
        fail_all(rep, f"self times sum to {tracer.root_s:.4f} s of {rep.wall:.4f} s traced")
    if tracer.counts["cli.runs"] != tracer.stats["sim.run_scenario"][0]:
        fail_all(rep, "cli.runs differs from the run_scenario calls")
    return tracer, rep


def setup_times(wl, seed: int) -> tuple:
    """Set-up times, each in a fresh interpreter (see setup_probe.py), and
    the calibration loops timed before each interpreter and after the last."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), wl.name, str(seed)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, cals = [], []
    for i in range(SETUP_PROBES + 1):
        if i:
            cals.append(calibrate.loop_s())
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    cals.append(calibrate.loop_s())
    return times, cals


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped
    children (the CLI's pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def spread(values) -> str:
    return f"median of {len(values)}; min {min(values):.6g}, max {max(values):.6g}"


def report(metrics: dict, notes: dict, attempted: int, failed: int):
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<{width}}  {value:.6g} {unit}{note}")
    print(f"  {'failed_frac':<{width}}  {failed / attempted:.6g} 1  ({failed} of {attempted} runs)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pbclab" / "cli.py").is_file():
        print(f"error: no pbclab sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import yaml

    import pbclab

    if Path(pbclab.__file__).resolve().parent != SRC / "pbclab":
        print(f"error: pbclab imported from {pbclab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    reference = checks.load_reference(wl.name, args.seed)
    mode = "traced, serial (PBCLAB_SERIAL=1)" if args.trace else "untraced"
    print(f"pbclab benchmark: {wl.name}, seed {args.seed}, {mode}; closed loop, 1 client")
    print(f"machine: nproc {os.cpu_count()}, Python {sys.version.split()[0]}, "
          f"numpy {numpy.__version__}, PyYAML {yaml.__version__}")
    if args.trace:
        # spans recorded inside pool workers cannot be collected from here
        os.environ["PBCLAB_SERIAL"] = "1"

    warmup, plain, pairs, cals = measure(wl, args.seconds, reference, bool(args.trace))
    walls = [r.wall for r in plain]
    reps = [warmup] + plain + [rep for _, rep in pairs]  # every checked repetition
    if args.trace:
        tracers = [t for t, _ in pairs]
        traced_walls = [rep.wall for _, rep in pairs]
        metrics = tracers[0].metrics()
        for name in tracers[0].stats:
            metrics[f"{name}.self_s"] = (statistics.mean(t.stats[name][1] for t in tracers), "s")
        metrics["trace.wall_s"] = (statistics.mean(traced_walls), "s")
        metrics["trace.overhead_frac"] = (sum(traced_walls) / sum(walls) - 1.0, "1")
        summary_only = ()
        notes = {"trace.wall_s": spread(traced_walls).replace("median", "mean"),
                 "trace.overhead_frac": f"against the {len(walls)} untraced repetitions "
                                        "alternating with the traced ones"}
    else:
        rss = peak_rss_mb()
        raw_setups, setup_cals = setup_times(wl, args.seed)
        cals += setup_cals
        speed = calibrate.scale(cals)
        scaled = [w * speed for w in walls]
        setups = [t * speed for t in raw_setups]
        rates = [wl.simulated_ms / w for w in scaled]
        metrics = {
            "wall_s": (statistics.median(scaled), "s"),
            "sim_ms_per_s": (statistics.median(rates), "ms/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
            "raw.wall_s": (statistics.median(walls), "s"),
            "raw.setup_s": (statistics.median(raw_setups), "s"),
            "raw.calibration_s": (statistics.median(cals), "s"),
        }
        notes = {"wall_s": spread(scaled), "sim_ms_per_s": spread(rates),
                 "setup_s": spread(setups) + ", fresh interpreters",
                 "raw.wall_s": spread(walls) + ", not scaled",
                 "raw.setup_s": spread(raw_setups) + ", not scaled",
                 "raw.calibration_s": spread(cals) + f", {calibrate.REF_S} s at reference speed"}
        summary_only = ("raw.wall_s", "raw.setup_s", "raw.calibration_s")

    attempted = sum(len(r.problems) for r in reps)
    failed = sum(r.failed for r in reps)
    report(metrics, notes, attempted, failed)
    for i, rep in enumerate(reps):
        for j, problems in enumerate(rep.problems):
            for problem in problems:
                print(f"repetition {i} run {j}: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in summary_only},
    }
    shutil.rmtree(WORK / wl.name, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:  # another workload's files are still there
        pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
