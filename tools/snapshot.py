"""Write a snapshot of what a fixed set of pbclab commands writes and prints.

    PYTHONPATH=src python3 tools/snapshot.py OUT

runs each command below through `pbclab.cli.main`, in this process, with
its artifacts in OUT/<name>/, and writes its exit code, stdout and stderr
to OUT/<name>.txt with the artifact directory printed as <out>.  The
snapshots of two checkouts (run each with its own `src` on the path) are
the same bit for bit exactly when `diff -r` of them is empty, on one
machine under one BLAS kernel.  The set covers every preset at full
horizon, a `compare`, sweeps of a riding gain on the state loop at stride
1 and on observer feedback, a sweep of a gain no estimator of the loop
reads, raw- and extended-gradient, GPEBO, emulator and Kalman-Bucy feeds
with riders at stride 1, a classical PI at stride 1 across a reference
event, and a run that fails after two events (its partial CSV, epochs and
exit 4), on the state loop and on observer feedback.
"""

import contextlib
import io
import sys
from pathlib import Path

from pbclab import cli

PRESETS = ["fig-observer-gains", "fig-observer-compare", "fig-initial-conditions", "fig-step", "fig-load-step",
           "fig-classical-pi"]
SHORT = ["--set", "scenario.horizon=0.002"]


def _feed(*feed: str) -> list:
    """The estimators `feed` closing the loop in turn, then an FCT rider, at stride 1."""
    observers = "[" + "".join(f"{{{spec}}}, " for spec in feed) + "{name: fct, kind: fct-gpebo, gamma: 1.0e+12}]"
    return ["simulate", "--preset", "fig-observer-compare", "--set", f"observers={observers}", *SHORT,
            "--set", "scenario.stride=1"]


def _gradient_feed(mode: str) -> list:
    """A gradient of `mode` closing the loop, with a gradient rider of the same kind and an FCT rider."""
    return _feed(f"name: g, kind: gradient, gamma: 1.0e+8, mode: {mode}",
                 f"name: g2, kind: gradient, gamma: 1.0e+6, mode: {mode}")


FAIL_AFTER_EVENTS = ["simulate", "--set", "scenario.h=0.004", "--set", "scenario.horizon=4.0",
                     "--set", "scenario.stride=3", "--set", "scenario.events=[{time: 0.02, kind: load, "
                     "value: 30.0}, {time: 0.04, kind: reference, value: -10.0}]",
                     "--set", "observers=[{name: fct, kind: fct-gpebo, gamma: 1.0e+12}]"]


COMMANDS = {
    **{preset: ["simulate", "--preset", preset] for preset in PRESETS},
    "compare": ["compare", "--preset", "fig-observer-compare", "--set", "scenario.horizon=0.01"],
    "sweep-riders": ["sweep", "--preset", "fig-observer-gains", *SHORT, "--set", "scenario.stride=1",
                     "--param", "observers.0.gamma", "--values", "1e10,3e11,1e12,1e13"],
    "sweep-feedback": ["sweep", "--preset", "fig-observer-compare", *SHORT,
                       "--param", "observers.1.gamma", "--values", "1e17,1e15,1e12,1e13"],
    "feed-raw-gradient": _gradient_feed("raw"),
    "feed-extended-gradient": _gradient_feed("extended"),
    "feed-gpebo": _feed("name: g, kind: gpebo, gamma: 1.0e+17"),
    "feed-emulator": _feed("name: e, kind: emulator"),
    "feed-kbf": _feed("name: k, kind: kbf, s: 1.0, h0: 2.0"),
    "classical-pi-event": ["simulate", "--set", "controller.type=classical-pi", "--set", "controller.kp=0.008",
                           "--set", "controller.ki=8.0", *SHORT, "--set", "scenario.stride=1", "--set",
                           "scenario.events=[{time: 0.001, kind: reference, value: -25.0}]"],
    "fail-after-events": FAIL_AFTER_EVENTS,
    "feed-fails": [*FAIL_AFTER_EVENTS, "--set", "controller.feedback=observer"],
    "sweep-unread-gain": ["sweep", "--preset", "fig-observer-compare", *SHORT,
                          "--param", "observers.2.gamma", "--values", "1e12,3e12,1e13"],
}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = Path(argv[0])
    for name, args in COMMANDS.items():
        out = root / name
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([*args, "--out", str(out)])
        text = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n{stderr.getvalue()}"
        (root / f"{name}.txt").write_text(text.replace(str(out), "<out>"))
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
