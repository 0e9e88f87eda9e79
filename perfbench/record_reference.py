"""Write reference.json: every run's metrics for each workload at the default seed.

    python3 perfbench/record_reference.py

Record only on a commit whose numerics are the accepted reference; the
benchmark pins the outputs of every later commit to these values.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import checks
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    os.environ["PBCLAB_SERIAL"] = "1"  # keep every run, with full precision, in this process
    data = {"seed": workloads.DEFAULT_SEED, "workloads": {}}
    for name in workloads.NAMES:
        wl = workloads.make(name, workloads.DEFAULT_SEED)
        out = run.WORK / name
        rep = run.execute(wl, out)
        run.evaluate(wl, rep, out, None)
        if rep.failed or len(rep.metrics) != wl.runs:
            print(f"{name}: {rep.problems or rep.error}", file=sys.stderr)
            return 1
        labels = [label for label, _ in checks.printed_metrics(wl.command, out)]
        data["workloads"][name] = [
            {"label": label,
             "metrics": {k: None if isinstance(v, float) and math.isnan(v) else v
                         for k, v in sorted(metrics.items())}}
            for label, metrics in zip(labels, rep.metrics)
        ]
    shutil.rmtree(run.WORK)
    checks.REFERENCE.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
