"""One recipe call in a fresh process.

Set-up (interpreter start, importing splitma with numpy and scipy, and
generating the seeded inputs) is timed from the moment the parent spawned
this process.  Then ``splitma.cli.main`` runs the workload's recipe, timed
from entry to return, optionally under the span tracer.  The result goes
to ``result.json`` in the call directory, which is also the working
directory.

    python3 perfbench/worker.py --workload step-32 --seed 0 \
        --spawned <monotonic time> [--trace | --reference | --setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--spawned", type=float)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up and exit without a recipe call")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import splitma.cli
    from splitma import _backend

    if not Path(splitma.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"splitma imported from outside {ROOT / 'src'}")

    from workloads import WORKLOADS, write_inputs

    work = Path.cwd()
    w = WORKLOADS[args.workload]
    cfg = write_inputs(w, args.seed, work, reference=args.reference)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        (work / "result.json").write_text(json.dumps({"setup_s": setup_s}))
        return 0

    recipe = splitma.cli.main
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(f"{args.workload}:{args.seed}:{os.getpid()}")
        tracer.install()
        recipe = tracer.wrap("cli.main", recipe)
    argv = [w.command, "--config", str(cfg), "--out", str(work / "out")]
    with open(work / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
        t0 = time.perf_counter()
        code = recipe(argv)
        wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    result = {
        "exit_code": code,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "fft_workers": _backend.get_workers(),
    }
    if tracer is not None:
        from spans import layer_metrics

        tracer.dump(work / "spans.jsonl")
        layers = layer_metrics(tracer.spans)
        layers["experiments.artifact_bytes"] = sum(
            p.stat().st_size for p in (work / "out").rglob("*") if p.is_file())
        result["layers"] = layers
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
