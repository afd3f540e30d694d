"""splitma benchmark: CLI recipe wall time, set-up time and peak memory.

    python3 perfbench/run.py --workload step-32 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Run from the root of a source checkout.  Each recipe call runs in a fresh
worker process (perfbench/worker.py), one at a time, until --seconds have
passed; metrics are medians over the calls.  With --trace 1 the calls
alternate between untraced and traced, and the per-layer metrics come
from the traced calls.  Every call's outputs are checked (see
``check_call``); the last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_TOL, WORKLOADS  # noqa: E402

CALL_TIMEOUT_S = 150
SETUP_PROBES = 3    # set-up-only workers per untraced run, besides the calls
E2E = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# per-layer metrics that are counts: they must repeat exactly across the
# traced calls of one run, and are not medians
COUNT_UNITS = {"count", "bytes"}
EXTREMA = ("min_u", "max_u", "min_lambda", "max_lambda", "min_eta", "max_eta")


def call(name: str, seed: int, directory: Path, *flags: str) -> dict:
    """Run one recipe call of workload name in a fresh worker process;
    flags are worker options such as --trace or --reference."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--spawned", repr(time.monotonic()), *flags]
    with open(directory / "stderr.txt", "w") as err:
        try:
            proc = subprocess.run(argv, cwd=directory, stdout=err,
                                  stderr=err, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"exit_code": None, "worker_exit": "timeout",
                    "problems": []}
    result_path = directory / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        return {"exit_code": None, "worker_exit": proc.returncode,
                "problems": []}
    return dict(json.loads(result_path.read_text()), problems=[])


def check_call(name: str, directory: Path, res: dict) -> list[str]:
    """Output checks of one recipe call; returns the problems found."""
    problems = []
    if res.get("exit_code") != 0:
        problems.append(f"recipe exit code {res.get('exit_code')} "
                        f"(worker exit {res.get('worker_exit', 0)})")
        return problems
    out = directory / "out"
    if WORKLOADS[name].command == "run":
        summary = json.loads((out / "summary.json").read_text())
        if summary.get("termination") != "t_end":
            problems.append(f"termination {summary.get('termination')!r}")
        for check, r in summary.get("checks", {}).items():
            if not r["passed"]:
                problems.append(f"monitor {check} failed")
        res["final_stats"] = summary["final_stats"]
        res["csv_sha256"] = hashlib.sha256(
            (out / "timeseries.csv").read_bytes()).hexdigest()
    else:
        report = json.loads((out / "identities.json").read_text())
        rows = report.get("results", [])
        if not rows:
            problems.append("identities.json has no rows")
        for row in rows:
            if not row["pass"]:
                problems.append(f"identity {row['identity']} "
                                f"beta={row['beta']}: {row['status']}")
        res["identities_sha256"] = hashlib.sha256(
            (out / "identities.json").read_bytes()).hexdigest()
    return problems


def environment(names) -> dict:
    """Machine and library facts recorded with every result."""
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    env = {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches_per_core": caches,
        "python": platform.python_version(),
    }
    for lib in ("numpy", "scipy"):
        try:
            env[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            env[lib] = None
    env["field_mb"] = {n: WORKLOADS[n].field_mb for n in names}
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work: Path) -> dict:
    """Calls of one workload for `seconds`, checked; returns the result.

    A call fails when its recipe exits non-zero or any check on its
    outputs fails; the checks that compare calls mark every call involved.
    """
    calls, traced, probes = [], [], []
    for i in range(0 if trace else SETUP_PROBES):
        res = call(name, seed, work / f"setup{i}", "--setup-only")
        if "setup_s" not in res:
            res["problems"].append(f"set-up probe failed (worker exit "
                                   f"{res.get('worker_exit')})")
        probes.append(res)
    start = time.perf_counter()
    while True:
        is_traced = trace and len(calls) > len(traced)
        directory = work / f"call{len(calls) + len(traced)}"
        res = call(name, seed, directory, *(["--trace"] if is_traced else []))
        res["problems"] += check_call(name, directory, res)
        (traced if is_traced else calls).append(res)
        for f in directory.rglob("*.field"):
            f.unlink()
        if time.perf_counter() - start >= seconds and (not trace or traced):
            break

    every = calls + traced
    ok = [r for r in every if not r["problems"]]
    every += probes
    # a seed fixes the inputs, so every call must write the same artifacts
    for key in ("csv_sha256", "identities_sha256"):
        if len({r[key] for r in ok if key in r}) > 1:
            for r in ok:
                r["problems"].append(f"{key}: artifacts differ between calls")
    if WORKLOADS[name].reference:
        ref = call(name, seed, work / "reference", "--reference")
        ref["problems"] += check_call(name, work / "reference", ref)
        every.append(ref)
        for r in ok if not ref["problems"] else ():
            for k in EXTREMA:
                err = abs(r["final_stats"][k] - ref["final_stats"][k])
                if err > REFERENCE_TOL:
                    r["problems"].append(f"{k} off the cfl/4 reference by "
                                         f"{err:.3e} > {REFERENCE_TOL:.1e}")

    metrics = {}
    if not trace and all("wall_s" in r for r in calls):
        for key, unit in E2E:
            samples = calls + probes if key == "setup_s" else calls
            metrics[key] = {"value": statistics.median(r[key] for r in samples
                                                       if key in r),
                            "unit": unit}
    if trace and all("layers" in r for r in traced):
        metrics = layer_summary(traced, calls)
    problems = [p for r in every for p in r["problems"]]
    return {
        "workload": name,
        "correct": not problems,
        "attempted": len(every),
        "failed": sum(1 for r in every if r["problems"]),
        "problems": problems,
        "fft_workers": sorted({r["fft_workers"] for r in every
                               if "fft_workers" in r}),
        "metrics": metrics,
        "samples": len(calls),
    }


def layer_summary(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: counts from the traced calls, which must agree,
    times as medians, and the tracing overhead against untraced calls."""
    out = {}
    for key, unit in per_layer_units().items():
        if key in ("trace.untraced_wall_s", "trace.overhead_s"):
            continue
        values = [r["layers"][key] for r in traced]
        if unit in COUNT_UNITS:
            if len(set(values)) > 1:
                for r in traced:
                    r["problems"].append(
                        f"{key} differs between traced calls: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        out[key] = {"value": value, "unit": unit}
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    out["trace.untraced_wall_s"] = {"value": untraced_wall, "unit": "s"}
    out["trace.overhead_s"] = {
        "value": out["trace.wall_s"]["value"] - untraced_wall, "unit": "s"}
    return out


def per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_report(result: dict, env: dict) -> None:
    name = result["workload"]
    rate = result["failed"] / result["attempted"]
    print(f"# {name}: {result['samples']} untraced calls, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    for key, m in result["metrics"].items():
        print(f"{name:18s} {key:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:18s} {'error_rate':42s} {rate:>16.6g} 1")
    for p in result["problems"]:
        print(f"{name}: FAILED CHECK: {p}")
    print("environment: " + json.dumps(
        dict(env, fft_workers=result["fft_workers"])))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "splitma" / "__init__.py").is_file():
        print("run from the root of a splitma checkout (src/splitma missing)",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment(names)
    work = root / ".perfbench_work"
    # compile splitma once, so no call's set-up pays for it
    warm = call(names[0], args.seed, work / "warmup", "--setup-only")
    if warm.get("worker_exit") not in (None, 0):
        print("worker failed to import splitma; see "
              f"{work / 'warmup' / 'stderr.txt'}", file=sys.stderr)
        return 2

    results = []
    for name in names:
        shutil.rmtree(work / name, ignore_errors=True)
        res = run_workload(name, args.seed, args.seconds, bool(args.trace),
                           work / name)
        print_report(res, env)
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
