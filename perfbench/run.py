"""closurelab benchmark: time to certified verdicts, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload is a closed loop with one
client: items run back to back in one Python process and one thread. Every
pass, and every set-up sample, is a fresh process started from here, so no
chain or memo built in one pass helps the next, and peak memory belongs to
one pass. Passes start while one of average length would end within S
seconds (the first always runs); pass i relabels its inputs from (seed, i).

With --trace 0 the last line reports the end-to-end metrics: wall_s is the
mean over the passes, so it averages over the run's labelings, and the
others are medians. Times are in reference seconds: each pass times a
calibration loop as it runs and rescales its times by the host's speed
(hostspeed.py), so a shared host's drift does not show as a change of the
program. The measured times and the host speed are printed above that
line. With --trace 1 it reports the per-layer metrics of one traced pass,
run after one untraced pass on the same inputs. Every item's answer
is checked; the last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0
TRACE_DIR = HERE / "traces"


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, pass_index: int, mode: str, deadline: float) -> dict:
    """Run one worker process; return its report."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--pass-index={pass_index}",
        f"--mode={mode}",
    ]
    if mode == "trace":
        cmd.append(f"--trace-out={TRACE_DIR / f'{workload}-seed{seed}'}")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} pass {pass_index} passed the {RUN_LIMIT_S:g} s run limit") from None
    if proc.returncode != 0:
        raise WorkerError(f"{mode} pass {pass_index} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def verdicts(reports: list[dict]) -> tuple[int, int]:
    items = [v for r in reports for v in r["items"]]
    for v in items:
        if not v["ok"]:
            print(f"FAILED {v['item']}: answer {v['answer']} error {v['error']}", file=sys.stderr)
    return len(items), sum(not v["ok"] for v in items)


def untraced(workload: str, seed: int, seconds: int, deadline: float) -> tuple[list[dict], dict]:
    setups = [spawn(workload, seed, i, "setup", deadline)["setup_s"] for i in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    start = time.monotonic()
    elapsed = 0.0
    # Start another pass while one of average length would end within the budget.
    while not passes or elapsed + elapsed / len(passes) <= seconds:
        passes.append(spawn(workload, seed, len(passes), "pass", deadline))
        elapsed = time.monotonic() - start
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": (statistics.fmean(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    print(f"{workload} seed {seed}: {len(passes)} passes, {len(setups)} set-up samples")
    raw = statistics.fmean(p["raw_wall_s"] for p in passes)
    speed = statistics.median(p["speed"] for p in passes)
    print(f"  measured wall mean {raw:.4f} s, median host speed {speed:.4f} of the reference")
    for item in workloads.WORKLOADS[workload]:
        times = [v["seconds"] for p in passes for v in p["items"] if v["item"] == item.name]
        print(f"  item {item.name:<20} median {statistics.median(times):.4f} s over {len(times)}")
    return passes, metrics


def traced(workload: str, seed: int, deadline: float) -> tuple[list[dict], dict]:
    plain = spawn(workload, seed, 0, "pass", deadline)
    report = spawn(workload, seed, 0, "trace", deadline)
    metrics = {name: tuple(value_unit) for name, value_unit in report["layers"].items()}
    metrics["trace.overhead_share"] = (report["wall_s"] / plain["wall_s"] - 1, "share")
    print(f"{workload} seed {seed}: traced pass of {report['spans']} spans, written under {TRACE_DIR}")
    return [plain, report], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    # On SIGTERM, unwind: subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "closurelab" / "__init__.py").is_file():
        print(f"no closurelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        # Untimed warm-up: compiles the byte code once, as an installed package has it.
        spawn(args.workload, args.seed, 0, "setup", deadline)
        if args.trace:
            reports, metrics = traced(args.workload, args.seed, deadline)
        else:
            reports, metrics = untraced(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = verdicts(reports)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<45} {value:.6g} {unit}")
    print(f"  {'error_rate':<45} {failed / attempted:.6g} share of {attempted} items")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
