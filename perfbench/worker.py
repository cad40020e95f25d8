"""One pass of a workload in a fresh process; prints one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N --pass-index I --mode MODE

MODE is ``setup`` (import closurelab and build the seeded inputs), ``pass``
(set-up, then every item timed and checked) or ``trace`` (the same pass
with the tracer installed before set-up). run.py starts this with
PYTHONPATH pointing at the checkout's ``src``.

``setup_s``, ``wall_s``, item seconds and a traced pass's self times are
reference seconds (see hostspeed.py); ``raw_setup_s`` and ``raw_wall_s`` are
as measured, less the calibration loop's time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from hostspeed import REFERENCE_S, Sampler, speed_factor, time_loop


def run_items(cl, items, inputs, sampler: Sampler | None = None) -> tuple[float, list[dict]]:
    """Run every item back to back; return the wall time and per-item verdicts.

    With a sampler, the calibration loop runs during the items and the time
    it takes is left out of every interval returned. An exception (budget
    exhaustion included) or a wrong answer marks the item failed; the
    remaining items still run.
    """
    spent = (lambda: sampler.spent) if sampler is not None else (lambda: 0.0)
    verdicts = []
    if sampler is not None:
        sampler.start()
    try:
        first, first_spent = time.perf_counter(), spent()
        for item, A in zip(items, inputs):
            t0, spent0 = time.perf_counter(), spent()
            error = None
            try:
                answer = item.run(cl, A)
            except Exception as exc:  # every failure is counted, never fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0 - (spent() - spent0)
            verdicts.append(
                {
                    "item": item.name,
                    "ok": error is None and answer == item.expected,
                    "seconds": seconds,
                    "answer": repr(answer),
                    "error": error,
                }
            )
        wall = time.perf_counter() - first - (spent() - first_spent)
    finally:
        if sampler is not None:
            sampler.stop()
    return wall, verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "pass", "trace"])
    parser.add_argument("--trace-out", type=Path, help="stem of the span files (trace mode)")
    args = parser.parse_args(argv)
    items = workloads.WORKLOADS[args.workload]

    # Calibration around set-up, outside the timed interval.
    around = [time_loop() for _ in range(3)]
    t0 = time.perf_counter()
    import closurelab as cl

    sampler = Sampler()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, layer_metrics

        # A clock that stops while the calibration loop runs, so no span
        # counts the loop.
        tracer = Tracer(clock=lambda: time.perf_counter() - sampler.spent)
        tracer.install()
    try:
        inputs = workloads.build_inputs(cl, args.workload, items, args.seed, args.pass_index)
        raw_setup_s = time.perf_counter() - t0
        around += [time_loop() for _ in range(3)]
        setup_speed = REFERENCE_S / statistics.median(around)
        out = {"setup_s": raw_setup_s * setup_speed, "raw_setup_s": raw_setup_s}
        if args.mode != "setup":
            raw_wall_s, verdicts = run_items(cl, items, inputs, sampler)
            speed = speed_factor(sampler.samples or around)
            for v in verdicts:
                v["seconds"] *= speed
            out.update(wall_s=raw_wall_s * speed, raw_wall_s=raw_wall_s, speed=speed, items=verdicts)
    finally:
        if tracer is not None:
            tracer.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = {
            name: (value * speed if unit == "s" else value, unit)
            for name, (value, unit) in layer_metrics(tracer).items()
        }
        out["spans"] = len(tracer.span_name)
        if args.trace_out is not None:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
