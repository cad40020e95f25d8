"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

The tracer tests use the tiny workload (the A5 spectrum and A5 on 2-subsets);
the seed test runs every workload item under two seeds, about a minute in
all.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import closurelab as cl  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_S, Sampler, speed_factor  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from worker import run_items  # noqa: E402


def answers(items, seed: int, tracer: Tracer | None = None) -> list[str]:
    if tracer is not None:
        tracer.install()
    try:
        inputs = workloads.build_inputs(cl, "tiny", items, seed, 0)
        _, verdicts = run_items(cl, items, inputs)
    finally:
        if tracer is not None:
            tracer.restore()
    assert all(v["ok"] for v in verdicts), verdicts
    return [v["answer"] for v in verdicts]


def bindings() -> dict[tuple[str, str], object]:
    """Every name bound in a closurelab namespace or on PermGroup and Budget."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "closurelab":
            out.update({(name, attr): value for attr, value in vars(module).items()})
    for cls in (cl.PermGroup, cl.Budget):
        out.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return out


def test_seed_relabels_points_and_keeps_the_group():
    A = cl.catalog_group("M11")
    one = workloads.relabel(cl, A, workloads.item_rng("tiny", 1, 0))
    two = workloads.relabel(cl, A, workloads.item_rng("tiny", 2, 0))
    again = workloads.relabel(cl, A, workloads.item_rng("tiny", 1, 0))
    assert one.group.generators != two.group.generators
    assert one.group.generators == again.group.generators
    assert sorted(one.domain.labels) == sorted(A.domain.labels)
    assert one.group.order() == two.group.order() == A.group.order()


def test_traced_and_untraced_answers_are_identical():
    items = workloads.TINY
    assert answers(items, 1, Tracer()) == answers(items, 1)


def test_layer_counts_repeat_exactly_across_traced_runs():
    first, second = Tracer(), Tracer()
    answers(workloads.TINY, 3, first)
    answers(workloads.TINY, 3, second)
    assert first.names == second.names
    assert (first.calls, first.nodes) == (second.calls, second.nodes)
    assert first.stat("closure.k_closure")[0] > 0
    assert first.stat("closure.k_closure")[2] > 0
    one, two = layer_metrics(first), layer_metrics(second)
    assert one.keys() == two.keys()
    for name, (value, unit) in one.items():
        if unit != "s":
            assert two[name] == (value, unit), name


def test_restore_puts_back_every_original():
    before = bindings()
    tracer = Tracer()
    answers(workloads.TINY, 1, tracer)
    assert tracer.stat("stabchain.build_chain")[0] > 0
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_spans_are_written_and_nest(tmp_path):
    tracer = Tracer()
    answers(workloads.TINY[:1], 1, tracer)
    tracer.write(tmp_path / "spans")
    n = len(tracer.span_name)
    assert (tmp_path / "spans.bin").stat().st_size == n * (4 + 4 + 8 + 8)
    for i in range(n):
        parent = tracer.span_parent[i]
        assert tracer.span_start[i] <= tracer.span_end[i]
        if parent >= 0:
            assert parent < i
            assert tracer.span_start[parent] <= tracer.span_start[i]
            assert tracer.span_end[i] <= tracer.span_end[parent]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_seeds_give_identical_answers(workload):
    items = workloads.WORKLOADS[workload]
    results = []
    for seed in (1, 2):
        inputs = workloads.build_inputs(cl, workload, items, seed, 0)
        _, verdicts = run_items(cl, items, inputs)
        results.append([(v["item"], v["answer"], v["ok"]) for v in verdicts])
    assert results[0] == results[1]
    assert all(ok for _, _, ok in results[0])


def test_speed_factor_drops_outliers():
    assert speed_factor([REFERENCE_S] * 10) == pytest.approx(1.0)
    assert speed_factor([2 * REFERENCE_S] * 8 + [1e-6, 1e3]) == pytest.approx(0.5)


def test_sampler_runs_during_items_and_is_left_out_of_their_time():
    items = workloads.WORKLOADS["closure-mathieu"][:1]
    inputs = workloads.build_inputs(cl, "closure-mathieu", items, 1, 0)
    handler = signal.getsignal(signal.SIGALRM)
    sampler = Sampler()
    wall, verdicts = run_items(cl, items, inputs, sampler)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(v["ok"] for v in verdicts), verdicts
    assert sampler.samples
    assert sampler.spent == pytest.approx(sum(sampler.samples))
    assert 0 < verdicts[0]["seconds"] <= wall
