"""Tests of the benchmark's own logic.

    PYTHONPATH=src python3 -m pytest bench
"""

from __future__ import annotations

import itertools
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import stats
import tracing
import worker
import workloads
from qsnn import network


def test_tail_keeps_at_least_ten_samples_beyond():
    for n in (11, 41, 100, 999, 5000):
        samples = [float(i) for i in np.random.default_rng(n).permutation(n)]
        value, percentile = stats.tail_latency(samples)
        beyond = sum(s > value for s in samples)
        assert beyond >= stats.TAIL_MIN_BEYOND
        assert percentile <= stats.TAIL_MAX_PERCENTILE
        # the next sample up would leave fewer than ten beyond, or pass p99
        if beyond > stats.TAIL_MIN_BEYOND:
            assert 100.0 * (n - beyond + 1) / n > stats.TAIL_MAX_PERCENTILE
    assert stats.tail_latency([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    with pytest.raises(ValueError):
        stats.tail_latency([1.0] * 10)


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["b", 6.0, 8.0, 0],   # overlaps the first b: covered once
        ["root", 20.0, 21.0, -1],
    ]
    times = tracing.self_times(spans)
    assert times["root"] == (2, pytest.approx(10 - 3 - 3 + 1))
    assert times["a"] == (1, pytest.approx(2.0))
    assert times["leaf"] == (1, pytest.approx(1.0))
    assert times["b"] == (2, pytest.approx(4.0))
    assert tracing.self_times(spans, 5) == {"root": (1, pytest.approx(1.0))}


def test_wrapped_calls_record_parents_and_restore():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.inner(x) * 2

    original = Module.inner
    tracer = tracing.Tracer()
    tracer.attach(Module, "inner", "inner")
    tracer.attach(Module, "outer", lambda x: f"outer.{x}")
    assert Module.outer(3) == 8
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer.3", -1), ("inner", 0)]
    tracer.detach()
    assert Module.inner is original


def _ops(workload, seed, count=60):
    return list(itertools.islice(workload.ops(seed), count))


def _comparable(op):
    if op.kind.startswith(("reduced", "full")):
        return op.kind, op.key, tuple(a.as_tuple() for a in op.payload)
    return op


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_ops(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, workloads.load_reference())
    first = [_comparable(op) for op in _ops(workload, 7)]
    again = [_comparable(op) for op in _ops(workload, 7)]
    other = [_comparable(op) for op in _ops(workload, 8)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", ["neuron_cold", "network_warm"])
def test_every_block_has_the_fixed_mix(name, tmp_path):
    workload = workloads.WORKLOADS[name](tmp_path, workloads.load_reference())
    block = {"neuron_cold": workloads.NEURON_BLOCK,
             "network_warm": [f"{t}_json" if j else t
                              for t, j in workloads.NETWORK_BLOCK]}[name]
    ops = _ops(workload, 3, 5 * len(block))
    for start in range(0, len(ops), len(block)):
        kinds = sorted(op.kind for op in ops[start:start + len(block)])
        assert kinds == sorted(block)


def test_report_ops_take_one_point_per_cost_stratum_per_round(tmp_path):
    workload = workloads.NeuronCold(tmp_path, workloads.load_reference())
    strata = workloads.REPORT_STRATA
    pool = ([workloads._exc_key(*p) for p in workloads.EXC_POINTS]
            + [workloads._final_key(*p) for p in workloads.FINAL_POINTS])
    assert sorted(key for stratum in strata for key in stratum) == sorted(pool)
    reports = [op.key for op in _ops(workload, 5, 200) if op.kind == "report"]
    for start in range(0, len(reports) - len(strata) + 1, len(strata)):
        round_ = reports[start:start + len(strata)]
        assert all(sum(key in stratum for key in round_) == 1
                   for stratum in strata)


def test_tune_ops_visit_every_regular_start_once_per_pass(tmp_path):
    workload = workloads.TuneStatic(tmp_path, workloads.load_reference())
    points = sorted(workloads._phase_key(*p) for p in workloads.TUNE_POINTS)
    floors = {workloads._phase_key(*p) for p in workloads.FLOOR_POINTS}
    ops = _ops(workload, 3, 4 * len(points))
    for start in range(0, len(ops), len(points)):
        keys = sorted(op.key for op in ops[start:start + len(points)])
        assert keys == points
    assert not floors & {op.key for op in ops}


def test_host_factor_is_the_median_of_the_nearest_samples():
    clock = hostspeed.HostClock()
    clock.times = [float(t) for t in range(10)]
    ref = hostspeed.REFERENCE_S
    clock.samples = [ref * x for x in (1, 1, 1, 90, 1, 2, 2, 2, 3, 3)]
    assert clock.factor(2.5) == pytest.approx(1.0)   # samples 1..5, one stall
    assert clock.factor(8.5) == pytest.approx(2.0)   # clipped to the last five
    assert clock.factor(-1.0) == pytest.approx(1.0)  # clipped to the first five
    clock.sample(2)
    assert len(clock.samples) == len(clock.times) == 12
    assert all(s > 0 for s in clock.samples[-2:])


def test_summary_divides_each_latency_by_its_host_factor():
    clock = hostspeed.HostClock()
    clock.times = [0.0, 1.0, 2.0, 3.0, 4.0, 100.0, 101.0, 102.0, 103.0, 104.0]
    ref = hostspeed.REFERENCE_S
    clock.samples = [ref] * 5 + [2 * ref] * 5
    starts = [0.5 + i * 0.01 for i in range(20)] + [103.5 + i * 0.01
                                                    for i in range(20)]
    run = {"latencies": [0.010] * 20 + [0.020] * 20, "starts": starts,
           "failure_examples": [], "attempted": 40}
    figures = worker.summarize(run, clock)
    assert figures["latency_p50_ms"] == pytest.approx(10.0)
    assert figures["ops_per_s"] == pytest.approx(100.0)
    assert figures["raw_ops_per_s"] == pytest.approx(40 / 0.6)
    assert figures["raw_latency_tail_ms"] == pytest.approx(20.0)
    assert figures["failed"] == 0 and figures["error_rate"] == 0.0


def test_every_pool_point_has_a_reference():
    reference = workloads.load_reference()
    keys = ([workloads._exc_key(*p) for p in workloads.EXC_POINTS]
            + [workloads._final_key(*p) for p in workloads.FINAL_POINTS]
            + [workloads._phase_key(*p)
               for p in workloads.TUNE_POINTS + workloads.FLOOR_POINTS])
    assert set(keys) == set(reference["f_avg"])
    assert set(reference["tuned_fidelity"]) == {
        workloads._phase_key(*p) for p in workloads.TUNE_POINTS}


def test_f_avg_check_rejects_a_wrong_value():
    table = workloads.load_reference()["f_avg"]
    key = "exc:3:5"
    assert workloads.check_f_avg(key, table[key] + 5e-7, table) is None
    assert workloads.check_f_avg(key, table[key] + 2e-6, table) is not None
    # the paper point also has to hold against tests/test_acceptance.py
    shifted = dict(table, **{"exc:8:17": 0.99})
    assert workloads.check_f_avg("exc:8:17", 0.99, shifted) is not None


def test_tune_check_rejects_worse_or_over_budget_results():
    table = workloads.load_reference()["tuned_fidelity"]
    good = {"initial_fidelity": 0.9907, "tuned_fidelity": table["phase:3:82"],
            "evaluations": 94}
    assert workloads.check_tune("phase:3:82", good, table) is None
    worse = dict(good, tuned_fidelity=table["phase:3:82"] - 1e-3)
    assert workloads.check_tune("phase:3:82", worse, table) is not None
    assert workloads.check_tune(
        "phase:3:82", dict(good, evaluations=301), table) is not None
    assert workloads.check_tune(
        "phase:3:82", dict(good, tuned_fidelity=0.99), {}) is not None


class _Branch:
    def __init__(self, probability):
        self.probability = probability


def _network_case(p_up):
    a = network.BellAmplitudes.pure("Phi+")
    b = network.BellAmplitudes.from_sequence([0.6, 0.8, 0.0, 0.0])
    op = workloads.Op("reduced", "reduced", (a, b))
    spec = object()
    outcome = workloads.NetworkOutcome(
        spec, [], p_up, 1.0 - p_up, {"up": _Branch(p_up),
                                     "down": _Branch(1.0 - p_up)})
    return op, outcome, spec


def test_network_check_rejects_a_wrong_p_up():
    op, outcome, spec = _network_case(0.36 + 0.05)  # kernel is 0.36
    assert workloads.check_network(op, outcome, spec, 0.1) is None
    op, outcome, spec = _network_case(0.36 + 0.15)
    assert "kernel" in workloads.check_network(op, outcome, spec, 0.1)
    op, outcome, spec = _network_case(0.4)
    broken = outcome._replace(p_down=0.5)
    assert workloads.check_network(op, broken, spec, 0.1) is not None
    moved = outcome._replace(branches={"up": _Branch(0.3),
                                       "down": _Branch(0.6)})
    assert workloads.check_network(op, moved, spec, 0.1) is not None
    assert workloads.check_network(op, outcome, object(), 0.1) is not None


# Per-layer metrics each workload must exercise (nonzero in a traced run).
EXERCISED = {
    "neuron_cold": [
        "cli.main.calls", "setup.cli.main.calls",
        "core.propagator.cosine_x.calls", "core.propagator.rotating.calls",
        "core.evolve_sampled.calls", "neurons.record_trajectory.calls",
        "cli.bytes_written",
        "neurons.neuron_unitary.excitation.calls",
        "neurons.neuron_unitary.final_upup.calls",
        "neurons.neuron_unitary.final_downdown.calls",
        "neurons.ideal_unitary.calls", "neurons.protocol_subspace.calls",
        "fidelity.average_fidelity.calls",
    ],
    "tune_static": [
        "cli.main.calls", "core.propagator.static_z.calls",
        "neurons.neuron_unitary.phase.calls", "neurons.ideal_unitary.calls",
        "neurons.protocol_subspace.calls", "fidelity.average_fidelity.calls",
        "parameters.tune.calls", "parameters.tune.evaluations",
        "parameters.tune.evals_per_s",
    ],
    "network_warm": [
        "network.run.calls", "core.measure.calls", "network.back_action.calls",
        "network.from_json.calls", "network.unitary_reuse_ratio",
        "setup.network.template.calls", "setup.network.run.calls",
        "setup.core.propagator.cosine_x.calls",
        "setup.core.propagator.rotating.calls",
        "setup.core.propagator.static_z.calls",
        "setup.network.unitary_builds",
    ],
}


def _covering_ops(name, workload):
    """A short op list that reaches every op kind of the workload."""
    if name == "neuron_cold":
        wanted = {("traj", "exc"),
                  ("report", "final:detect_upup:17:9:rotating"),
                  ("report", "final:detect_downdown:17:9:local_field")}
    elif name == "tune_static":
        wanted = {("tune", "phase")}
    else:
        wanted = {(kind, template) for kind in
                  ("reduced", "reduced_json", "full", "full_json")
                  for template in ("reduced", "full") if kind.startswith(template)}
    chosen = []
    for op in workload.ops(0):
        match = next((w for w in wanted
                      if op.kind == w[0] and op.key.startswith(w[1])), None)
        if match is not None:
            wanted.discard(match)
            chosen.append(op)
        if not wanted:
            return chosen
    raise AssertionError("unreachable")


@pytest.mark.parametrize("name", sorted(EXERCISED))
def test_traced_run_exercises_every_named_layer(name, tmp_path):
    tracer = tracing.Tracer()
    tracing.install(tracer, workloads)
    try:
        workload = workloads.WORKLOADS[name](
            Path(tmp_path), workloads.load_reference())
        workload.setup()
        tracer.start_timed_phase()
        ops = _covering_ops(name, workload)
        run = worker.run_ops(workload, ops, 600.0, hostspeed.HostClock(),
                             tracer)
    finally:
        tracer.detach()
    assert run["attempted"] == len(ops)
    assert len(run["latencies"]) == len(ops), run["failure_examples"]
    metrics = tracing.per_layer_metrics(tracer, run["attempted"])
    for metric in EXERCISED[name]:
        assert metrics[metric][0] > 0, metric
