"""In-memory spans around the qsnn module boundaries the benchmark crosses.

A span is [name, start, end, parent index].  Wrappers are attached where
the caller looks the name up: ``neurons`` calls ``core.propagator`` through
the module, so patching the module attribute is seen there, while ``cli``
imports ``measure`` by name and needs its own attribute patched.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict
from pathlib import Path

# Spans timed per op in the measured loop, in report order.
OP_SPANS = (
    "cli.main",
    "core.propagator.cosine_x",
    "core.propagator.rotating",
    "core.propagator.static_z",
    "core.evolve_sampled",
    "core.measure",
    "neurons.record_trajectory",
    "neurons.neuron_unitary.excitation",
    "neurons.neuron_unitary.phase",
    "neurons.neuron_unitary.final_upup",
    "neurons.neuron_unitary.final_downdown",
    "neurons.ideal_unitary",
    "neurons.protocol_subspace",
    "fidelity.average_fidelity",
    "parameters.tune",
    "network.run",
    "network.back_action",
    "network.from_json",
)

# Spans reported as totals over one set-up (templates, cold unitary builds,
# warm-up calls), where the work a later change may move into set-up shows.
SETUP_SPANS = (
    "cli.main",
    "network.template",
    "network.run",
    "core.propagator.cosine_x",
    "core.propagator.rotating",
    "core.propagator.static_z",
)


class Tracer:
    """Collects spans and counters of one process, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.phase_start = 0  # index of the first span of the timed phase
        self.patched: list[tuple] = []

    def wrap(self, fn, name, on_return=None):
        """fn wrapped in a span; name is a string or a function of the args."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            span = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def attach(self, module, attr: str, name, on_return=None) -> None:
        original = getattr(module, attr)
        self.patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, on_return))

    def detach(self) -> None:
        """Put back every function attach replaced, latest first."""
        while self.patched:
            module, attr, original = self.patched.pop()
            setattr(module, attr, original)

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def start_timed_phase(self) -> None:
        self.phase_start = len(self.spans)
        self.counters = defaultdict(float, {
            f"setup.{key}": value for key, value in self.counters.items()
        })

    def write(self, path: Path) -> None:
        """Spans as gzip CSV: name,start,end,parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                out.write(f"{name},{start:.9f},{end:.9f},{parent}\n")


def self_times(spans, lo: int = 0, hi: int | None = None) -> dict:
    """{name: (calls, self seconds)} over spans[lo:hi].

    A span's self time is its duration minus the part of it that its child
    spans cover; children are clipped to the parent and their overlaps
    merged, so the rule holds for any nesting, not only strictly serial
    calls.
    """
    hi = len(spans) if hi is None else hi
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans[lo:hi]:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, list] = {}
    for index in range(lo, hi):
        name, start, end, _ = spans[index]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}


def _propagator_form(hamiltonian, *args, **kwargs) -> str:
    forms = {drive.form for drive in hamiltonian.drive_terms}
    if any(form.startswith("rotating") for form in forms):
        return "core.propagator.rotating"
    if "cosine_x" in forms:
        return "core.propagator.cosine_x"
    return "core.propagator.static_z"


def install(tracer: Tracer, workloads_module) -> None:
    """Attach wrappers to every module boundary named in OP_SPANS/SETUP_SPANS."""
    from qsnn import cli, core, fidelity, network, neurons, parameters

    tracer.attach(core, "propagator", _propagator_form)
    tracer.attach(core, "evolve_sampled", "core.evolve_sampled")
    tracer.attach(core, "measure", "core.measure")
    tracer.attach(cli, "measure", "core.measure")

    def count_network_build(result, args, kwargs):
        if tracer.inside("network.run"):
            tracer.counters["network.unitary_builds"] += 1

    tracer.attach(
        neurons, "neuron_unitary",
        lambda spec, *a, **k: f"neurons.neuron_unitary.{spec.kind}",
        count_network_build,
    )
    tracer.attach(neurons, "record_trajectory", "neurons.record_trajectory")
    tracer.attach(neurons, "ideal_unitary", "neurons.ideal_unitary")
    tracer.attach(neurons, "protocol_subspace", "neurons.protocol_subspace")
    tracer.attach(fidelity, "average_fidelity", "fidelity.average_fidelity")

    def count_evaluations(result, args, kwargs):
        tracer.counters["parameters.tune.evaluations"] += result.evaluations

    tracer.attach(parameters, "tune", "parameters.tune", count_evaluations)

    def count_entries(result, args, kwargs):
        tracer.counters["network.schedule_entries"] += len(args[0].schedule)

    tracer.attach(network, "run", "network.run", count_entries)
    tracer.attach(network, "back_action", "network.back_action")
    tracer.attach(network, "from_json", "network.from_json")
    tracer.attach(network, "template", "network.template")
    tracer.attach(workloads_module, "run_cli", "cli.main")


def per_layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics: timed-phase values per op, set-up values as totals."""
    metrics = {}
    timed = self_times(tracer.spans, tracer.phase_start)
    setup = self_times(tracer.spans, 0, tracer.phase_start)
    for name in OP_SPANS:
        calls, self_s = timed.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / ops, "s/op")
    for name in SETUP_SPANS:
        calls, self_s = setup.get(name, (0, 0.0))
        metrics[f"setup.{name}.calls"] = (calls, "calls")
        metrics[f"setup.{name}.self_s"] = (self_s, "s")
    counters = tracer.counters
    metrics["cli.bytes_written"] = (counters["cli.bytes_written"] / ops, "B/op")
    evaluations = counters["parameters.tune.evaluations"]
    tune_s = sum(end - start for name, start, end, _ in
                 tracer.spans[tracer.phase_start:] if name == "parameters.tune")
    metrics["parameters.tune.evaluations"] = (evaluations / ops, "evals/op")
    metrics["parameters.tune.evals_per_s"] = (
        evaluations / tune_s if tune_s else 0.0, "1/s")
    builds = counters["network.unitary_builds"]
    entries = counters["network.schedule_entries"]
    metrics["network.unitary_builds"] = (builds / ops, "builds/op")
    metrics["network.unitary_reuse_ratio"] = (
        1.0 - builds / entries if entries else 0.0, "ratio")
    metrics["setup.network.unitary_builds"] = (
        counters["setup.network.unitary_builds"], "builds")
    return metrics
