"""Regenerate bench/reference.json, the table the workload checks read.

    PYTHONPATH=src python3 bench/make_reference.py

It holds f_avg for every neuron_cold and tune_static point, the tuned
fidelity of every regular tune_static start, and the per-template tolerance
on |p_up - bell_kernel(a, b)| for network_warm.  The tolerance is the
largest deviation over product inputs a ⊗ b, found by maximising from
random starts, plus 2%, rounded up to 0.01.  Regenerate only when a change
is meant to alter these numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy.optimize import minimize

from qsnn import core, fidelity, network, neurons, parameters

import workloads

KERNEL_STARTS = 100


def f_avg(kind: str, params) -> float:
    spec = neurons.make_spec(kind, params, (0, 1), 2)
    return fidelity.average_fidelity(
        neurons.neuron_unitary(spec),
        neurons.ideal_unitary(kind, params),
        neurons.protocol_subspace(kind, params),
    ).f_avg


def kernel_deviation(template: str, rng: np.random.Generator) -> float:
    """max over product inputs of |p_up - bell_kernel| for one template."""
    spec = network.template(template)
    columns = [network.run(spec, np.eye(16, dtype=complex)[i]).amplitudes
               for i in range(16)]
    final = np.array(columns).T
    n, out = spec.num_qubits, spec.output_qubit
    up = ((np.arange(2**n) >> (n - 1 - out)) & 1) == 1
    p_up = final[up].conj().T @ final[up]
    bell = [np.kron(v, v) for v in (core.BELL_VECTORS[label]
                                   for label in core.BELL_LABELS)]
    diff = p_up - sum(np.outer(v, v.conj()) for v in bell)

    def signed(x, sign):
        a = x[0:4] + 1j * x[4:8]
        b = x[8:12] + 1j * x[12:16]
        psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        return -sign * float(np.real(psi.conj() @ diff @ psi))

    return max(
        -minimize(signed, rng.normal(size=16), args=(sign,), method="BFGS").fun
        for _ in range(KERNEL_STARTS) for sign in (1.0, -1.0)
    )


def main() -> int:
    table: dict[str, float] = {}
    for k, l in workloads.EXC_POINTS:
        table[workloads._exc_key(k, l)] = f_avg(
            "excitation", parameters.solve_exc(k, l))
    for variant, l, s, mode in workloads.FINAL_POINTS:
        params = parameters.make_final_params(
            variant, l=l, s=s, parity_k=0, drive_mode=mode,
            omega=workloads.LOCAL_FIELD_OMEGA if mode == "local_field" else None,
        )
        kind = "final_upup" if variant == "detect_upup" else "final_downdown"
        table[workloads._final_key(variant, l, s, mode)] = f_avg(kind, params)
    tuned: dict[str, float] = {}
    for m, n in workloads.TUNE_POINTS + workloads.FLOOR_POINTS:
        key = workloads._phase_key(m, n)
        params = parameters.solve_phase(m, n)
        table[key] = f_avg("phase", params)
        if (m, n) in workloads.TUNE_POINTS:
            result = parameters.tune(params, "phase",
                                     budget=workloads.TUNE_BUDGET)
            tuned[key] = result.final_fidelity
    rng = np.random.default_rng(0)
    deviation = {t: kernel_deviation(t, rng) for t in ("reduced", "full")}
    reference = {
        "f_avg": table,
        "tuned_fidelity": tuned,
        "kernel_max_deviation": deviation,
        "kernel_tolerance": {
            t: math.ceil(d * 1.02 * 100) / 100 for t, d in deviation.items()
        },
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
