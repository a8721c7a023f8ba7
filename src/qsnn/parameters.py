"""Constraint solvers, detuning reports, and local fidelity tuning.

The neurons work only when their coupling constants satisfy exact phase-
matching conditions; these solvers produce valid parameter sets, report
the detuning margins that make the conditional flips selective, and tune
parameters slightly off the constraint manifold to squeeze out the
second-order phase errors.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import core, neurons
from .errors import InvalidParamsError
from .neurons import ExcNeuronParams, FinalLayerParams, NeuronSpec, PhaseNeuronParams

TUNE_BOX_FRACTION = 0.02


def _check_real(**values) -> None:
    for name, value in values.items():
        if not core.is_finite_real(value):
            raise InvalidParamsError(f"{name} must be a finite real number, got {value!r}")


@neurons.in_arithmetic_range
def solve_exc(
    k: int,
    l: int,
    drive_amplitude: float = 1.0,
    gamma_mode: str = "unity",
    s: int | None = None,
    sign: int = 1,
    j_sign: int = 1,
) -> ExcNeuronParams:
    """Solve the excitation-neuron phase constraints for (k, l).

    unity mode sets γ=1, for which ExcNeuronParams requires a Pythagorean
    pair; general mode sets γ = ±(2s − k − l + 1/2)/sqrt(l² − k²).
    """
    _check_real(k=k, l=l)
    if not l > k > 0:
        raise InvalidParamsError(f"need l > k > 0, got k={k}, l={l}")
    if gamma_mode == "unity":
        gamma = 1.0
    elif gamma_mode == "general":
        if s is None:
            raise InvalidParamsError("general mode requires s")
        _check_real(s=s)
        if sign not in (1, -1):
            raise InvalidParamsError("sign must be +1 or -1")
        gamma = sign * (2 * s - k - l + 0.5) / math.sqrt(l**2 - k**2)
    else:
        raise InvalidParamsError(f"unknown gamma_mode {gamma_mode!r}")
    return ExcNeuronParams(
        k=float(k), l=float(l), gamma=gamma,
        drive_amplitude=drive_amplitude, j_sign=j_sign,
    )


@neurons.in_arithmetic_range
def solve_phase(
    m: int,
    n: int,
    drive_amplitude: float = 1.0,
) -> PhaseNeuronParams:
    """Solve the phase-neuron constraints: J = 2nB, δ = 2mB, τ = π/(2B)."""
    _check_real(m=m, n=n)
    return PhaseNeuronParams(
        m=float(m), n=float(n), drive_amplitude=drive_amplitude,
    )


def solve_final_beta(
    gamma: float,
    l: int,
    s: int,
    parity_k: int,
    drive_amplitude: float = 1.0,
) -> tuple[float, float]:
    """The final-layer phase-matching solution (β, J) of the |↑↑⟩ detector,
    as FinalLayerParams solves it; the |↓↓⟩ detector negates β."""
    p = FinalLayerParams("detect_upup", l, s, parity_k, gamma, drive_amplitude)
    return p.beta, p.coupling_j


# FinalLayerParams solves its own β and J; this is its older name.
make_final_params = FinalLayerParams


@dataclass(frozen=True)
class DetuningReport:
    """Detuning-to-drive ratios for the transitions a neuron suppresses."""

    kind: str
    ratios: dict[str, float]

    def __post_init__(self):
        for label, value in self.ratios.items():
            if not (math.isfinite(value) and value > 0):
                raise InvalidParamsError(f"ratio {label} = {value} not positive")


def detuning_report(spec: NeuronSpec) -> DetuningReport:
    """Detuning-to-drive ratios, from the energies in units of the drive."""
    if not isinstance(spec, NeuronSpec):
        raise InvalidParamsError(f"detuning_report needs a NeuronSpec, got {spec!r}")
    p = spec.params
    if spec.kind == "phase":
        return DetuningReport("phase", {"two_delta": 2 * p.in_drive_units[1]})
    j, b = p.in_drive_units
    root = math.sqrt(j**2 + b**2)
    if spec.kind == "excitation":
        return DetuningReport("excitation", {
            "delta_0": abs(2 * b),
            "delta_minus": abs(2 * b - 2 * root),
            "delta_plus": abs(2 * b + 2 * root),
        })
    sign = 1.0 if p.variant == "detect_upup" else -1.0
    # transitions of the three non-detected computational inputs vs the
    # selective drive at frequency 2β (+ for up-up detection)
    ratios = {
        "opposite_pair": abs(sign * 2 * b - (-sign * 2 * b)),
        "one_excitation_minus": abs(sign * 2 * b - 2 * root),
        "one_excitation_plus": abs(sign * 2 * b + 2 * root),
    }
    if p.drive_mode == "local_field":
        ratios["counter_term"] = 2 * abs(p.omega / p.drive_amplitude)
    return DetuningReport(spec.kind, ratios)


@dataclass(frozen=True)
class TuneResult:
    initial_params: object
    tuned_params: object
    initial_fidelity: float
    final_fidelity: float
    evaluations: int
    budget_exhausted: bool

    def __post_init__(self):
        if self.final_fidelity < self.initial_fidelity - 1e-12:
            raise InvalidParamsError("tuner must never return a worse point")


class _BudgetSpent(Exception):
    """A call would exceed the simplex's budget."""


def _nelder_mead(f, x0, maxfev: int, xatol: float = 1e-6, fatol: float = 1e-9):
    """Minimize f from x0 by the downhill simplex of Nelder & Mead (Comput.
    J. 7, 308 (1965)), step for step as scipy's minimize(method="Nelder-Mead",
    adaptive=False) takes it.  A call that would exceed maxfev is not made:
    the iteration ends there.  Returns the best vertex and the calls made."""
    n, calls = len(x0), 0
    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    sim[1:][np.diag_indices(n)] = np.where(sim[0] != 0, 1.05 * sim[0], 0.00025)
    fsim = np.full(n + 1, np.inf)

    def fun(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return f(np.copy(x))

    with contextlib.suppress(_BudgetSpent):
        for k in range(n + 1):
            fsim[k] = fun(sim[k])
    while True:
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
        if calls >= maxfev or (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                               and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            return sim[0], calls
        xbar = np.add.reduce(sim[:-1], 0) / n
        with contextlib.suppress(_BudgetSpent):
            xr = 2 * xbar - sim[-1]
            fxr = fun(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = fun(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside xr's side, or inside; else shrink
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = fun(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = fun(sim[j])


def tune(
    initial, kind: str, budget: int = 300, seed: int | None = None
) -> TuneResult:
    """Simplex tuning of the continuous constraint parameters.

    Maximizes the subspace average fidelity of each candidate against the
    ideal unitary of that candidate's own (relaxed) parameters, within a
    ±2% box around the start.  The simplex reads one neurons.FidelityModel
    at points x = (m, n) or (k, l), valid by construction: the box is
    clipped and feasible() clamps to the phase neuron's hierarchy floors or
    to the excitation neuron's l > k, so the class checks run on the start
    and on the returned point.  The initial and final fidelities come from
    the same model, within 1e-15 of neurons.fidelity_report.  The search is
    deterministic; the seed is accepted for interface uniformity.
    """
    if type(budget) is not int or budget < 1:
        raise InvalidParamsError(f"budget must be an int of at least 1, got {budget!r}")
    model = neurons.FidelityModel(kind, initial)  # rejects any other kind
    x0 = np.array([getattr(initial, f) for f in model.fields], dtype=float)
    lo, hi = x0 * (1 - TUNE_BOX_FRACTION), x0 * (1 + TUNE_BOX_FRACTION)

    def feasible(x):
        x = np.clip(x, lo, hi)
        if kind == "phase":
            # A box around a floor start crosses 4m >= floor_4m or
            # 2n >= ratio_floor * 4m; raise m, then n, back onto the floor.
            m = max(x[0], initial.floor_4m / 4)
            x = np.array([m, max(x[1], initial.ratio_floor * 4 * m / 2)])
        else:
            # A box around l/k < 1.02/0.98 reaches k >= l; keep l just above k.
            x = np.array([x[0], max(x[1], np.nextafter(x[0], np.inf))])
        return x

    def objective(x):
        clipped = feasible(x)
        penalty = float(np.sum((x - clipped) ** 2))
        return -model(clipped) + penalty

    f0 = model(x0)
    # One call of the budget goes to f0.
    maxfev = max(budget - 1, 1)
    x, count = _nelder_mead(objective, x0, maxfev)
    best_x = feasible(x)
    best_f = model(best_x)
    if best_f < f0:
        best_x, best_f = x0, f0
    return TuneResult(
        initial_params=initial,
        tuned_params=model.params_at(best_x),
        initial_fidelity=f0,
        final_fidelity=best_f,
        evaluations=count,
        budget_exhausted=count >= maxfev,
    )


def pythagorean_triples(max_l: int) -> list[tuple[int, int, int]]:
    """All (k, j, l) with k² + j² = l², k < j, l ≤ max_l (Euclid's formula)."""
    if not (core._is_index(max_l) and max_l >= 1):
        raise InvalidParamsError(f"max_l must be an integer of at least 1, got {max_l!r}")
    triples = set()
    for p in range(2, int(math.isqrt(max_l)) + 2):
        for q in range(1, p):
            if (p - q) % 2 == 1 and math.gcd(p, q) == 1:
                a, b, c = p * p - q * q, 2 * p * q, p * p + q * q
                scale = 1
                while scale * c <= max_l:
                    k, j = sorted((scale * a, scale * b))
                    triples.add((k, j, scale * c))
                    scale += 1
    return sorted(triples, key=lambda t: (t[2], t[0]))
