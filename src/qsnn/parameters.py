"""Constraint solvers, detuning reports, and local fidelity tuning.

The neurons work only when their coupling constants satisfy exact phase-
matching conditions; these solvers produce valid parameter sets, report
the detuning margins that make the conditional flips selective, and tune
parameters slightly off the constraint manifold to squeeze out the
second-order phase errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from . import neurons
from .errors import (
    InvalidParamsError,
    NoRealSolutionError,
    NonPythagoreanError,
    SignInconsistencyError,
)
from .neurons import ExcNeuronParams, FinalLayerParams, NeuronSpec, PhaseNeuronParams

TUNE_BOX_FRACTION = 0.02


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

    unity mode requires a Pythagorean pair and sets γ=1; general mode sets
    γ = ±(2s − k − l + 1/2)/sqrt(l² − k²).
    """
    if not l > k > 0:
        raise InvalidParamsError(f"need l > k > 0, got k={k}, l={l}")
    root = math.sqrt(l**2 - k**2)
    if gamma_mode == "unity":
        if abs(root - round(root)) > neurons.PYTHAGOREAN_TOL:
            raise NonPythagoreanError(
                f"(k={k}, l={l}): sqrt(l²−k²) = {root:.6f} is not an integer"
            )
        gamma = 1.0
    elif gamma_mode == "general":
        if s is None:
            raise InvalidParamsError("general mode requires s")
        if sign not in (1, -1):
            raise InvalidParamsError("sign must be +1 or -1")
        gamma = sign * (2 * s - k - l + 0.5) / root
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
    floor_4m: float = neurons.DEFAULT_PHASE_FLOOR_4M,
    ratio_floor: float = neurons.DEFAULT_PHASE_RATIO_FLOOR,
) -> PhaseNeuronParams:
    """Solve the phase-neuron constraints: J = 2nB, δ = 2mB, τ = π/(2B)."""
    return PhaseNeuronParams(
        m=float(m), n=float(n), drive_amplitude=drive_amplitude,
        floor_4m=floor_4m, ratio_floor=ratio_floor,
    )


@neurons.in_arithmetic_range
def solve_final_beta(
    gamma: float,
    l: int,
    s: int,
    parity_k: int,
    drive_amplitude: float = 1.0,
) -> tuple[float, float]:
    """Solve the final-layer phase-matching condition for (β, J).

    β = A/(1+γ²)·((2s−l) + (−1)^k·γ·sqrt(l²(1+γ²) − (2s−l)²)); the J sign
    is fixed by re-verifying the un-squared matching identity
    γJ = (2s−l)A − β with J = ±sqrt(l²A² − β²).  The solve runs in units
    of the drive (A = 1), so its tolerances do not depend on A; β and J
    are scaled by A only on return.
    """
    q = 2 * s - l
    disc = l**2 * (1 + gamma**2) - q**2
    if disc < 0:
        raise NoRealSolutionError(
            f"discriminant l²(1+γ²) − (2s−l)² = {disc} is negative"
        )
    beta = 1 / (1 + gamma**2) * (q + (-1) ** parity_k * gamma * math.sqrt(disc))
    if abs(beta) > abs(l) + 1e-12:
        raise SignInconsistencyError(f"|beta|/A = {abs(beta)} exceeds |l| = {l}")
    j_mag = math.sqrt(max(l**2 - beta**2, 0.0))
    rhs = q - beta
    # Near the discriminant's zero, sqrt amplifies roundoff in j_mag by
    # ~sqrt(eps); select the J sign with a sqrt-aware tolerance, then return
    # the value that satisfies the un-squared identity to machine precision.
    best = min((j_mag, -j_mag), key=lambda j: abs(gamma * j - rhs))
    if abs(gamma * best - rhs) > 1e-6 * max(abs(l), 1.0):
        raise SignInconsistencyError(
            f"no J sign satisfies the un-squared phase identity: "
            f"γ|J| = {gamma * j_mag:.6g}, target {rhs:.6g}"
        )
    j = rhs / gamma if abs(gamma) > 1e-12 else best
    return beta * drive_amplitude, j * drive_amplitude


def make_final_params(
    variant: str,
    l: int,
    s: int,
    parity_k: int,
    gamma: float = 1.0,
    drive_amplitude: float = 1.0,
    drive_mode: str = "rotating",
    omega: float | None = None,
) -> FinalLayerParams:
    """FinalLayerParams with β and J filled in from the constraint solver.

    The phase-matching identity γJ = (2s−l)A − β aligns the relative
    phases for the hot |↑↑⟩ detector.  For the |↓↓⟩ detector the roles of
    the two extreme computational states swap, which maps the identity to
    γJ = (2s−l)A + β; negating the solved β converts one into the other
    while leaving |β| ≤ |lA| and the J magnitude untouched.
    """
    beta, j = solve_final_beta(gamma, l, s, parity_k, drive_amplitude)
    if variant == "detect_downdown":
        beta = -beta
    return FinalLayerParams(
        variant=variant, l=l, s=s, parity_k=parity_k, gamma=gamma,
        drive_amplitude=drive_amplitude, drive_mode=drive_mode, omega=omega,
        beta=beta, coupling_j=j,
    )


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
    p = spec.params
    if spec.kind == "excitation":
        return DetuningReport("excitation", p.detuning_ratios())
    if spec.kind == "phase":
        return DetuningReport("phase", {"two_delta": 2 * p.in_drive_units[1]})
    j, b = p.in_drive_units
    root = math.sqrt(j**2 + b**2)
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


def tune(
    initial, kind: str, budget: int = 300, seed: int | None = None
) -> TuneResult:
    """Simplex tuning of the continuous constraint parameters.

    Maximizes the subspace average fidelity of each candidate against the
    ideal unitary of that candidate's own (relaxed) parameters, within a
    ±2% box around the start that, for the phase neuron, is cut off at the
    hierarchy floors.  The simplex reads one neurons.FidelityModel, which
    builds the ideal, gates and subspace projections once per round(m): the
    phase neuron's ideal and post-phase gate change only where the box
    crosses a half-integer m (m ≥ 25).  The initial and final fidelities
    come from neurons.fidelity_report.
    Deterministic given the seed (the search itself is deterministic; the
    seed is accepted for interface uniformity and recorded by callers).
    """
    if budget < 1:
        raise InvalidParamsError("budget must be at least 1")
    if kind == "phase":
        x0 = np.array([initial.m, initial.n], dtype=float)
        relax = lambda x: replace(initial, m=float(x[0]), n=float(x[1]),
                                  relaxed=True)

        def feasible(x):
            # A box around a floor start crosses 4m >= floor_4m or
            # 2n >= ratio_floor * 4m; raise m, then n, back onto the floor.
            m = max(x[0], initial.floor_4m / 4)
            return np.array([m, max(x[1], initial.ratio_floor * 4 * m / 2)])
    elif kind == "excitation":
        x0 = np.array([initial.k, initial.l], dtype=float)
        relax = lambda x: replace(initial, k=float(x[0]), l=float(x[1]),
                                  relaxed=True)
        feasible = lambda x: x
    else:
        raise InvalidParamsError(f"tuning is not defined for kind {kind!r}")
    lo, hi = x0 * (1 - TUNE_BOX_FRACTION), x0 * (1 + TUNE_BOX_FRACTION)
    model = neurons.FidelityModel(kind)
    count = 0

    def objective(x):
        nonlocal count
        clipped = feasible(np.clip(x, lo, hi))
        penalty = float(np.sum((x - clipped) ** 2))
        count += 1
        return -model(relax(clipped)) + penalty

    f0 = neurons.fidelity_report(kind, relax(x0)).f_avg
    count = 0
    result = minimize(
        objective, x0, method="Nelder-Mead",
        options={
            "maxfev": max(budget - 1, 1),
            "xatol": 1e-6, "fatol": 1e-9, "adaptive": False,
        },
    )
    best_x = feasible(np.clip(result.x, lo, hi))
    best_f = neurons.fidelity_report(kind, relax(best_x)).f_avg
    if best_f < f0:
        best_x, best_f = x0, f0
    return TuneResult(
        initial_params=initial,
        tuned_params=relax(best_x),
        initial_fidelity=f0,
        final_fidelity=best_f,
        evaluations=count,
        budget_exhausted=count >= budget,
    )


def pythagorean_triples(max_l: int) -> list[tuple[int, int, int]]:
    """All (k, j, l) with k² + j² = l², k < j, l ≤ max_l (Euclid's formula)."""
    if max_l < 1:
        raise InvalidParamsError(f"max_l must be at least 1, got {max_l}")
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
