"""Constraint solvers, detuning reports, and local fidelity tuning.

The neurons work only when their coupling constants satisfy exact phase-
matching conditions; these solvers produce valid parameter sets, report
the detuning margins that make the conditional flips selective, and tune
parameters slightly off the constraint manifold to squeeze out the
second-order phase errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from . import core, neurons
from .errors import InvalidParamsError
from .neurons import ExcNeuronParams, FinalLayerParams, NeuronSpec, PhaseNeuronParams

TUNE_BOX_FRACTION = 0.02
MAX_TRIPLES_L = 10**6  # the largest max_l: 1,980,642 triples, about half a GB


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
    pair; general mode sets γ = ±(2s − k − l + 1/2)/sqrt((l − k)(l + k)).
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
        gamma = sign * (2 * s - k - l + 0.5) / math.sqrt((l - k) * (l + k))
    else:
        raise InvalidParamsError(f"unknown gamma_mode {gamma_mode!r}")
    return ExcNeuronParams(
        k=float(k), l=float(l), gamma=gamma,
        drive_amplitude=drive_amplitude, j_sign=j_sign,
    )


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


@neurons.in_arithmetic_range
def solve_final_beta(
    gamma: float,
    l: int,
    s: int,
    parity_k: int,
    drive_amplitude: float = 1.0,
) -> tuple[float, float]:
    """The final-layer phase-matching solution (β, J) of the |↑↑⟩ detector,
    as FinalLayerParams solves it; the |↓↓⟩ detector negates β.  Unlike
    FinalLayerParams it also solves the points with β = 0 or J = 0, where
    no detector is detuned."""
    _check_real(gamma=gamma, drive_amplitude=drive_amplitude)
    if not (drive_amplitude > 0 and all(type(v) is int for v in (l, s, parity_k))):
        raise InvalidParamsError(f"need A > 0 and int l, s, parity_k, got "
                                 f"{drive_amplitude!r}, {l!r}, {s!r}, {parity_k!r}")
    beta, j = (v * drive_amplitude for v in neurons._phase_matching(gamma, l, s, parity_k))
    _check_real(beta=beta, coupling_j=j)  # not an inf or NaN from an overflow
    return beta, j


# FinalLayerParams solves its own β and J; this is its older name.
make_final_params = FinalLayerParams


@dataclass(frozen=True)
class DetuningReport:
    """Detuning-to-drive ratios for the transitions a neuron suppresses."""

    kind: str
    ratios: dict[str, float]

    def __post_init__(self):
        neurons.check_ratios(self.ratios)


def detuning_report(spec: NeuronSpec) -> DetuningReport:
    """Detuning-to-drive ratios, from the energies in units of the drive."""
    core.check_type(NeuronSpec, spec)
    p = spec.params
    if spec.kind == "phase":
        return DetuningReport("phase", {"two_delta": 2 * p.in_drive_units[1]})
    j, b = p.in_drive_units
    root = math.sqrt(j**2 + b**2)
    if spec.kind == "excitation":
        return DetuningReport("excitation", {
            "delta_0": abs(2 * b),
            "delta_minus": 2 * j**2 / (root + b),  # 2(r − β), without r − β's cancellation
            "delta_plus": abs(2 * b + 2 * root),
        })
    return DetuningReport(spec.kind, p.detuning_ratios)


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


def _nelder_mead(f, x0, maxfev: int):
    """Minimize f from x0 by the downhill simplex of Nelder & Mead (Comput.
    J. 7, 308 (1965)), step for step as scipy's minimize(method="Nelder-Mead",
    adaptive=False, xatol=1e-6, fatol=1e-9) takes it, on lists of floats.  A
    call that would exceed maxfev is not made: the iteration ends there.
    Returns the best vertex and the calls made."""
    n, calls = len(x0), 0
    x0 = [float(v) for v in x0]
    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1:]
                  for k, v in enumerate(x0)]
    fsim = [math.inf] * (n + 1)
    for k in range(min(n + 1, maxfev)):
        calls, fsim[k] = calls + 1, f(sim[k])
    while True:  # an iteration that spends the budget ends at the test below
        # Stable, NaN last: np.argsort's order for the 3 vertices of a 2-D search.
        order = sorted(range(n + 1), key=lambda i: (fsim[i] != fsim[i], fsim[i]))
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        # all() of NaN comparisons is false, as np.max(...) <= tol is.
        if calls >= maxfev or (all(abs(a - b) <= 1e-6 for v in sim[1:] for a, b in zip(v, sim[0]))
                               and all(abs(fsim[0] - g) <= 1e-9 for g in fsim[1:])):
            return sim[0], calls
        xbar = [reduce(float.__add__, c) / n for c in zip(*sim[:-1])]  # rows in order
        xr = [2 * a - b for a, b in zip(xbar, sim[-1])]
        calls, fxr = calls + 1, f(xr)
        if fxr < fsim[0]:
            if calls == maxfev:
                continue
            xe = [3 * a - 2 * b for a, b in zip(xbar, sim[-1])]
            calls, fxe = calls + 1, f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract outside xr's side, or inside; else shrink
            if calls == maxfev:
                continue
            outside = fxr < fsim[-1]
            xc = [1.5 * a - 0.5 * b if outside else 0.5 * a + 0.5 * b
                  for a, b in zip(xbar, sim[-1])]
            calls, fxc = calls + 1, f(xc)
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = [a + 0.5 * (b - a) for a, b in zip(sim[0], sim[j])]
                    if calls == maxfev:
                        break
                    calls, fsim[j] = calls + 1, f(sim[j])


def tune(
    initial, kind: str, budget: int = 300, seed: int | None = None,
    f0: float | None = None,
) -> TuneResult:
    """Simplex tuning of the continuous constraint parameters.

    Maximizes the subspace average fidelity of each candidate against the
    ideal unitary of that candidate's own (relaxed) parameters, within a
    ±2% box around the start.  The simplex reads one neurons.FidelityModel
    at points x = (m, n) or (k, l), valid by construction: the objective
    clips x to the box and clamps it to the phase neuron's hierarchy floors or
    to the excitation neuron's l > k, so the class checks run on the start
    and on the returned point.  Each distinct point is scored once, the
    start (the first vertex) by f0 when given (the CLI passes its report's
    f_avg, so initial_fidelity is that f_avg), else by the model, within
    1e-15 of neurons.fidelity_report (the phase neuron's within 1e-12 up to
    n = 300; see README): the model runs at most `evaluations` times.  The
    search is deterministic; the seed is accepted for interface uniformity.
    """
    if type(budget) is not int or budget < 1:
        raise InvalidParamsError(f"budget must be an int of at least 1, got {budget!r}")
    if f0 is not None:
        _check_real(f0=f0)
        if not -1e-9 <= f0 <= 1 + 1e-9:  # FidelityReport's slack
            raise InvalidParamsError(f"f0 must lie in [0, 1], got {f0!r}")
    model = neurons.FidelityModel(kind, initial)  # rejects any other kind
    x0 = tuple(float(getattr(initial, f)) for f in model.fields)
    lo_a, lo_b = (v * (1 - TUNE_BOX_FRACTION) for v in x0)
    hi_a, hi_b = (v * (1 + TUNE_BOX_FRACTION) for v in x0)
    phase = kind == "phase"
    floor_m, ratio = neurons.PHASE_FLOOR_4M / 4, neurons.PHASE_RATIO_FLOOR * 4
    # Each distinct point costs one model call; a given f0 scores the start.
    scores, moved = {x0: model(x0) if f0 is None else f0}, x0

    def objective(x):
        """Minus the score of x moved onto the box and the floors, plus the squared move."""
        nonlocal moved
        a, b = min(max(x[0], lo_a), hi_a), min(max(x[1], lo_b), hi_b)
        if phase:
            # A box around a floor start crosses a floor; raise m, then n, back onto it.
            a = max(a, floor_m)
            b = max(b, ratio * a / 2)
        else:
            # A box around l/k < 1.02/0.98 reaches k >= l; keep l just above k.
            b = max(b, math.nextafter(a, math.inf))
        if (moved := (a, b)) not in scores:
            scores[moved] = model(moved)
        dm, dn = x[0] - a, x[1] - b
        return -scores[moved] + (dm * dm + dn * dn)

    # The simplex's budget leaves out the start, though its first vertex is x0.
    maxfev = max(budget - 1, 1)
    x, count = _nelder_mead(objective, x0, maxfev)
    objective(x)  # moves the returned vertex onto the box: scored in the search, no model call
    return TuneResult(
        initial_params=initial,
        tuned_params=model.params_at(moved),
        initial_fidelity=scores[x0],
        final_fidelity=scores[moved],
        evaluations=count,
        budget_exhausted=count >= maxfev,
    )


def pythagorean_triples(max_l: int) -> list[tuple[int, int, int]]:
    """All (k, j, l) with k² + j² = l², k < j, l ≤ max_l (Euclid's formula)."""
    if not (core._is_index(max_l) and max_l >= 1):
        raise InvalidParamsError(
            f"max_l must be an integer of at least 1, got {core._shown(max_l)}")
    if max_l > MAX_TRIPLES_L:
        raise InvalidParamsError(f"max_l must be at most {MAX_TRIPLES_L}")
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
