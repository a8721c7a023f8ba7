"""Constraint solvers, detuning diagnostics, and fidelity tuning."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from qsnn import core, errors, neurons, parameters


class TestPythagoreanTriples:
    def test_known_triples_present(self):
        triples = parameters.pythagorean_triples(30)
        assert (3, 4, 5) in triples
        assert (8, 15, 17) in triples
        assert (20, 21, 29) in triples

    def test_all_entries_satisfy_identity(self):
        for k, j, l in parameters.pythagorean_triples(60):
            assert k * k + j * j == l * l
            assert l <= 60


class TestSolveExc:
    def test_3_5_unity(self):
        p = parameters.solve_exc(3, 5)
        assert p.gamma == pytest.approx(1.0)
        assert p.k == 3 and p.l == 5
        # beta = kA and J = sqrt(l^2-k^2) A = 4A.
        assert p.beta == pytest.approx(3.0)
        assert p.coupling_j == pytest.approx(4.0)

    def test_8_17_unity(self):
        p = parameters.solve_exc(8, 17)
        assert p.beta == pytest.approx(8.0)
        assert p.coupling_j == pytest.approx(15.0)

    def test_general_gamma_mode(self):
        p = parameters.solve_exc(8, 17, gamma_mode="general", s=13, sign=1)
        assert p.gamma == pytest.approx(0.1, abs=1e-12)

    def test_non_pythagorean_rejected(self):
        with pytest.raises(errors.NonPythagoreanError):
            parameters.solve_exc(2, 3)

    def test_drive_amplitude_scales_energies(self):
        p = parameters.solve_exc(3, 5, drive_amplitude=2.5)
        assert p.beta == pytest.approx(3.0 * 2.5)
        assert p.coupling_j == pytest.approx(4.0 * 2.5)

    @given(
        st.sampled_from(parameters.pythagorean_triples(60)),
        st.floats(0.5, 4.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_unity_mode_phase_conditions(self, triple, amp):
        # The phase-matching conditions behind the construction: beta is an
        # integer multiple of A and J^2 + beta^2 = (lA)^2.
        k, _, l = triple
        p = parameters.solve_exc(k, l, drive_amplitude=amp)
        assert abs(p.beta / amp - round(p.beta / amp)) < 1e-10
        assert p.coupling_j**2 + p.beta**2 == pytest.approx(
            (l * amp) ** 2, rel=1e-12
        )


class TestSolvePhase:
    def test_3_82(self):
        p = parameters.solve_phase(3, 82)
        # J = 2nB and delta = 2mB.
        assert p.coupling_j == pytest.approx(164.0)
        assert p.delta == pytest.approx(6.0)

    def test_hierarchy_violation_rejected(self):
        with pytest.raises(errors.HierarchyViolationError):
            parameters.solve_phase(3, 4)

    def test_headroom_warning_flag(self):
        assert parameters.solve_phase(5, 80).hierarchy_warning
        assert not parameters.solve_phase(3, 82).hierarchy_warning


class TestSolveFinal:
    def test_quoted_example(self):
        beta, coupling_j = parameters.solve_final_beta(1.0, 5, 4, 0)
        assert beta == pytest.approx((3 + math.sqrt(41)) / 2, abs=1e-12)
        # gamma*J = (2s - l)A - beta must hold.
        assert 1.0 * coupling_j == pytest.approx(3.0 - beta, abs=1e-10)

    def test_no_real_solution(self):
        with pytest.raises(errors.NoRealSolutionError):
            parameters.solve_final_beta(1.0, 2, 5, 0)

    def test_random_draws_satisfy_matching_identity(self):
        rng = np.random.default_rng(5)
        found = 0
        while found < 200:
            gamma = rng.uniform(0.2, 3.0)
            l = int(rng.integers(2, 40))
            s = int(rng.integers(0, l + 1))
            parity_k = int(rng.integers(0, 2))
            amp = rng.uniform(0.5, 2.0)
            try:
                beta, coupling_j = parameters.solve_final_beta(
                    gamma, l, s, parity_k, drive_amplitude=amp
                )
            except errors.NoRealSolutionError:
                continue
            found += 1
            q = (2 * s - l) * amp
            assert gamma * coupling_j == pytest.approx(q - beta, abs=1e-10)
            assert coupling_j**2 + beta**2 == pytest.approx(
                (l * amp) ** 2, rel=1e-10
            )
            assert abs(beta / (amp * l)) <= 1.0 + 1e-12

    def test_downdown_variant_negates_beta(self):
        up = parameters.make_final_params("detect_upup", 5, 4, 0)
        down = parameters.make_final_params("detect_downdown", 5, 4, 0)
        assert down.beta == pytest.approx(-up.beta)
        assert down.coupling_j == pytest.approx(up.coupling_j)


class TestDetuningReport:
    def test_exc_8_17(self, exc_spec):
        report = parameters.detuning_report(exc_spec)
        assert report.kind == "excitation"
        assert sorted(report.ratios.values()) == pytest.approx(
            [16.0, 18.0, 50.0]
        )

    def test_phase_3_82(self, phase_spec):
        report = parameters.detuning_report(phase_spec)
        assert list(report.ratios.values()) == pytest.approx([12.0])

    def test_local_field_counter_rotating_ratio(self):
        fp = parameters.make_final_params(
            "detect_upup", 29, 15, 0, drive_mode="local_field", omega=50.0
        )
        spec = neurons.make_spec("final_upup", fp, (0, 1), 2)
        report = parameters.detuning_report(spec)
        assert report.ratios["counter_term"] == pytest.approx(100.0)

    @pytest.mark.parametrize("amplitude", [1e-200, 2.5, 1e200])
    @pytest.mark.parametrize("kind, make", [
        ("excitation", lambda a: parameters.solve_exc(8, 17, a)),
        ("phase", lambda a: parameters.solve_phase(3, 82, a)),
        ("final_upup", lambda a: parameters.make_final_params(
            "detect_upup", 29, 15, 0, drive_amplitude=a)),
        ("final_downdown", lambda a: parameters.make_final_params(
            "detect_downdown", 29, 15, 0, drive_amplitude=a,
            drive_mode="local_field", omega=50 * a)),
    ])
    def test_ratios_do_not_depend_on_amplitude(self, kind, make, amplitude):
        # J² + β² neither underflows nor overflows: the ratios come from
        # the energies in units of the drive.
        unit, scaled = (
            parameters.detuning_report(neurons.make_spec(kind, make(a), (0, 1), 2))
            for a in (1.0, amplitude)
        )
        assert scaled.ratios == pytest.approx(unit.ratios, rel=1e-12)
        if kind == "excitation":
            assert make(amplitude).detuning_ratios() == pytest.approx(
                unit.ratios, rel=1e-12)


class TestTune:
    def test_monotone_and_reproducible(self, exc_8_17):
        a = parameters.tune(exc_8_17, "excitation", budget=40, seed=3)
        b = parameters.tune(exc_8_17, "excitation", budget=40, seed=3)
        assert a.final_fidelity >= a.initial_fidelity
        assert a.evaluations <= 40
        assert (a.final_fidelity, a.evaluations) == (
            b.final_fidelity,
            b.evaluations,
        )

    def test_budget_of_one_returns_start(self, exc_8_17):
        result = parameters.tune(exc_8_17, "excitation", budget=1, seed=0)
        assert result.evaluations == 1
        assert result.budget_exhausted
        assert result.final_fidelity == pytest.approx(result.initial_fidelity)

    def test_zero_budget_rejected(self, exc_8_17):
        with pytest.raises(errors.InvalidParamsError):
            parameters.tune(exc_8_17, "excitation", budget=0)

    @pytest.mark.parametrize("m, n", [(2, 20), (3, 30), (6, 60)])
    def test_hierarchy_floor_start(self, m, n):
        # The +-2% box around a start on 4m = floor_4m or 2n = 5*4m reaches
        # invalid parameters; the tuner keeps its candidates valid instead.
        start = parameters.solve_phase(m, n)
        result = parameters.tune(start, "phase", budget=100)
        assert isinstance(result, parameters.TuneResult)
        assert result.final_fidelity >= result.initial_fidelity
        tuned = result.tuned_params
        assert 4 * tuned.m >= start.floor_4m
        assert 2 * tuned.n >= start.ratio_floor * 4 * tuned.m


def _tune_by_reports(initial, kind: str, budget: int):
    """The tuner before its fidelity model: a full fidelity_report per
    simplex evaluation, driven by the same minimize call.  Returns the tuned
    params, the evaluation count and the initial and final fidelities."""
    if kind == "phase":
        x0 = np.array([initial.m, initial.n], dtype=float)
        relax = lambda x: replace(initial, m=float(x[0]), n=float(x[1]),
                                  relaxed=True)

        def feasible(x):
            m = max(x[0], initial.floor_4m / 4)
            return np.array([m, max(x[1], initial.ratio_floor * 4 * m / 2)])
    else:
        x0 = np.array([initial.k, initial.l], dtype=float)
        relax = lambda x: replace(initial, k=float(x[0]), l=float(x[1]),
                                  relaxed=True)
        feasible = lambda x: x
    lo, hi = x0 * 0.98, x0 * 1.02
    count = 0

    def objective(x):
        nonlocal count
        clipped = feasible(np.clip(x, lo, hi))
        count += 1
        penalty = float(np.sum((x - clipped) ** 2))
        return -neurons.fidelity_report(kind, relax(clipped)).f_avg + penalty

    f0 = neurons.fidelity_report(kind, relax(x0)).f_avg
    result = minimize(
        objective, x0, method="Nelder-Mead",
        options={"maxfev": max(budget - 1, 1), "xatol": 1e-6, "fatol": 1e-9,
                 "adaptive": False},
    )
    best_x = feasible(np.clip(result.x, lo, hi))
    best_f = neurons.fidelity_report(kind, relax(best_x)).f_avg
    if best_f < f0:
        best_x, best_f = x0, f0
    return relax(best_x), count, f0, best_f


@pytest.mark.parametrize("kind, start, budget", [
    ("phase", (3, 82), 300),
    ("phase", (2, 20), 300),    # a hierarchy-floor start
    ("phase", (25, 300), 300),  # the box crosses m = 24.5
    ("excitation", (8, 17), 40),
])
def test_tune_matches_the_report_driven_tuner(kind, start, budget):
    solve = parameters.solve_phase if kind == "phase" else parameters.solve_exc
    initial = solve(*start)
    tuned, evaluations, f0, f1 = _tune_by_reports(initial, kind, budget)
    result = parameters.tune(initial, kind, budget=budget)
    assert result.evaluations == evaluations
    x = {f: getattr(result.tuned_params, f)
         for f in (("m", "n") if kind == "phase" else ("k", "l"))}
    assert result.tuned_params == replace(tuned, **x)
    got = [*x.values(), result.initial_fidelity, result.final_fidelity]
    want = [*(getattr(tuned, f) for f in x), f0, f1]
    assert got == pytest.approx(want, rel=0, abs=1e-12)


_MODEL_STARTS = {
    "phase": [parameters.solve_phase(3, 82), parameters.solve_phase(5, 80),
              parameters.solve_phase(25, 300), parameters.solve_phase(30, 600)],
    "excitation": [parameters.solve_exc(8, 17), parameters.solve_exc(3, 5)],
}


@st.composite
def _box_candidates(draw):
    """(kind, params) within the ±2% tuning box of one of the starts."""
    kind = draw(st.sampled_from(sorted(_MODEL_STARTS)))
    start = draw(st.sampled_from(_MODEL_STARTS[kind]))
    a, b = (draw(st.floats(0.98, 1.02)) for _ in range(2))
    if kind == "phase":
        return kind, replace(start, m=start.m * a, n=start.n * b, relaxed=True)
    return kind, replace(start, k=start.k * a, l=start.l * b, relaxed=True)


@given(_box_candidates())
@settings(max_examples=40, deadline=None)
def test_fidelity_model_matches_fidelity_report(candidate):
    kind, params = candidate
    expected = neurons.fidelity_report(kind, params).f_avg
    assert abs(neurons.FidelityModel(kind)(params) - expected) <= 1e-15


def test_fidelity_model_follows_round_m():
    # The phase neuron's ideal and post-phase gate change with round(m), so
    # one model serves both sides of each half-integer m.
    model = neurons.FidelityModel("phase")
    start = parameters.solve_phase(30, 600)
    for m in (29.4, 29.6, 30.4, 30.6, 29.4):
        params = replace(start, m=m, relaxed=True)
        expected = neurons.fidelity_report("phase", params).f_avg
        assert abs(model(params) - expected) <= 1e-15
    assert sorted(model.projections) == [29, 30, 31]


def test_fidelity_model_rejects_a_non_unitary_propagator(phase_3_82):
    model = neurons.FidelityModel("phase")
    u = core.propagator(neurons.build_phase_hamiltonian(phase_3_82),
                        phase_3_82.tau).matrix
    assert model.score(phase_3_82, u) == model(phase_3_82)
    with pytest.raises(errors.NormDriftError):
        model.score(phase_3_82, 1.001 * u)
    with pytest.raises(errors.InvalidParamsError):
        neurons.FidelityModel("final_upup")
