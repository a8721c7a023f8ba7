"""Constraint solvers, detuning diagnostics, and fidelity tuning."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from qsnn import core, errors, fidelity, neurons, parameters


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

    @pytest.mark.parametrize("max_l", [2.5, "x", True, 0])
    def test_max_l_must_be_a_positive_integer(self, max_l):
        with pytest.raises(errors.InvalidParamsError):
            parameters.pythagorean_triples(max_l)

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

    @pytest.mark.parametrize("variant", ["detect_upup", "detect_downdown"])
    @pytest.mark.parametrize("l, s, gamma, parity_k", [
        (17, 3, 1e5, 1), (17, 20, 1e5, 0), (29, -2, 1e5, 1),
        (1000, 18, 1e5, 1), (100000, 5998, 1e5, 0),
    ])
    def test_large_and_small_gamma_solve_to_roundoff(self, variant, l, s, gamma, parity_k):
        # The closed form solves both identities to roundoff, also where |β| ≈ |l|.
        # (100000, 0, 1e-3, odd) solves to J = 0: test_exact_zero_j_is_refused.
        p = neurons.FinalLayerParams(variant, l, s, parity_k, gamma)
        beta = p.beta if variant == "detect_upup" else -p.beta
        assert abs(beta**2 + p.coupling_j**2 - l**2) / l**2 <= 1e-15
        assert abs(gamma * p.coupling_j - (2 * s - l - beta)) / l <= 1e-15

    def test_closed_form_meets_a_50_digit_solution(self):
        # β = (q + εγ√D)/(1+γ²) and J = (γq − ε√D)/(1+γ²) with D = (l−q)(l+q) + (lγ)²
        # divide by nothing small: β and J hold to a few ulp of l and β² + J² = l² to
        # a few ulp of l², at γ = 0 and ±1e-13 as at γ = 1e9 (q = 2s − l, ε = (−1)^k).
        import mpmath  # a test dependency, for this reference only

        ulp = 2.0**-52
        gammas = (0.0, 1e-13, -1e-13, 1e-9, -1e-9, 1e-3, -1e-3, 0.7, -0.7, 1.0, -1.0,
                  1e3, 1e9)
        with mpmath.workdps(50):
            for gamma, l, parity in itertools.product(gammas, (1, 2, 17, 1000, 100000), (0, 1)):
                for s in sorted({0, 1, l // 2, l}):
                    beta, j = parameters.solve_final_beta(gamma, l, s, parity)
                    g, q = mpmath.mpf(gamma), 2 * s - l
                    root = (-1) ** parity * mpmath.sqrt((l - q) * (l + q) + (l * g) ** 2)
                    point = (gamma, l, s, parity)
                    assert abs(beta - (q + g * root) / (1 + g * g)) <= 4 * ulp * l, point
                    assert abs(j - (g * q - root) / (1 + g * g)) <= 4 * ulp * l, point
                    assert abs(mpmath.mpf(beta) ** 2 + mpmath.mpf(j) ** 2 - l * l) <= (
                        8 * ulp * l * l), point

    @pytest.mark.parametrize("l, s, parity_k", [(17, 3, 0), (17, 3, 1), (29, 0, 0),
                                                (29, 29, 1), (100000, 1, 1)])
    def test_gamma_zero_takes_the_limit_of_small_gamma(self, l, s, parity_k):
        # At γ = 0, β = q and J = −(−1)^k·√((l−q)(l+q)): both equations hold for
        # either sign of J, and this is the one the γ ≠ 0 solution tends to.
        q = 2 * s - l
        j = -((-1) ** parity_k) * math.sqrt((l - q) * (l + q))
        assert parameters.solve_final_beta(0.0, l, s, parity_k) == (q, j)
        for gamma in (1e-300, -1e-300):
            assert parameters.solve_final_beta(gamma, l, s, parity_k) == pytest.approx(
                (q, j), rel=1e-15, abs=1e-290)

    @pytest.mark.parametrize("variant", ["detect_upup", "detect_downdown"])
    @pytest.mark.parametrize("l, s, gamma, parity_k", [
        (17, 0, 1e-6, 1), (100000, 0, 1e-3, 1), (17, 0, -1e-6, 0), (17, 17, 1e-6, 0),
        (17, 17, -1e-6, 1), (5, 5, 1.0, 0), (29, 0, 1e9, 1), (29, 0, 1e-13, 1),
    ])
    def test_exact_zero_j_is_refused(self, variant, l, s, gamma, parity_k):
        # At s = 0 or s = l, of one parity for each sign of γ, the exact J is 0: the
        # detector is not detuned.  The closed form gives J = 0.0, not a roundoff J.
        assert parameters.solve_final_beta(gamma, l, s, parity_k)[1] == 0.0
        with pytest.raises(errors.InvalidParamsError, match="not positive"):
            neurons.FinalLayerParams(variant, l, s, parity_k, gamma)

    @pytest.mark.parametrize("variant", ["detect_upup", "detect_downdown"])
    @pytest.mark.parametrize("l, s, gamma, parity_k", [
        (29, 15, 1.0, 0), (17, 9, 1.0, 0), (17, 3, 0.7, 1), (1000, 18, 1e5, 1),
        (100000, 1, 1e3, 1), (17, 3, 1e-9, 0),
    ])
    def test_drive_units_do_not_depend_on_amplitude(self, variant, l, s, gamma, parity_k):
        # The layer solves (J, β) in units of A and only scales the reported
        # energies: in_drive_units is the same, bit for bit, at any A.
        unit = neurons.FinalLayerParams(variant, l, s, parity_k, gamma).in_drive_units
        for a in (1e-300, 1e-10, 0.3, 3.7, 1e10, 1e300):
            p = neurons.FinalLayerParams(variant, l, s, parity_k, gamma, drive_amplitude=a)
            assert p.in_drive_units == unit, a
            assert (p.coupling_j, p.beta) == (unit[0] * a, unit[1] * a), a

    @pytest.mark.parametrize("call", [
        lambda: neurons.FinalLayerParams("detect_upup", 10**10, 3, 0, drive_amplitude=1e300),
        lambda: neurons.FinalLayerParams("detect_upup", 10**160, 0, 0, 1e150),
        lambda: parameters.solve_final_beta(1.0, 10**10, 3, 0, drive_amplitude=1e300),
        lambda: parameters.solve_final_beta(1e150, 10**160, 0, 0),
    ], ids=["params_beta_a", "params_l_gamma", "solve_beta_a", "solve_l_gamma"])
    def test_an_overflowing_solution_is_refused(self, call):
        # l·γ or β·A past the float range gives an inf or NaN, never a result.
        with pytest.raises(errors.InvalidParamsError):
            call()

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

    @pytest.mark.parametrize("variant", ["detect_upup", "detect_downdown"])
    @pytest.mark.parametrize("s, ratio", [(0, "opposite_pair"), (5, "one_excitation_minus")])
    def test_final_layer_refuses_an_undetuned_detector(self, variant, s, ratio):
        # (l, s) = (5, 0) at γ = 1 solves to β = 0 and (5, 5) to J = 0: the drive
        # at 2β meets another input's transition.  FinalLayerParams refuses both
        # as detectors, with the ratio detuning_report names; the solver solves both.
        with pytest.raises(errors.InvalidParamsError,
                           match=f"ratio {ratio} = 0.0 not positive"):
            neurons.FinalLayerParams(variant, 5, s, 0)
        assert 0.0 in parameters.solve_final_beta(1.0, 5, s, 0)

    def test_final_layer_ratios_on_a_grid(self):
        # FinalLayerParams refuses exactly the points that solve to β = 0 or J = 0;
        # elsewhere detuning_report gives ratios whose smaller one-excitation value,
        # 2(r − |β|), keeps its digits where J is small beside β (γ = 1e-3,
        # l = 100000, where r − |β| cancels to 0 in floats; and γ = 1e3, l = 100000,
        # s = 1, where J = 0.002 beside β = −1e5 and the direct 2(r − |β|) reads
        # 2.9e-11 against 4.0e-11).
        grid = itertools.chain(itertools.product(
            [(l, s) for l in (2, 5, 17) for s in range(-1, l + 2)] + [(100000, 0)],
            (1.0, 0.5, 1e-3, 1e5), (0, 1), ("detect_upup", "detect_downdown")),
            itertools.product([(100000, 1)], [1e3], [1], ("detect_upup", "detect_downdown")))
        refused = 0
        for (l, s), gamma, parity, variant in grid:
            try:
                beta, j = parameters.solve_final_beta(gamma, l, s, parity)
            except errors.NoRealSolutionError:
                continue
            if beta == 0 or j == 0:
                refused += 1
                with pytest.raises(errors.InvalidParamsError, match="not positive"):
                    neurons.FinalLayerParams(variant, l, s, parity, gamma)
                continue
            p = neurons.FinalLayerParams(variant, l, s, parity, gamma)
            kind = "final_upup" if variant == "detect_upup" else "final_downdown"
            ratios = parameters.detuning_report(neurons.make_spec(kind, p, (0, 1), 2)).ratios
            with localcontext() as ctx:
                ctx.prec = 60
                jd, bd = map(Decimal, p.in_drive_units)
                exact = float(2 * ((jd * jd + bd * bd).sqrt() - abs(bd)))
            near = min(ratios["one_excitation_minus"], ratios["one_excitation_plus"])
            assert abs(near - exact) <= 1e-14 * exact, (l, s, gamma, parity, variant)
        assert refused >= 8

    def test_exc_delta_minus_keeps_its_digits(self):
        # l one float above k = 1e8 gives J = sqrt((l − k)(l + k)) = 1.726 beside
        # β = 1e8, where r − β cancels; 2J²/(r + β) reads this J and β's 2(l − k),
        # 2.98e-8.  (sqrt(l² − k²) cancelled to J = √2, and this pin read 2.0e-8.)
        import mpmath  # a test dependency, for this reference only

        p = neurons.ExcNeuronParams(k=1e8, l=math.nextafter(1e8, 2e8), relaxed=True)
        ratios = parameters.detuning_report(neurons.make_spec("excitation", p, (0, 1), 2)).ratios
        j, b = map(mpmath.mpf, p.in_drive_units)
        with mpmath.workdps(50):
            exact = float(2 * (mpmath.sqrt(j * j + b * b) - b))
        assert abs(ratios["delta_minus"] - exact) <= 1e-15 * exact
        assert abs(exact - 2 * (p.l - p.k)) <= 1e-15 * exact

    @pytest.mark.parametrize("spec", [5, None, "phase", parameters.solve_phase(3, 82)],
                             ids=["int", "none", "str", "params"])
    def test_rejects_what_is_no_neuron_spec(self, spec):
        with pytest.raises(errors.InvalidParamsError):
            parameters.detuning_report(spec)


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

    @pytest.mark.parametrize("budget, exhausted", [
        (2, True), (5, True), (40, True), (300, False),
    ])
    def test_budget_exhausted_flag(self, phase_3_82, budget, exhausted):
        # One call of the budget goes to the start, so the simplex stops
        # at budget - 1; (3, 82) converges after 94 at budget 300.
        result = parameters.tune(phase_3_82, "phase", budget=budget)
        assert result.budget_exhausted is exhausted
        assert result.evaluations <= budget

    def test_a_worse_point_is_refused(self, exc_8_17):
        with pytest.raises(errors.InvalidParamsError, match="worse point"):
            parameters.TuneResult(exc_8_17, exc_8_17, 0.99, 0.99 - 2e-12, 1, False)
        parameters.TuneResult(exc_8_17, exc_8_17, 0.99, 0.99 - 0.5e-12, 1, False)

    def test_zero_budget_rejected(self, exc_8_17):
        with pytest.raises(errors.InvalidParamsError):
            parameters.tune(exc_8_17, "excitation", budget=0)

    @pytest.mark.parametrize("budget", ["x", 2.5, True, 0])
    def test_budget_must_be_a_positive_int(self, exc_8_17, budget):
        with pytest.raises(errors.InvalidParamsError, match="budget"):
            parameters.tune(exc_8_17, "excitation", budget=budget)

    def test_excitation_box_keeps_l_above_k(self):
        # The +-2% box around (40, 41) reaches k >= l; the tuner clamps l
        # just above k instead of failing mid-search.
        start = parameters.solve_exc(40, 41)
        result = parameters.tune(start, "excitation", budget=60)
        assert result.final_fidelity > result.initial_fidelity
        assert result.evaluations <= 60
        assert result.tuned_params.l > result.tuned_params.k

    @pytest.mark.parametrize("budget", [1, 5, 300])
    @pytest.mark.parametrize("kind, a, b", [
        ("phase", 3, 82), ("phase", 2, 20), ("excitation", 8, 17), ("excitation", 40, 41),
    ])
    def test_model_scores_each_point_once(self, kind, a, b, budget, monkeypatch):
        # The start is the simplex's first vertex and the returned vertex was
        # scored in the search, so neither costs a second model call.
        solve = parameters.solve_phase if kind == "phase" else parameters.solve_exc
        calls = []
        score = neurons.FidelityModel.__call__
        monkeypatch.setattr(neurons.FidelityModel, "__call__",
                            lambda model, x: calls.append(x) or score(model, x))
        result = parameters.tune(solve(a, b), kind, budget=budget)
        assert len(calls) <= result.evaluations <= budget
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("kind, a, b", [("phase", 3, 82), ("excitation", 40, 41)])
    def test_given_f0_scores_the_start(self, kind, a, b, monkeypatch):
        # The CLI hands its report's f_avg to the tuner as f0: that is the
        # initial fidelity exactly, and the start costs no model call.
        start = (parameters.solve_phase if kind == "phase" else parameters.solve_exc)(a, b)
        f0 = neurons.fidelity_report(kind, start).f_avg
        calls = []
        score = neurons.FidelityModel.__call__
        monkeypatch.setattr(neurons.FidelityModel, "__call__",
                            lambda model, x: calls.append(x) or score(model, x))
        result = parameters.tune(start, kind, budget=40, f0=f0)
        x0 = (float(a), float(b))
        assert result.initial_fidelity == f0
        assert x0 not in calls and len(set(calls)) == len(calls)
        assert result.final_fidelity > f0 and len(calls) < result.evaluations <= 40

    @pytest.mark.parametrize("f0", ["x", math.nan, math.inf, True, [0.9]])
    def test_f0_must_be_a_finite_real(self, exc_8_17, f0):
        with pytest.raises(errors.InvalidParamsError, match="f0"):
            parameters.tune(exc_8_17, "excitation", budget=5, f0=f0)

    @pytest.mark.parametrize("f0", [2.0, -1.0, 1 + 2e-9, -2e-9])
    def test_f0_must_be_a_fidelity(self, phase_3_82, f0):
        # f0 = 2.0 came back as the final fidelity, and f0 = -1.0 made the start
        # the worst vertex; FidelityReport's 1e-9 slack is allowed.
        with pytest.raises(errors.InvalidParamsError, match="f0"):
            parameters.tune(phase_3_82, "phase", budget=10, f0=f0)
        assert parameters.tune(phase_3_82, "phase", budget=10, f0=1 + 1e-9).final_fidelity > 1

    @pytest.mark.parametrize("kind, a, b, calls, evaluations", [
        ("phase", 3, 82, 92, 94), ("phase", 2, 20, 69, 141),
    ])
    def test_model_calls_as_the_readme_counts(self, kind, a, b, calls, evaluations,
                                              monkeypatch):
        made = []
        score = neurons.FidelityModel.__call__
        monkeypatch.setattr(neurons.FidelityModel, "__call__",
                            lambda model, x: made.append(x) or score(model, x))
        result = parameters.tune(parameters.solve_phase(a, b), kind, budget=300)
        assert (len(made), result.evaluations) == (calls, evaluations)

    @pytest.mark.parametrize("m, n", [(2, 20), (2, 40), (2, 54), (3, 30), (4, 40),
                                      (5, 50), (6, 60)])
    def test_hierarchy_floor_start(self, m, n):
        # The +-2% box around a start on 4m = 8 or 2n = 5*4m reaches
        # invalid parameters; the tuner keeps its candidates valid instead.
        # These are the benchmark's seven hierarchy-floor starts.
        start = parameters.solve_phase(m, n)
        result = parameters.tune(start, "phase", budget=300)
        assert isinstance(result, parameters.TuneResult)
        assert result.final_fidelity >= result.initial_fidelity
        assert result.evaluations <= 300
        tuned = result.tuned_params
        assert 4 * tuned.m >= neurons.PHASE_FLOOR_4M
        assert 2 * tuned.n >= neurons.PHASE_RATIO_FLOOR * 4 * tuned.m


def _tune_by_reports(initial, kind: str, budget: int):
    """The tuner before its fidelity model: a full fidelity_report per
    simplex evaluation, driven by the same minimize call.  Returns the tuned
    params, the evaluation count and the initial and final fidelities."""
    if kind == "phase":
        x0 = np.array([initial.m, initial.n], dtype=float)
        relax = lambda x: replace(initial, m=float(x[0]), n=float(x[1]),
                                  relaxed=True)

        def feasible(x):
            m = max(x[0], neurons.PHASE_FLOOR_4M / 4)
            return np.array([m, max(x[1], neurons.PHASE_RATIO_FLOOR * 4 * m / 2)])
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


_SIMPLEX_FUNCTIONS = {
    "rosenbrock": lambda x: 100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2,
    "shifted_quadratic": lambda x: (x[0] - 0.3) ** 2 + 2 * (x[1] + 1.7) ** 2,
    "constant": lambda x: 1.0,  # every comparison ties
    "kinks": lambda x: abs(x[0] - 0.5) + 2 * abs(x[1] + 0.25),
    "floor_steps": lambda x: float(math.floor(x[0]) + math.floor(2 * x[1])),
    "nan_half": lambda x: math.nan if x[0] > x[1] else (x[0] - 1) ** 2 + x[1] ** 2,
}


@pytest.mark.parametrize("budget", [1, 2, 3, 4, 5, 10, 50, 299, 2000])
@pytest.mark.parametrize("x0", [(-1.2, 1.0), (0.0, 2.0), (0.0, 0.0), (3.0, 82.0)])
@pytest.mark.parametrize("name", sorted(_SIMPLEX_FUNCTIONS))
def test_simplex_steps_as_scipy_nelder_mead(name, x0, budget):
    # scipy's simplex is the oracle: the same point after the same calls,
    # also when the budget stops it inside the start simplex or a shrink.
    f = _SIMPLEX_FUNCTIONS[name]
    seen = {"ours": [], "scipy": []}

    def recorded(side):
        return lambda x: seen[side].append(x.copy()) or f(x)

    x, calls = parameters._nelder_mead(recorded("ours"), np.array(x0), budget)
    want = minimize(recorded("scipy"), np.array(x0), method="Nelder-Mead",
                    options={"maxfev": budget, "xatol": 1e-6, "fatol": 1e-9,
                             "adaptive": False})
    assert np.array_equal(x, want.x)
    assert calls == want.nfev == len(seen["ours"]) == len(seen["scipy"])
    assert np.array_equal(seen["ours"], seen["scipy"])


@st.composite
def _quadratics(draw):
    """(f, x0): a 2- or 3-D quadratic, with NaN on a half-space or not, and a
    start.  Small integer weights, centres and starts make exact ties."""
    n = draw(st.sampled_from([2, 3]))
    small = st.sampled_from([0.0, 1.0, -1.0, 2.0])
    number = st.one_of(small, st.floats(-3.0, 3.0))
    weights, centre, x0 = (draw(st.lists(number, min_size=n, max_size=n))
                           for _ in range(3))
    normal = draw(st.one_of(st.none(), st.lists(small, min_size=n, max_size=n)))
    offset = draw(number)

    def f(x):
        if normal is not None and sum(a * b for a, b in zip(normal, x)) > offset:
            return math.nan
        return sum(abs(w) * (a - c) ** 2 for w, a, c in zip(weights, x, centre))
    return f, x0


_ARGSORT = np.argsort


@given(_quadratics(), st.integers(1, 400))
@settings(max_examples=200, deadline=None)
def test_float_simplex_steps_as_scipy_on_quadratics(quadratic, budget):
    # The port's vertex order is stable, NaN last.  np.argsort agrees for the
    # three vertices of a 2-D search, but its default sort need not keep ties
    # in place for four (numpy's AVX-512 sort does not), so in 3-D scipy runs
    # with numpy's stable sort.
    f, x0 = quadratic
    seen = {"ours": [], "scipy": []}

    def recorded(side):
        return lambda x: seen[side].append(np.array(x, dtype=float)) or f(x)

    x, calls = parameters._nelder_mead(recorded("ours"), x0, budget)
    with pytest.MonkeyPatch.context() as patch:
        if len(x0) > 2:
            patch.setattr(np, "argsort", lambda a: _ARGSORT(a, kind="stable"))
        want = minimize(recorded("scipy"), np.array(x0), method="Nelder-Mead",
                        options={"maxfev": budget, "xatol": 1e-6, "fatol": 1e-9,
                                 "adaptive": False})
    assert np.array_equal(x, want.x)
    assert calls == want.nfev == len(seen["ours"]) == len(seen["scipy"])
    assert np.array_equal(seen["ours"], seen["scipy"])


_MODEL_STARTS = {
    "phase": [parameters.solve_phase(3, 82), parameters.solve_phase(5, 80),
              parameters.solve_phase(25, 300), parameters.solve_phase(30, 600)],
    "excitation": [parameters.solve_exc(8, 17), parameters.solve_exc(3, 5)],
}


@st.composite
def _box_candidates(draw):
    """(kind, start, x): a point x within the ±2% tuning box of a start."""
    kind = draw(st.sampled_from(sorted(_MODEL_STARTS)))
    start = draw(st.sampled_from(_MODEL_STARTS[kind]))
    a, b = (draw(st.floats(0.98, 1.02)) for _ in range(2))
    fields = ("m", "n") if kind == "phase" else ("k", "l")
    return kind, start, np.array([getattr(start, fields[0]) * a,
                                  getattr(start, fields[1]) * b])


def _exact_bare(params) -> np.ndarray | None:
    """Above n = 300, the phase neuron's bare U = exp(-iτH/B) from a 30-digit
    eigendecomposition; else None, for fidelity_report's own core.propagator.
    The float64 eigh rounds U's phases by about ε·‖H/B‖·τ, which grows with n:
    at (30, 600) the report's f_avg is up to 1.5e-12 from this reference's and
    the closed-form model's up to 7e-13, so there the model is held to this."""
    if params.n <= 300:
        return None
    import mpmath  # a test dependency, for this reference only

    h = neurons.build_phase_hamiltonian(params).matrix(0.0).real
    with mpmath.workdps(30):
        energies, vectors = mpmath.eigsy(mpmath.matrix(h.tolist()))
        phases = mpmath.diag([mpmath.expj(-params.UNIT_TAU * e) for e in energies])
        u = vectors * phases * vectors.T
        return np.array([[complex(u[i, j]) for j in range(8)] for i in range(8)])


def _phase_report(params) -> float:
    """fidelity_report's phase f_avg, with the bare U of _exact_bare."""
    return neurons.fidelity_report("phase", params, bare=_exact_bare(params)).f_avg


@given(_box_candidates())
@settings(max_examples=40, deadline=None)
def test_fidelity_model_matches_fidelity_report(candidate):
    kind, start, x = candidate
    model = neurons.FidelityModel(kind, start)
    if kind == "excitation":
        assert abs(model(x) - neurons.fidelity_report(kind, model.params_at(x)).f_avg) <= 1e-15
    else:
        assert abs(model(x) - _phase_report(model.params_at(x))) <= 1e-12


def test_fidelity_model_follows_round_m(monkeypatch):
    # The phase neuron's ideal and post-phase gate change with round(m), so
    # one model serves both sides of each half-integer m.
    start = parameters.solve_phase(30, 600)
    model = neurons.FidelityModel("phase", start)
    read, projections = [], neurons._projections
    monkeypatch.setattr(neurons, "_projections",
                        lambda kind, m: read.append(m) or projections(kind, m))
    for m in (29.4, 29.6, 30.4, 30.6, 29.4):
        x = (m, start.n)
        assert abs(model(x) - _phase_report(model.params_at(x))) <= 1e-12
    assert read == [29, 30, 30, 31, 29]


def test_fidelity_model_rejects_a_non_unitary_propagator(phase_3_82, monkeypatch):
    # A sine drifted by 1e-3 leaves Σ_σ |c_{b,σ}|² off 1 in the blocks.
    model = neurons.FidelityModel("phase", phase_3_82)
    x = (phase_3_82.m, phase_3_82.n)
    model(x)
    sin = math.sin
    monkeypatch.setattr(math, "sin", lambda v: 1.001 * sin(v))
    with pytest.raises(errors.NormDriftError):
        model(x)
    with pytest.raises(errors.InvalidParamsError):
        neurons.FidelityModel("final_upup", phase_3_82)
    with pytest.raises(errors.InvalidParamsError):  # the start's class
        neurons.FidelityModel("phase", parameters.solve_exc(8, 17))


def test_fidelity_model_checks_u_once(phase_3_82, monkeypatch):
    # A phase call checks U once, block by block: no 8×8 isometry check, and
    # each of the four blocks raises when its cos(rτ) alone is off.  A block
    # calls math.cos twice, for cos(rτ) and then for its phase e^{-ih₀τ}.
    model = neurons.FidelityModel("phase", phase_3_82)
    x = (phase_3_82.m, phase_3_82.n)
    f = model(x)  # the projections, which check the ideal, are built by now
    checked, cos = [], math.cos
    monkeypatch.setattr(core, "check_isometry", lambda *args: checked.append(args))
    for block in range(4):
        calls = []

        def drifted(v):
            calls.append(v)
            return 2.0 if len(calls) == 2 * block + 1 else cos(v)

        monkeypatch.setattr(math, "cos", drifted)
        with pytest.raises(errors.NormDriftError, match=f"sector {block} "):
            model(x)
        assert len(calls) == 2 * block + 1
    monkeypatch.setattr(math, "cos", cos)
    assert model(x) == f and checked == []


@pytest.mark.parametrize("basis, match", [
    (np.eye(8), "block-diagonal"),       # orthogonal, but H is not 2×2 blocks in it
    (1.001 * np.eye(8), "unitarity"),    # not orthogonal
])
def test_phase_model_checks_its_sector_basis(phase_3_82, monkeypatch, basis, match):
    # The blocks are built once per process: cleared, they are built from this
    # basis, and cleared again, no later model reads them.
    monkeypatch.setattr(core, "_sector_basis", lambda terms: basis)
    neurons._phase_blocks.cache_clear()
    try:
        with pytest.raises(errors.NormDriftError, match=match):
            neurons.FidelityModel("phase", phase_3_82)
    finally:
        neurons._phase_blocks.cache_clear()


@pytest.mark.parametrize("x", [(math.nan, 82.0), (3.0, math.inf), (math.inf, 82.0),
                               (3.0, math.nan), (-math.inf, 82.0)])
def test_fidelity_model_rejects_a_non_finite_point(phase_3_82, x):
    # The per-block unitarity guard fails for a NaN, and an infinite angle
    # raises through it: a QsnnError, not numpy's LinAlgError.
    model = neurons.FidelityModel("phase", phase_3_82)
    with pytest.raises(errors.NormDriftError):
        model(x)
    assert issubclass(errors.NormDriftError, errors.QsnnError)


@pytest.mark.parametrize("kind, params", [
    ("phase", parameters.solve_phase(3, 82)),
    ("excitation", parameters.solve_exc(8, 17)),
])
def test_fidelity_model_asks_the_engine_once(kind, params, monkeypatch):
    # The excitation neuron's driven H goes to core.propagator once; the
    # phase neuron's U is in closed form and asks no engine.
    calls = []
    propagator = core.propagator

    def spy(*args, **kwargs):
        calls.append(args)
        return propagator(*args, **kwargs)

    monkeypatch.setattr(core, "propagator", spy)
    fields = ("m", "n") if kind == "phase" else ("k", "l")
    neurons.FidelityModel(kind, params)([getattr(params, f) for f in fields])
    assert len(calls) == (kind == "excitation")


def test_phase_model_matches_the_hamiltonian_path():
    # The closed form f = Re(c†Gc) reads the f_avg of L·U·R, with U from the
    # term classes' H through core.propagator, up to rounding.
    for start in _MODEL_STARTS["phase"]:
        model = neurons.FidelityModel("phase", start)
        for a in np.linspace(0.98, 1.02, 5):
            for b in np.linspace(0.98, 1.02, 5):
                x = np.array([start.m * a, start.n * b])
                f = model(x)
                params = model.params_at(x)
                u = _exact_bare(params)
                if u is None:
                    u = core.propagator(neurons.build_phase_hamiltonian(params),
                                        params.UNIT_TAU).matrix
                left, right, _ = neurons._projections("phase", round(params.m))
                m = left @ u @ right
                want = (np.vdot(m, m).real + abs(np.trace(m)) ** 2) / (len(m) * (len(m) + 1))
                assert abs(f - want) <= 1e-12


@pytest.mark.parametrize("budget", [5, 300])
def test_phase_tune_builds_no_hamiltonian_and_two_params(budget, monkeypatch):
    # Candidates are valid by construction, so a phase tune builds its
    # parameters only for the start's projections and the returned point.
    start = parameters.solve_phase(3, 82)
    built = []
    post_init = neurons.PhaseNeuronParams.__post_init__

    def counted(self):
        built.append((self.m, self.n))
        post_init(self)

    def no_hamiltonian(*args, **kwargs):
        raise AssertionError("tune built a phase Hamiltonian")

    monkeypatch.setattr(neurons.PhaseNeuronParams, "__post_init__", counted)
    monkeypatch.setattr(neurons, "build_phase_hamiltonian", no_hamiltonian)
    result = parameters.tune(start, "phase", budget=budget)
    assert result.evaluations >= min(budget - 1, 90)
    assert 1 <= len(built) <= 2


@pytest.mark.parametrize("start", [(3, 82), (25, 300)])
def test_tune_fidelities_match_fidelity_report(start):
    initial = parameters.solve_phase(*start)
    result = parameters.tune(initial, "phase")
    for params, f in ((replace(initial, relaxed=True), result.initial_fidelity),
                      (result.tuned_params, result.final_fidelity)):
        assert abs(f - neurons.fidelity_report("phase", params).f_avg) <= 1e-12


def _fresh_constants(model, x):
    """The model's blocks and (L, R, G) at x as each model built them for itself:
    the blocks from its own sector basis, the rest from params_at(x)'s own gates,
    ideal and protocol basis."""
    params, kind = model.params_at(x), model.kind
    blocks = None
    if kind == "phase":
        w = core._sector_basis(("XXI", "YYI", "ZZI", "IXX", "IIZ")).astype(complex)
        sigmas = np.array([np.eye(2), core.PAULI_X, core.PAULI_Z])
        blocks = w @ np.kron(np.eye(4)[:, None] * np.eye(4), sigmas) @ w.T
    pre, post = neurons.make_spec(kind, params, (0, 1), 2).gates
    basis = fidelity._subspace_matrix(neurons.protocol_subspace(kind, params), 8)
    ideal = neurons.ideal_unitary(kind, params).matrix.conj().T
    left = basis.conj().T @ ideal @ neurons._output_gates(post)
    right, form = neurons._output_gates(pre) @ basis, None
    if blocks is not None:
        a = (left @ blocks @ right).reshape(12, -1)
        a = np.column_stack([a, a[:, ::7].sum(axis=1)])
        form = a.conj() @ a.T / 42
    return blocks, (left, right, form)


@pytest.mark.parametrize("kind, start", [
    ("phase", parameters.solve_phase(3, 82)),
    ("phase", neurons.PhaseNeuronParams(3.0, 36.0, gamma=0.5)),
    ("phase", neurons.PhaseNeuronParams(5.0, 80.0, gamma=2.0, drive_amplitude=1e-3)),
    ("phase", neurons.PhaseNeuronParams(4.0, 164.0, drive_amplitude=1e3)),
    ("phase", parameters.solve_phase(25, 300)),  # the box crosses m = 24.5
    ("excitation", parameters.solve_exc(8, 17)),
])
def test_model_constants_equal_a_fresh_build(kind, start):
    # The blocks and projections are built once per process; each equals, bit
    # for bit, what a model built for itself at its start.
    model = neurons.FidelityModel(kind, start)
    a, b = (getattr(start, f) for f in model.fields)
    box = itertools.product(a * np.array([0.98, 1, 1.02]), b * np.array([0.98, 1, 1.02]))
    at = {(round(x[0]) if kind == "phase" else None): x for x in box}
    assert len(at) == (3 if getattr(start, "m", 0) == 25 else 1)  # 24.5 → 24, 25.5 → 26
    for key, x in at.items():
        blocks, projections = _fresh_constants(model, x)
        if blocks is not None:
            assert np.array_equal(model.blocks, blocks)
        for got, want in zip(neurons._projections(kind, key), projections):
            assert (got is None and want is None) or (np.array_equal(got, want)
                                                      and not got.flags.writeable)


def test_phase_models_share_their_blocks_not_their_coefficients():
    # γ moves the block coefficients, not the blocks.
    one, two = (neurons.FidelityModel("phase", neurons.PhaseNeuronParams(3.0, 82.0, gamma=g))
                for g in (1.0, 2.0))
    assert one((3.0, 82.0)) != two((3.0, 82.0))
    assert one.blocks is two.blocks and one.sectors != two.sectors


# Each tune at budget 300 as commit 3db9c01 gave it, bit for bit: m, n start;
# tuned m, n; evaluations; budget_exhausted; initial and final fidelity.  The
# 18 tuning points, then the 7 hierarchy-floor starts.
_PINNED_TUNES = """
3 36 0x1.7a73321e19d3ep+1 0x1.1fd1624d65270p+5 95 0 0x1.f1e6f01676ee1p-1 0x1.fcd9b273568c8p-1
3 48 0x1.7a87497edaeacp+1 0x1.7fdd058267db5p+5 98 0 0x1.f6f4325da3ff8p-1 0x1.fe39d97957548p-1
3 60 0x1.7a9096030ee8ep+1 0x1.dfe402cb066bdp+5 93 0 0x1.f94f2c5ac8c8cp-1 0x1.fedd2a12eff5fp-1
3 81 0x1.7a97c937f251cp+1 0x1.3ff580a277f1dp+6 89 0 0x1.fb34f7962ce12p-1 0x1.ff5c53936758ap-1
4 48 0x1.fbc084e6d528cp+1 0x1.7fc110e1eb028p+5 96 0 0x1.ea74efe91b29cp-1 0x1.faab4d2e505f9p-1
4 64 0x1.fbda956b831d8p+1 0x1.ffd0c712f4c51p+5 91 0 0x1.f32cd40efbac8p-1 0x1.fcfeaaf316ca6p-1
4 80 0x1.fbe65f03fdfbep+1 0x1.3decfd08eabd4p+6 90 0 0x1.f74285b2d79fep-1 0x1.fe0ceb280ed84p-1
4 108 0x1.fbf0449660cb4p+1 0x1.aff200b9868e6p+6 98 0 0x1.fa8f55c723b9dp-1 0x1.fef15750f7c76p-1
5 60 0x1.3e409bf179b40p+2 0x1.dfb0e1ec1bc2cp+5 97 0 0x1.e030ca5ba749ep-1 0x1.f7e1886bc084bp-1
5 80 0x1.3e50827b36439p+2 0x1.3de2217e92e20p+6 94 0 0x1.ed7ed2d5ed5eap-1 0x1.fb5c49fd2a2dbp-1
5 100 0x1.3e58351db7b6bp+2 0x1.8fe83faa0a2d0p+6 95 0 0x1.f3c4a833ae030p-1 0x1.fd10289d4c61cp-1
5 135 0x1.3e5e291b9a7dcp+2 0x1.0df733a9251b5p+7 100 0 0x1.f8daa08bfd008p-1 0x1.fe62f71d07236p-1
6 72 0x1.7e7ebe3e8261bp+2 0x1.21d0b5e66e0c8p+6 90 0 0x1.d396011ed7c28p-1 0x1.f4a650faee2b3p-1
6 96 0x1.7e917deac06aep+2 0x1.7fdc45539710dp+6 94 0 0x1.e64e12d5f63d0p-1 0x1.f97f68dfeebe9p-1
6 120 0x1.7e9a602cf9ff2p+2 0x1.dfe369196a184p+6 100 0 0x1.ef32d2d46c150p-1 0x1.fbd4675590a6fp-1
6 162 0x1.7ea15bc13ffd3p+2 0x1.41f558021543cp+7 130 0 0x1.f670d11c573b2p-1 0x1.fdadebb682399p-1
3 82 0x1.7a981d2129e0fp+1 0x1.45f5b209f8de0p+6 94 0 0x1.fb434fed989c0p-1 0x1.ff624ad24ebbcp-1
4 164 0x1.fbf6e0f5a6c41p+1 0x1.46fb60665e2f4p+7 93 0 0x1.fcd8102849892p-1 0x1.ff89d6943f7a2p-1
2 20 0x1.0000000000000p+1 0x1.4000000000000p+4 141 0 0x1.f2ad0ab6b9844p-1 0x1.f2ad0ab6b9844p-1
2 40 0x1.0000000000000p+1 0x1.3fecbda58e7b2p+5 119 0 0x1.f88a2ee7694dfp-1 0x1.f9e298f20214cp-1
2 54 0x1.0000000000000p+1 0x1.aff1bbe7c7971p+5 115 0 0x1.f96da603d0941p-1 0x1.fa2ae147b231cp-1
3 30 0x1.7a5efa10be238p+1 0x1.df902c5b4ae18p+4 95 0 0x1.ecdf4086dc66ap-1 0x1.fb787b0b2120dp-1
4 40 0x1.fba84ebe51b70p+1 0x1.43b571a330528p+5 98 0 0x1.e1d58c2d239a2p-1 0x1.f886f3fc765bep-1
5 50 0x1.3e3042fc17066p+2 0x1.8fa11a4751cd4p+5 98 0 0x1.d3253bc87ef49p-1 0x1.f458db162107cp-1
6 60 0x1.7e6b890c48412p+2 0x1.e38eb6658f152p+5 97 0 0x1.c16d7e915d52ap-1 0x1.efc613d6a9438p-1
"""


@pytest.mark.parametrize("row", _PINNED_TUNES.split("\n")[1:-1],
                         ids=lambda row: "-".join(row.split()[:2]))
def test_phase_tunes_are_pinned(row):
    m, n, *want = row.split()
    result = parameters.tune(parameters.solve_phase(int(m), int(n)), "phase")
    tuned = result.tuned_params
    assert [tuned.m.hex(), tuned.n.hex(), str(result.evaluations),
            str(int(result.budget_exhausted)), result.initial_fidelity.hex(),
            result.final_fidelity.hex()] == want


def test_phase_tunes_meet_the_reference_table():
    # The benchmark's tuned_fidelity table (18 points, budget 300), read-only:
    # each start tunes to at least its entry, within the budget.
    reference = Path(__file__).parents[1] / "bench" / "reference.json"
    table = json.loads(reference.read_text())["tuned_fidelity"]
    assert len(table) == 18
    for key, want in table.items():
        _, m, n = key.split(":")
        result = parameters.tune(parameters.solve_phase(int(m), int(n)), "phase", budget=300)
        assert result.final_fidelity >= want - 1e-9, key
        assert result.evaluations <= 300, key
