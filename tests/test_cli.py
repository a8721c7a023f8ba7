"""Command-line interface: reports, exit codes, and file artifacts."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from qsnn import core, network, neurons, parameters
from qsnn.cli import _TRAJ_ROW, TRAJ_HEADER, main
from qsnn.errors import InvalidParamsError


@pytest.fixture()
def runner():
    return CliRunner()


def _json_out(result) -> dict:
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestParamsCommands:
    def test_triples(self, runner):
        data = _json_out(runner.invoke(main, ["params", "triples", "--max-l", "20"]))
        assert [8, 15, 17] in data["triples"]
    def test_solve_exc(self, runner):
        data = _json_out(
            runner.invoke(main, ["params", "solve-exc", "--k", "3", "--l", "5"])
        )
        assert data["beta"] == pytest.approx(3.0)
        assert data["coupling_j"] == pytest.approx(4.0)
        assert data["schema_version"] == 3

    def test_solve_exc_invalid_exit_2(self, runner):
        result = runner.invoke(main, ["params", "solve-exc", "--k", "2", "--l", "3"])
        assert result.exit_code == 2

    def test_solve_final(self, runner):
        data = _json_out(
            runner.invoke(
                main,
                ["params", "solve-final", "--gamma", "1.0", "--l", "5",
                 "--s", "4", "--k-parity", "even"],
            )
        )
        assert data["beta"] == pytest.approx(4.701562118716424)

    @pytest.mark.parametrize("gamma, l, s", [("100000", 17, 3), ("0.001", 100000, 0)])
    def test_solve_final_at_extreme_gamma(self, runner, gamma, l, s):
        data = _json_out(runner.invoke(main, [
            "params", "solve-final", "--gamma", gamma, "--l", str(l), "--s", str(s),
            "--k-parity", "odd"]))
        assert abs(float(gamma) * data["coupling_j"] - (2 * s - l - data["beta"])) <= 1e-9 * l

    def test_detuning_with_beta_zero_exit_2(self, runner):
        # At (l, s) = (5, 0), γ = 1, β = 0: the opposite pair is not detuned.
        result = runner.invoke(main, ["params", "detuning", "--kind", "final", "--l", "5",
                                      "--s", "0"])
        assert result.exit_code == 2
        assert "ratio opposite_pair = 0.0 not positive" in result.output

    @pytest.mark.parametrize("variant", ["detect_upup", "detect_downdown"])
    @pytest.mark.parametrize("s, ratio", [(0, "opposite_pair"), (5, "one_excitation_minus")])
    @pytest.mark.parametrize("command", [["neuron", "final"], ["params", "detuning", "--kind",
                                                               "final"]])
    def test_undetuned_final_layer_exit_2(self, runner, command, variant, s, ratio):
        # At (l, s) = (5, 0), γ = 1, β = 0; at (5, 5), J = 0: the drive at 2β meets
        # another input's transition, and the report and the ratios both refuse it.
        result = runner.invoke(main, [*command, "--variant", variant, "--l", "5",
                                      "--s", str(s)])
        assert result.exit_code == 2
        assert f"ratio {ratio} = 0.0 not positive" in result.output

    def test_solve_final_no_solution_exit_2(self, runner):
        result = runner.invoke(
            main,
            ["params", "solve-final", "--gamma", "1.0", "--l", "2",
             "--s", "5", "--k-parity", "even"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("name, value", [
        ("drive_amplitude", "-1"), ("drive_amplitude", "0"),
        ("drive_amplitude", "nan"), ("drive_amplitude", "inf"),
        ("gamma", "nan"), ("gamma", "inf"),
    ])
    def test_solve_final_rejects_gamma_and_amplitude(self, runner, name, value):
        inputs = {"gamma": "1", "drive_amplitude": "1", name: value}
        with pytest.raises(InvalidParamsError):
            parameters.solve_final_beta(float(inputs["gamma"]), 5, 4, 0,
                                        float(inputs["drive_amplitude"]))
        options = [arg for key, v in inputs.items()
                   for arg in ("--" + key.replace("_", "-"), v)]
        result = runner.invoke(
            main, ["params", "solve-final", "--l", "5", "--s", "4", *options])
        assert result.exit_code == 2
        assert "NaN" not in result.output and "Infinity" not in result.output

    def test_detuning_exc(self, runner):
        data = _json_out(
            runner.invoke(
                main, ["params", "detuning", "--kind", "exc", "--k", "8",
                       "--l", "17"]
            )
        )
        assert sorted(data["ratios"].values()) == [16.0, 18.0, 50.0]

    @pytest.mark.parametrize("args, kind, make", [
        (["--kind", "phase", "--m", "3", "--n", "82"], "phase",
         lambda: parameters.solve_phase(3, 82)),
        (["--kind", "final", "--l", "29", "--s", "15", "--variant",
          "detect_downdown"], "final_downdown",
         lambda: parameters.make_final_params("detect_downdown", 29, 15, 0)),
        (["--kind", "final", "--l", "29", "--s", "15", "--drive-mode",
          "local_field", "--omega", "50"], "final_upup",
         lambda: parameters.make_final_params(
             "detect_upup", 29, 15, 0, drive_mode="local_field", omega=50.0)),
    ])
    def test_detuning_phase_and_final(self, runner, args, kind, make):
        data = _json_out(runner.invoke(main, ["params", "detuning", *args]))
        report = parameters.detuning_report(neurons.make_spec(kind, make(), (0, 1), 2))
        assert (data["kind"], data["ratios"]) == (kind, report.ratios)
        if kind == "phase":
            assert data["ratios"] == {"two_delta": 12.0}  # 2δ/B = 4m

    @pytest.mark.parametrize("args", [
        ["--kind", "phase", "--m", "3"], ["--kind", "phase", "--n", "82"],
        ["--kind", "final", "--l", "29"], ["--kind", "final", "--s", "15"],
        ["--kind", "exc", "--k", "8"],
    ])
    def test_detuning_missing_arguments_exit_2(self, runner, args):
        result = runner.invoke(main, ["params", "detuning", *args])
        assert result.exit_code == 2
        assert "detuning needs" in result.output

    @pytest.mark.parametrize("command", [
        ["neuron", "final"], ["params", "detuning", "--kind", "final"],
    ])
    def test_omega_with_rotating_drive_exit_2(self, runner, command):
        # Omega drives the local field only; with the rotating drive it is an error.
        args = [*command, "--l", "29", "--s", "15"]
        assert runner.invoke(main, args).exit_code == 0
        result = runner.invoke(main, [*args, "--omega", "50"])
        assert result.exit_code == 2
        assert "rotating drive takes no omega" in result.output


class TestNeuronCommands:
    def test_exc_report_and_trajectories(self, runner, tmp_path):
        out_file = tmp_path / "report.json"
        traj_dir = tmp_path / "traj"
        result = runner.invoke(
            main,
            ["neuron", "exc", "--k", "8", "--l", "17",
             "--traj", str(traj_dir), "--output", str(out_file)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out_file.read_text())
        assert report["fidelity"]["f_avg"] == pytest.approx(0.9998, abs=5e-4)
        assert report["fidelity"]["leakage"] <= 5e-4
        assert report["fidelity"]["subspace_dim"] == 6
        assert "timing_seconds" in report
        csvs = sorted(p.name for p in traj_dir.glob("*.csv"))
        assert csvs == [
            "trajectory_phi_minus.csv",
            "trajectory_phi_plus.csv",
            "trajectory_psi_minus.csv",
            "trajectory_psi_plus.csv",
        ]
        lines = (traj_dir / "trajectory_phi_minus.csv").read_text().splitlines()
        assert lines[0] == TRAJ_HEADER
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[2] == pytest.approx(-1.0, abs=1e-9)
        assert first[3] == pytest.approx(1.0, abs=1e-9)

    def test_trajectory_files_reproducible(self, runner, tmp_path):
        dirs = []
        for name in ("a", "b"):
            traj_dir = tmp_path / name
            result = runner.invoke(
                main,
                ["neuron", "exc", "--k", "3", "--l", "5", "--traj",
                 str(traj_dir)],
            )
            assert result.exit_code == 0, result.output
            dirs.append(traj_dir)
        for csv in ("trajectory_phi_plus.csv", "trajectory_psi_minus.csv"):
            assert (dirs[0] / csv).read_bytes() == (dirs[1] / csv).read_bytes()

    def test_phase_neuron_fidelity(self, runner):
        data = _json_out(
            runner.invoke(main, ["neuron", "phase", "--m", "3", "--n", "82"])
        )
        assert data["fidelity"]["f_avg"] == pytest.approx(0.9907, abs=3e-3)

    @pytest.mark.parametrize("args, budget", [
        (["phase", "--m", "3", "--n", "82"], 40),
        # The +-2% box around (40, 41) reaches k >= l; tuning still succeeds.
        (["exc", "--k", "40", "--l", "41"], 60),
    ])
    def test_tune_section(self, runner, args, budget):
        data = _json_out(runner.invoke(
            main, ["neuron", *args, "--tune", "--budget", str(budget)]))
        tune = data["tune"]
        assert set(tune) == {"initial_params", "tuned_params", "initial_fidelity",
                             "tuned_fidelity", "evaluations", "budget_exhausted"}
        assert tune["initial_params"] == data["parameters"]
        assert tune["initial_fidelity"] == data["fidelity"]["f_avg"]
        assert tune["tuned_fidelity"] > tune["initial_fidelity"]
        assert tune["evaluations"] <= budget
        tuned = tune["tuned_params"]
        assert tuned["relaxed"] is True
        assert tuned.get("l", 1) > tuned.get("k", 0)

    def test_phase_hierarchy_violation_exit_2(self, runner):
        result = runner.invoke(main, ["neuron", "phase", "--m", "3", "--n", "4"])
        assert result.exit_code == 2
        assert "hierarchy" in result.output or "hierarchy" in (
            result.stderr if hasattr(result, "stderr") else ""
        )

    def test_seed_from_environment(self, runner, monkeypatch):
        # No command is stochastic: QSNN_SEED is not read, so even a value
        # that is not a number leaves every command working.
        monkeypatch.setenv("QSNN_SEED", "abc")
        data = _json_out(
            runner.invoke(main, ["params", "solve-exc", "--k", "3", "--l", "5"])
        )
        assert data is not None
        data = _json_out(
            runner.invoke(main, ["neuron", "phase", "--m", "3", "--n", "82"])
        )
        assert "seed" not in data

    def test_seed_option_reads_environment(self, runner, monkeypatch):
        # The neuron commands take no --seed option and read no seed from
        # the environment; the report records no seed.
        command = ["neuron", "phase", "--m", "3", "--n", "82"]
        assert runner.invoke(main, command + ["--seed", "1"]).exit_code == 2
        monkeypatch.setenv("QSNN_SEED", "1234")
        data = _json_out(runner.invoke(main, command))
        assert "seed" not in data
        assert data["schema_version"] == 3

    def test_trajectory_rows_have_17_significant_digits(self, runner, tmp_path):
        result = runner.invoke(
            main, ["neuron", "exc", "--k", "6", "--l", "10", "--traj",
                   str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        spec = neurons.make_spec("excitation", parameters.solve_exc(6, 10),
                                 (0, 1), 2)
        for label, slug in (("Phi+", "phi_plus"), ("Psi-", "psi_minus")):
            traj = neurons.record_trajectory(spec, (label,))[0]
            columns = (traj.times, traj.output_x, traj.output_z,
                       traj.input_fidelity)
            expected = [TRAJ_HEADER] + [
                ",".join(f"{x:.17g}" for x in row) for row in zip(*columns)
            ]
            text = (tmp_path / f"trajectory_{slug}.csv").read_text()
            assert text.splitlines() == expected
            assert text.endswith("\n")

    def test_trajectory_csvs_are_the_row_format_byte_for_byte(self, runner,
                                                              tmp_path):
        # The shared time column is formatted once and spliced into the rows;
        # the files hold the bytes of _TRAJ_ROW applied row by row.
        result = runner.invoke(
            main, ["neuron", "phase", "--m", "3", "--n", "82", "--traj",
                   str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        spec = neurons.make_spec("phase", parameters.solve_phase(3, 82),
                                 (0, 1), 2)
        slugs = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
        for slug, traj in zip(slugs, neurons.record_trajectory(spec)):
            rows = zip(traj.times, traj.output_x, traj.output_z,
                       traj.input_fidelity)
            expected = TRAJ_HEADER + "\n" + "".join(_TRAJ_ROW % row for row in rows)
            path = tmp_path / f"trajectory_{slug}.csv"
            assert path.read_bytes() == expected.encode()

    def test_trajectories_match_the_integrator(self, runner, tmp_path,
                                               monkeypatch):
        # The Magnus stack against DOP853 over all of [0, tau] at 1e-13; without
        # a pair basis the excitation neuron takes the dense stack, and the ODE.
        def integrated(static, drives, times, tol, out):
            out[:] = core._integrate(static, drives, times, 1e-13)

        for name in ("magnus", "ode"):
            if name == "ode":
                monkeypatch.setattr(core, "_pair_basis", lambda *args: None)
                monkeypatch.setattr(core, "_floquet", integrated)
            result = runner.invoke(
                main, ["neuron", "exc", "--k", "6", "--l", "10", "--traj",
                       str(tmp_path / name)],
            )
            assert result.exit_code == 0, result.output
        paths = sorted((tmp_path / "magnus").glob("*.csv"))
        assert len(paths) == 4
        for path in paths:
            fast, ode = (np.loadtxt(tmp_path / name / path.name, delimiter=",",
                                    skiprows=1) for name in ("magnus", "ode"))
            assert fast.shape == (1000, 4)
            assert np.abs(fast - ode).max() <= 1e-10

    def test_trajectories_share_one_propagator_stack(self, runner, tmp_path,
                                                     monkeypatch):
        # One stack for all four inputs, whose last row is the report's U(tau).
        calls = []
        local_propagators = core._local_propagators

        def counted(*args, **kwargs):
            calls.append(args)
            return local_propagators(*args, **kwargs)

        monkeypatch.setattr(core, "_local_propagators", counted)
        result = runner.invoke(
            main, ["neuron", "exc", "--k", "6", "--l", "10", "--traj",
                   str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    @pytest.mark.parametrize("args", [
        ["exc", "--k", "6", "--l", "10"],
        ["exc", "--k", "8", "--l", "17"],
        ["phase", "--m", "3", "--n", "82"],
    ])
    def test_trajectory_report_reads_the_plain_fidelity(self, runner, tmp_path,
                                                       args):
        # U(tau) from the trajectory stack's last row gives the report the
        # fidelity that a propagation of tau alone gives.
        plain = _json_out(runner.invoke(main, ["neuron", *args]))
        traj = _json_out(runner.invoke(
            main, ["neuron", *args, "--traj", str(tmp_path)]))
        assert traj["fidelity"] == plain["fidelity"]
        assert list(traj) == list(plain)

    def test_excitation_csvs_are_the_row_format_byte_for_byte(self, runner,
                                                              tmp_path):
        # Phi+ and Phi- are the same trajectory for the excitation neuron:
        # its text is formatted once and written to both files.
        result = runner.invoke(
            main, ["neuron", "exc", "--k", "6", "--l", "10", "--traj",
                   str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        spec = neurons.make_spec("excitation", parameters.solve_exc(6, 10),
                                 (0, 1), 2)
        slugs = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")
        texts = []
        for slug, traj in zip(slugs, neurons.record_trajectory(spec)):
            rows = zip(traj.times, traj.output_x, traj.output_z,
                       traj.input_fidelity)
            expected = TRAJ_HEADER + "\n" + "".join(_TRAJ_ROW % row for row in rows)
            texts.append((tmp_path / f"trajectory_{slug}.csv").read_bytes())
            assert texts[-1] == expected.encode()
        assert texts[0] == texts[1] and len(set(texts)) == 3
        assert len(sorted(tmp_path.glob("trajectory_*.csv"))) == 4


_FINAL = parameters.make_final_params("detect_upup", 29, 15, 0)
# Finite values whose arithmetic overflows; each is invalid input (exit 2).
OUT_OF_RANGE = {
    "exc_params": lambda: neurons.ExcNeuronParams(k=1.0, l=1e200),
    "relaxed_exc_params": lambda: neurons.ExcNeuronParams(
        k=1.0, l=1e200, relaxed=True),
    "final_params": lambda: dataclasses.replace(_FINAL, gamma=1e200),
    "neuron_final": ["neuron", "final", "--l", "29", "--s", "15",
                     "--gamma", "1e200"],
    "solve_final": ["params", "solve-final", "--gamma", "1e200", "--l", "5",
                    "--s", "4"],
    "solve_exc": ["params", "solve-exc", "--k", "1", "--l", "1" + "0" * 200],
    "neuron_phase": ["neuron", "phase", "--m", "3", "--n", "1" + "0" * 400],
    "negative_max_l": ["params", "triples", "--max-l", "-5"],
    # Above parameters.MAX_TRIPLES_L, refused before the search.
    "max_l_above_bound": ["params", "triples", "--max-l", "10000000"],
    "huge_max_l": ["params", "triples", "--max-l", "1" + "0" * 400],
    "huge_max_l_call": lambda: parameters.pythagorean_triples(10**400),
    # tau = pi/A overflows for a tiny positive drive amplitude.
    "tiny_amplitude_exc_params": lambda: neurons.ExcNeuronParams(
        k=8.0, l=17.0, drive_amplitude=1e-320),
    "tiny_amplitude_phase_params": lambda: neurons.PhaseNeuronParams(
        m=3.0, n=82.0, drive_amplitude=1e-320),
    "tiny_amplitude_final_params": lambda: parameters.make_final_params(
        "detect_upup", 29, 15, 0, drive_amplitude=1e-320),
    "tiny_amplitude_neuron_exc": ["neuron", "exc", "--k", "8", "--l", "17",
                                  "--drive-amplitude", "1e-320"],
    "tiny_amplitude_neuron_phase": ["neuron", "phase", "--m", "3", "--n", "82",
                                    "--drive-amplitude", "1e-320"],
    "tiny_amplitude_neuron_final": ["neuron", "final", "--l", "29", "--s", "15",
                                    "--drive-amplitude", "1e-320"],
}


# Every command that takes --drive-amplitude; "{omega}" stands for 50A.
AMPLITUDE_COMMANDS = {
    "neuron_exc": ["neuron", "exc", "--k", "8", "--l", "17"],
    "neuron_phase": ["neuron", "phase", "--m", "3", "--n", "82"],
    "neuron_final": ["neuron", "final", "--l", "29", "--s", "15"],
    "neuron_final_local_field": ["neuron", "final", "--l", "29", "--s", "15",
                                 "--variant", "detect_downdown", "--drive-mode",
                                 "local_field", "--omega", "{omega}"],
    "solve_exc": ["params", "solve-exc", "--k", "8", "--l", "17"],
    "solve_phase": ["params", "solve-phase", "--m", "3", "--n", "82"],
    "solve_final": ["params", "solve-final", "--gamma", "1.0", "--l", "29",
                    "--s", "15"],
}


def _at_amplitude(runner, case: str, amplitude: float) -> dict:
    args = [arg.format(omega=50 * amplitude) for arg in AMPLITUDE_COMMANDS[case]]
    return _json_out(runner.invoke(
        main, args + ["--drive-amplitude", repr(amplitude)]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [1e-300, 1e300])
@pytest.mark.parametrize("case", sorted(AMPLITUDE_COMMANDS))
def test_drive_amplitude_extremes(case, amplitude, runner):
    # Neurons run in units of the drive: A scales the reported energies
    # and tau but changes no fidelity, down to 1e-300 and up to 1e300.
    unit, scaled = (_at_amplitude(runner, case, a) for a in (1.0, amplitude))
    if "fidelity" in unit:
        assert abs(scaled["fidelity"]["f_avg"] - unit["fidelity"]["f_avg"]) <= 1e-12
    for energy in ("beta", "coupling_j", "delta"):
        if energy in unit:
            assert scaled[energy] / amplitude == pytest.approx(unit[energy],
                                                              rel=1e-12)
    if "tau" in unit:
        assert scaled["tau"] * amplitude == pytest.approx(unit["tau"], rel=1e-12)


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_out_of_range_values_are_invalid(case, runner):
    value = OUT_OF_RANGE[case]
    if callable(value):
        with pytest.raises(InvalidParamsError):
            value()
        return
    result = runner.invoke(main, value)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")


class TestNetworkCommands:
    def test_export_validate_round_trip(self, runner, tmp_path):
        spec_file = tmp_path / "reduced.json"
        result = runner.invoke(
            main,
            ["network", "export-template", "--template", "reduced",
             "--output", str(spec_file)],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main, ["network", "validate", "--spec", str(spec_file)]
        )
        assert result.exit_code == 0
        assert "ok" in result.output

    def test_validate_rejects_unknown_field_exit_2(self, runner, tmp_path):
        spec_file = tmp_path / "reduced.json"
        runner.invoke(
            main,
            ["network", "export-template", "--template", "reduced",
             "--output", str(spec_file)],
        )
        data = json.loads(spec_file.read_text())
        data["bogus"] = 1
        spec_file.write_text(json.dumps(data))
        result = runner.invoke(
            main, ["network", "validate", "--spec", str(spec_file)]
        )
        assert result.exit_code == 2

    def test_validate_rejects_an_int_too_long_to_parse_exit_2(self, runner, tmp_path):
        spec_file = tmp_path / "huge.json"
        spec_file.write_text('{"schema_version": 1' + "0" * 5000 + "}")
        result = runner.invoke(
            main, ["network", "validate", "--spec", str(spec_file)]
        )
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: ")

    def test_unreadable_spec_exit_nonzero(self, runner, tmp_path):
        spec_file = tmp_path / "broken.json"
        spec_file.write_text("{not json")
        result = runner.invoke(
            main, ["network", "validate", "--spec", str(spec_file)]
        )
        assert result.exit_code != 0

    def test_run_matching_pair(self, runner):
        data = _json_out(
            runner.invoke(
                main,
                ["network", "run", "--template", "reduced",
                 "--input", "Phi+,Phi+"],
            )
        )
        assert data["p_up"] >= 0.97
        assert data["p_up"] + data["p_down"] == pytest.approx(1.0, abs=1e-9)

    def test_run_back_action(self, runner):
        data = _json_out(
            runner.invoke(
                main,
                ["network", "run", "--template", "reduced",
                 "--input", "Phi-,Psi+", "--back-action"],
            )
        )
        assert data["p_up"] <= 0.03
        # The improbable outcome's branch report may be present or None,
        # but the dominant outcome must carry overlap data.
        assert data["back_action"]["down"]["probability"] >= 0.97

    def test_run_back_action_reports_an_impossible_outcome_as_null(
            self, runner, monkeypatch):
        monkeypatch.setattr(network, "run",
                            lambda spec, inputs: core.StateVector.all_down(spec.num_qubits))
        data = _json_out(runner.invoke(
            main, ["network", "run", "--template", "reduced", "--back-action"]))
        assert data["p_up"] == 0.0
        assert data["back_action"]["up"] is None
        assert data["back_action"]["down"]["probability"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("template, diag_min, off_max", [
        ("reduced", 0.97, 0.03), ("full", 0.95, 0.05),
    ])
    def test_run_truth_table(self, runner, template, diag_min, off_max):
        data = _json_out(runner.invoke(
            main, ["network", "run", "--template", template, "--truth-table"]))
        rows = data["truth_table"]
        assert [(r["input_1"], r["input_2"]) for r in rows] == [
            (a, b) for a in core.BELL_LABELS for b in core.BELL_LABELS]
        for row in rows:
            if row["input_1"] == row["input_2"]:
                assert row["p_up"] >= diag_min, row
            else:
                assert row["p_up"] <= off_max, row

    def test_run_requires_exactly_one_source(self, runner):
        result = runner.invoke(main, ["network", "run"])
        # no --template and no --spec
        assert result.exit_code == 2

    def test_bad_input_labels_exit_2(self, runner):
        result = runner.invoke(
            main,
            ["network", "run", "--template", "reduced", "--input", "Phi+"],
        )
        assert result.exit_code == 2
