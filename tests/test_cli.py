"""Command-line interface: reports, exit codes, and file artifacts."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import pytest
from click.testing import CliRunner

from qsnn import neurons, parameters
from qsnn.cli import TRAJ_HEADER, main
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
        assert data["schema_version"] == 1

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

    def test_solve_final_no_solution_exit_2(self, runner):
        result = runner.invoke(
            main,
            ["params", "solve-final", "--gamma", "1.0", "--l", "2",
             "--s", "5", "--k-parity", "even"],
        )
        assert result.exit_code == 2

    def test_detuning_exc(self, runner):
        data = _json_out(
            runner.invoke(
                main, ["params", "detuning", "--kind", "exc", "--k", "8",
                       "--l", "17"]
            )
        )
        assert sorted(data["ratios"].values()) == [16.0, 18.0, 50.0]


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

    def test_phase_hierarchy_violation_exit_2(self, runner):
        result = runner.invoke(main, ["neuron", "phase", "--m", "3", "--n", "4"])
        assert result.exit_code == 2
        assert "hierarchy" in result.output or "hierarchy" in (
            result.stderr if hasattr(result, "stderr") else ""
        )

    def test_seed_from_environment(self, runner, monkeypatch):
        monkeypatch.setenv("QSNN_SEED", "1234")
        data = _json_out(
            runner.invoke(
                main, ["params", "solve-exc", "--k", "3", "--l", "5"]
            )
        )
        assert data is not None  # seed only affects stochastic commands

    def test_seed_option_reads_environment(self, runner, monkeypatch):
        monkeypatch.setenv("QSNN_SEED", "1234")
        data = _json_out(
            runner.invoke(main, ["neuron", "phase", "--m", "3", "--n", "82"])
        )
        assert data["seed"] == 1234
        monkeypatch.setenv("QSNN_SEED", "abc")
        result = runner.invoke(main, ["neuron", "phase", "--m", "3", "--n", "82"])
        assert result.exit_code == 2

    def test_trajectory_rows_have_17_significant_digits(self, runner, tmp_path):
        result = runner.invoke(
            main, ["neuron", "exc", "--k", "6", "--l", "10", "--traj",
                   str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        spec = neurons.make_spec("excitation", parameters.solve_exc(6, 10),
                                 (0, 1), 2)
        for label, slug in (("Phi+", "phi_plus"), ("Psi-", "psi_minus")):
            traj = neurons.record_trajectory(spec, label)
            columns = (traj.times, traj.output_x, traj.output_z,
                       traj.input_fidelity)
            expected = [TRAJ_HEADER] + [
                ",".join(f"{x:.17g}" for x in row) for row in zip(*columns)
            ]
            text = (tmp_path / f"trajectory_{slug}.csv").read_text()
            assert text.splitlines() == expected
            assert text.endswith("\n")


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
