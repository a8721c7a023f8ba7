"""Command-line interface: neuron runs, network runs, constraint solving.

Exit codes: 0 success, 1 simulation/runtime failure, 2 validation failure.
Reports are single JSON documents with a schema_version field; trajectory
tables are CSV with header ``t,out_x,out_z,input_fidelity`` at 17
significant digits, in program units (ħ=1, energy unit = drive amplitude A,
so t is in units of 1/A).  With --traj, one propagator stack gives the tables
and the report's U(tau), and equal tables are formatted once.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import network as network_mod
from . import neurons, parameters
from .core import BELL_LABELS, measure
from .errors import (
    InvalidParamsError,
    NetworkValidationError,
    NonOrthonormalSubspaceError,
    OutOfBoundsError,
    QsnnError,
)

SCHEMA_VERSION = 3
TRAJ_HEADER = "t,out_x,out_z,input_fidelity"
_TRAJ_ROW = "%.17g,%.17g,%.17g,%.17g\n"

# The final-layer kind of each --variant.
_FINAL_KINDS = {variant: kind for kind, variant in neurons.FINAL_VARIANTS.items()}

_VALIDATION_ERRORS = (
    InvalidParamsError,
    NetworkValidationError,
    OutOfBoundsError,
    NonOrthonormalSubspaceError,
)


def _fail(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    code = 2 if isinstance(exc, _VALIDATION_ERRORS) else 1
    sys.exit(code)


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, indent=2)
    if output:
        Path(output).write_text(text + "\n")
    else:
        click.echo(text)


def _write_trajectories(kind: str, params, traj_dir: str) -> tuple[list[str], np.ndarray]:
    directory = Path(traj_dir)
    directory.mkdir(parents=True, exist_ok=True)
    trajectories = neurons.record_trajectory(neurons.make_spec(kind, params, (0, 1), 2))
    block = np.empty((len(trajectories[0].times), 4), dtype=object)
    block[:, 0] = ("%.17g\n" * len(block) % tuple(trajectories[0].times.tolist())).split()
    rows = _TRAJ_ROW.replace("%.17g", "%s", 1) * len(block)  # shared t, formatted once
    paths, texts = [], {}  # each distinct trajectory's text, by its columns' bits
    for label, traj in zip(BELL_LABELS, trajectories):
        slug = label.lower().replace("+", "_plus").replace("-", "_minus")
        path = directory / f"trajectory_{slug}.csv"
        columns = np.column_stack((traj.output_x, traj.output_z, traj.input_fidelity))
        if (key := columns.tobytes()) not in texts:
            block[:, 1:] = columns
            texts[key] = TRAJ_HEADER + "\n" + rows % tuple(block.ravel().tolist())
        path.write_text(texts[key])
        paths.append(str(path))
    return paths, trajectories[0].propagator


def _neuron_report(
    kind: str, params, tune: bool, budget: int, traj: str | None,
    output: str | None, command: str,
) -> None:
    started = time.perf_counter()
    artifacts, bare = _write_trajectories(kind, params, traj) if traj else ([], None)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": dataclasses.asdict(params),
        "fidelity": dataclasses.asdict(neurons.fidelity_report(kind, params, bare)),
    }
    if tune:
        result = parameters.tune(params, kind, budget=budget,
                                 f0=report["fidelity"]["f_avg"])
        report["tune"] = {
            "initial_params": dataclasses.asdict(result.initial_params),
            "tuned_params": dataclasses.asdict(result.tuned_params),
            "initial_fidelity": result.initial_fidelity,
            "tuned_fidelity": result.final_fidelity,
            "evaluations": result.evaluations,
            "budget_exhausted": result.budget_exhausted,
        }
    report["artifacts"] = artifacts
    report["timing_seconds"] = time.perf_counter() - started
    _emit(report, output)


class _Main(click.Group):
    """The command group; every command's QsnnError ends here."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except QsnnError as exc:
            _fail(exc)


@click.group(cls=_Main)
def main() -> None:
    """Simulator for spiking quantum neurons and Bell-comparison networks."""


@main.group()
def neuron() -> None:
    """Single-neuron fidelity reports, tuning, and trajectories."""


_AMPLITUDE = click.option(
    "--drive-amplitude", type=float, default=1.0, show_default=True,
    help="Drive amplitude A. Neurons run in units of A: it scales only the "
         "reported energies and tau.")


def _neuron_options(fn):
    for option in reversed([
        _AMPLITUDE,
        click.option("--tune", "do_tune", is_flag=True,
                     help="Run the simplex tuner from this start point."),
        click.option("--budget", type=int, default=300, show_default=True),
        click.option("--traj", type=click.Path(file_okay=False),
                     help="Directory for per-Bell-input trajectory CSVs."),
        click.option("--output", type=click.Path(dir_okay=False),
                     help="Write the JSON report here instead of stdout."),
    ]):
        fn = option(fn)
    return fn


@neuron.command("exc")
@click.option("--k", type=int, required=True)
@click.option("--l", type=int, required=True)
@click.option("--gamma-mode", type=click.Choice(["unity", "general"]),
              default="unity", show_default=True)
@click.option("--s", type=int, default=None,
              help="Integer s for general-gamma mode.")
@click.option("--j-sign", type=click.Choice(["1", "-1"]), default="1")
@_neuron_options
def neuron_exc(k, l, gamma_mode, s, j_sign, drive_amplitude, do_tune,
               budget, traj, output):
    """Excitation-parity neuron at the (k, l) constraint point."""
    params = parameters.solve_exc(
        k, l, drive_amplitude, gamma_mode=gamma_mode, s=s,
        j_sign=int(j_sign),
    )
    _neuron_report("excitation", params, do_tune, budget, traj, output,
                   f"neuron exc --k {k} --l {l}")


@neuron.command("phase")
@click.option("--m", type=int, required=True)
@click.option("--n", type=int, required=True)
@_neuron_options
def neuron_phase(m, n, drive_amplitude, do_tune, budget, traj, output):
    """Relative-phase neuron at the (m, n) constraint point."""
    params = parameters.solve_phase(m, n, drive_amplitude)
    _neuron_report("phase", params, do_tune, budget, traj, output,
                   f"neuron phase --m {m} --n {n}")


@neuron.command("final")
@click.option("--variant", type=click.Choice(list(_FINAL_KINDS)),
              default="detect_upup", show_default=True)
@click.option("--l", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--k-parity", type=click.Choice(["even", "odd"]), default="even",
              show_default=True)
@click.option("--gamma", type=float, default=1.0, show_default=True)
@click.option("--drive-mode", type=click.Choice(["rotating", "local_field"]),
              default="rotating", show_default=True)
@click.option("--omega", type=float, default=None)
@_AMPLITUDE
@click.option("--output", type=click.Path(dir_okay=False))
def neuron_final(variant, l, s, k_parity, gamma, drive_mode, omega,
                 drive_amplitude, output):
    """Final-layer detector neuron."""
    params = parameters.make_final_params(
        variant, l=l, s=s, parity_k=0 if k_parity == "even" else 1,
        gamma=gamma, drive_amplitude=drive_amplitude,
        drive_mode=drive_mode, omega=omega,
    )
    _neuron_report(_FINAL_KINDS[variant], params, False, 0, None, output,
                   f"neuron final --variant {variant} --l {l} --s {s}")


@main.group()
def network() -> None:
    """Build and run Bell-state comparison networks."""


def _load_network(template, spec_file):
    if (template is None) == (spec_file is None):
        raise InvalidParamsError("provide exactly one of --template/--spec")
    if spec_file is not None:
        return network_mod.from_json(Path(spec_file).read_text())
    return network_mod.template(template)


def _parse_input(text: str) -> tuple:
    labels = [part.strip() for part in text.split(",")]
    if len(labels) != 2:
        raise InvalidParamsError(
            f"input must be two comma-separated Bell labels, got {text!r}"
        )
    return tuple(network_mod.BellAmplitudes.pure(label) for label in labels)


@network.command("run")
@click.option("--template", type=click.Choice(["full", "reduced"]),
              default=None)
@click.option("--spec", "spec_file", type=click.Path(exists=True,
              dir_okay=False), default=None)
@click.option("--input", "input_text", default="Phi+,Phi+",
              show_default=True, help='Two Bell labels, e.g. "Phi+,Psi-".')
@click.option("--truth-table", is_flag=True,
              help="Also run all 16 pure Bell-pair input combinations.")
@click.option("--back-action", "do_back_action", is_flag=True,
              help="Report conditional input-branch overlaps per outcome.")
@click.option("--output", type=click.Path(dir_okay=False))
def network_run(template, spec_file, input_text, truth_table,
                do_back_action, output):
    """Run a comparison network and report the output-qubit distribution."""
    started = time.perf_counter()
    spec = _load_network(template, spec_file)
    inputs = _parse_input(input_text)
    final = network_mod.run(spec, inputs)
    result = measure(final, spec.output_qubit)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "network run",
        "template": template,
        "spec_file": spec_file,
        "input": input_text,
        "p_up": result.p_up,
        "p_down": result.p_down,
    }
    if do_back_action:
        branches = {}
        for outcome, p in (("up", result.p_up), ("down", result.p_down)):
            if p < 1e-12:
                branches[outcome] = None
                continue
            ba = network_mod.back_action(final, spec, outcome)
            branches[outcome] = {
                "probability": ba.probability,
                "branch_overlaps": ba.branch_overlaps,
            }
        report["back_action"] = branches
    if truth_table:
        pure = network_mod.BellAmplitudes.pure
        report["truth_table"] = [
            {"input_1": b1, "input_2": b2,
             "p_up": network_mod.output_excitation_probability(spec, (pure(b1), pure(b2)))}
            for b1 in BELL_LABELS for b2 in BELL_LABELS]
    report["timing_seconds"] = time.perf_counter() - started
    _emit(report, output)


@network.command("export-template")
@click.option("--template", type=click.Choice(["full", "reduced"]),
              required=True)
@click.option("--output", type=click.Path(dir_okay=False), required=True)
def network_export_template(template, output):
    """Write a template's NetworkSpec JSON document to a file."""
    spec = network_mod.template(template)
    Path(output).write_text(network_mod.to_json(spec) + "\n")


@network.command("validate")
@click.option("--spec", "spec_file", type=click.Path(exists=True,
              dir_okay=False), required=True)
def network_validate(spec_file):
    """Validate a NetworkSpec JSON document."""
    network_mod.from_json(Path(spec_file).read_text())
    click.echo("ok")


@main.group()
def params() -> None:
    """Constraint solving and detuning diagnostics."""


@params.command("triples")
@click.option("--max-l", type=int, required=True)
def params_triples(max_l):
    """Pythagorean triples (k, j, l) with l up to the bound."""
    triples = parameters.pythagorean_triples(max_l)
    click.echo(json.dumps({"schema_version": SCHEMA_VERSION,
                           "triples": [list(t) for t in triples]}))


@params.command("solve-exc")
@click.option("--k", type=int, required=True)
@click.option("--l", type=int, required=True)
@click.option("--gamma-mode", type=click.Choice(["unity", "general"]),
              default="unity", show_default=True)
@click.option("--s", type=int, default=None)
@click.option("--sign", type=click.Choice(["1", "-1"]), default="1")
@_AMPLITUDE
def params_solve_exc(k, l, gamma_mode, s, sign, drive_amplitude):
    """Solve the excitation-neuron constraints."""
    p = parameters.solve_exc(k, l, drive_amplitude,
                             gamma_mode=gamma_mode, s=s, sign=int(sign))
    click.echo(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "params": dataclasses.asdict(p),
        "beta": p.beta, "coupling_j": p.coupling_j, "tau": p.tau,
    }))


@params.command("solve-phase")
@click.option("--m", type=int, required=True)
@click.option("--n", type=int, required=True)
@_AMPLITUDE
def params_solve_phase(m, n, drive_amplitude):
    """Solve the phase-neuron constraints."""
    p = parameters.solve_phase(m, n, drive_amplitude)
    click.echo(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "params": dataclasses.asdict(p),
        "coupling_j": p.coupling_j, "delta": p.delta, "tau": p.tau,
        "hierarchy_warning": p.hierarchy_warning,
    }))


@params.command("solve-final")
@click.option("--gamma", type=float, required=True)
@click.option("--l", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--k-parity", type=click.Choice(["even", "odd"]),
              default="even", show_default=True)
@_AMPLITUDE
def params_solve_final(gamma, l, s, k_parity, drive_amplitude):
    """Solve the final-layer phase-matching condition for (beta, J)."""
    beta, j = parameters.solve_final_beta(
        gamma, l, s, 0 if k_parity == "even" else 1, drive_amplitude
    )
    click.echo(json.dumps({
        "schema_version": SCHEMA_VERSION, "beta": beta, "coupling_j": j,
    }))


@params.command("detuning")
@click.option("--kind", type=click.Choice(["exc", "phase", "final"]),
              required=True)
@click.option("--k", type=int, default=None)
@click.option("--l", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--s", type=int, default=None)
@click.option("--variant", type=click.Choice(list(_FINAL_KINDS)),
              default="detect_upup")
@click.option("--drive-mode", type=click.Choice(["rotating", "local_field"]),
              default="rotating")
@click.option("--omega", type=float, default=None)
def params_detuning(kind, k, l, m, n, s, variant, drive_mode, omega):
    """Detuning-to-drive ratios for a neuron's suppressed transitions."""
    if kind == "exc":
        if k is None or l is None:
            raise InvalidParamsError("exc detuning needs --k and --l")
        kind = "excitation"
        p = parameters.solve_exc(k, l)
    elif kind == "phase":
        if m is None or n is None:
            raise InvalidParamsError("phase detuning needs --m and --n")
        p = parameters.solve_phase(m, n)
    else:
        if l is None or s is None:
            raise InvalidParamsError("final detuning needs --l and --s")
        p = parameters.make_final_params(
            variant, l=l, s=s, parity_k=0, drive_mode=drive_mode,
            omega=omega,
        )
        kind = _FINAL_KINDS[variant]
    spec = neurons.make_spec(kind, p, (0, 1), 2)
    report = parameters.detuning_report(spec)
    click.echo(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "kind": report.kind,
        "ratios": report.ratios,
    }))


if __name__ == "__main__":  # pragma: no cover
    main()
