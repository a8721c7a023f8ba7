"""The benchmark's workloads: seeded op sequences, set-up, ops and checks.

Workloads with more than one op kind draw them in fixed-size blocks (a
seeded permutation of a fixed slot list), so the op mix is the same for
every seed, and every workload draws points from seeded decks that visit
each pool point once per pass (neuron_cold's reports once per pass of each
cost stratum), so the seed changes the order but not the composition.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path
from typing import NamedTuple

import click
import numpy as np

from qsnn import cli, core, network

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Checks against tests/test_acceptance.py at the paper's points.
PAPER_EXC_POINT, PAPER_EXC_F, PAPER_EXC_TOL = "exc:8:17", 0.9998, 5e-4
PAPER_TUNE_FLOORS = {"phase:3:82": 0.9955, "phase:5:80": 0.9905}

F_AVG_TOL = 1e-6
# The simplex may take another path after roundoff-level changes upstream,
# but it must not end measurably worse than it did when the table was made.
TUNED_F_TOL = 1e-4
TUNE_BUDGET = 300
TRAJ_SAMPLES = 1000
TRAJ_FILES = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


class Op(NamedTuple):
    kind: str       # op kind within the workload's block
    key: str        # point key in reference.json, or the network template
    payload: tuple  # CLI arguments, or the (a, b) input pair


class Verdict(NamedTuple):
    error: str | None = None
    bytes_written: int = 0


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def run_cli(args: list[str]) -> tuple[int, str]:
    """Run one `qsnn` command in this process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="qsnn", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
    return code, err.getvalue()


def _deck(rng: np.random.Generator, items):
    """Endless draws; each pass over items is a fresh seeded permutation."""
    while True:
        for index in rng.permutation(len(items)):
            yield items[index]


def _stratified(rng: np.random.Generator, strata):
    """Endless rounds of one draw per stratum, each round in seeded order."""
    decks = [_deck(rng, list(stratum)) for stratum in strata]
    while True:
        for index in rng.permutation(len(decks)):
            yield next(decks[index])


def _exc_key(k: int, l: int) -> str:
    return f"exc:{k}:{l}"


def _final_key(variant: str, l: int, s: int, mode: str) -> str:
    return f"final:{variant}:{l}:{s}:{mode}"


def _phase_key(m: int, n: int) -> str:
    return f"phase:{m}:{n}"


def _exc_args(k: int, l: int) -> tuple:
    return ("neuron", "exc", "--k", str(k), "--l", str(l))


def _tune_args(m: int, n: int) -> tuple:
    return ("neuron", "phase", "--m", str(m), "--n", str(n), "--tune",
            "--budget", str(TUNE_BUDGET))


def _final_args(variant: str, l: int, s: int, mode: str) -> tuple:
    args = ("neuron", "final", "--variant", variant, "--l", str(l),
            "--s", str(s))
    if mode == "local_field":
        args += ("--drive-mode", "local_field", "--omega", str(LOCAL_FIELD_OMEGA))
    return args


# --------------------------------------------------------------------------
# neuron_cold

# Every Pythagorean triple with l <= 41 (k the shorter leg).
EXC_POINTS = (
    (3, 5), (6, 10), (5, 13), (9, 15), (8, 17), (12, 20), (7, 25), (15, 25),
    (10, 26), (20, 29), (18, 30), (16, 34), (21, 35), (12, 37), (15, 39),
    (24, 40), (9, 41),
)
# (29, 15) is the network templates' point, (17, 9) a smaller solution.
FINAL_POINTS = tuple(
    (variant, l, s, mode)
    for variant in ("detect_upup", "detect_downdown")
    for l, s in ((29, 15), (17, 9))
    for mode in ("rotating", "local_field")
)
LOCAL_FIELD_OMEGA = 50
# The report points in order of cost (about 0.1 s for exc:3:5 up to 0.7 s
# for the local-field final points at (29,15)), cut into five strata of five.
# Report ops take one point from each stratum per round of five, so any run
# holds the same spread of costs whatever the seed: with a plain shuffle,
# which four of the 25 points a ~20-report run leaves out moved its median
# by 15%.
REPORT_STRATA = (
    ("exc:3:5", "exc:6:10", "exc:5:13", "exc:9:15",
     "final:detect_downdown:17:9:rotating"),
    ("final:detect_upup:17:9:rotating", "exc:8:17", "exc:12:20", "exc:10:26",
     "exc:7:25"),
    ("final:detect_downdown:29:15:rotating", "exc:15:25", "exc:20:29",
     "final:detect_downdown:17:9:local_field", "exc:18:30"),
    ("exc:9:41", "final:detect_upup:29:15:rotating",
     "final:detect_upup:17:9:local_field", "exc:16:34", "exc:12:37"),
    ("exc:15:39", "exc:21:35", "exc:24:40",
     "final:detect_downdown:29:15:local_field",
     "final:detect_upup:29:15:local_field"),
)
# Trajectory ops use one point, so they form one cluster of like cost
# (~1.2 s), dearer than any report op (<= ~0.7 s).
TRAJ_POINT = (6, 10)
# Two ops in five write trajectories: the median lands on report ops and
# the tail (about p70 at ~40 ops a run) inside the trajectory cluster.
NEURON_BLOCK = ("report", "report", "report", "traj", "traj")


class NeuronCold:
    """Cold single-neuron CLI reports; every op runs its own propagator."""

    name = "neuron_cold"

    def __init__(self, work_dir: Path, reference: dict):
        self.work_dir = work_dir
        self.report_path = work_dir / "report.json"
        self.traj_dir = work_dir / "traj"
        self.f_avg = reference["f_avg"]

    def ops(self, seed: int):
        rng = np.random.default_rng(seed)
        report_args = dict(
            [(_exc_key(*p), _exc_args(*p)) for p in EXC_POINTS]
            + [(_final_key(*p), _final_args(*p)) for p in FINAL_POINTS]
        )
        reports = _stratified(rng, REPORT_STRATA)
        traj_key = _exc_key(*TRAJ_POINT)
        traj_args = _exc_args(*TRAJ_POINT) + ("--traj", str(self.traj_dir))
        for kind in _deck(rng, NEURON_BLOCK):
            if kind == "report":
                key = next(reports)
                yield Op(kind, key, report_args[key])
            else:
                yield Op(kind, traj_key, traj_args)

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        warm = Op("report", _exc_key(3, 5), _exc_args(3, 5))
        verdict = self.check(warm, self.run(warm))
        if verdict.error:
            raise RuntimeError(f"warm-up op failed: {verdict.error}")

    def run(self, op: Op) -> tuple[int, str]:
        return run_cli(list(op.payload) + ["--output", str(self.report_path)])

    def check(self, op: Op, outcome: tuple[int, str]) -> Verdict:
        try:
            return self._check(op, outcome)
        finally:
            self.report_path.unlink(missing_ok=True)
            shutil.rmtree(self.traj_dir, ignore_errors=True)

    def _check(self, op: Op, outcome: tuple[int, str]) -> Verdict:
        code, stderr = outcome
        if code != 0:
            return Verdict(f"{op.key}: exit {code}: {stderr.strip()}")
        written = self.report_path.stat().st_size
        report = json.loads(self.report_path.read_text())
        error = check_f_avg(op.key, report["fidelity"]["f_avg"], self.f_avg)
        if error is None and op.kind == "traj":
            error, size = check_trajectories(self.traj_dir, report)
            written += size
        return Verdict(error, bytes_written=written)


def check_f_avg(key: str, f_avg: float, table: dict) -> str | None:
    expected = table[key]
    if not abs(f_avg - expected) <= F_AVG_TOL:
        return f"{key}: f_avg {f_avg!r} differs from reference {expected!r}"
    if key == PAPER_EXC_POINT and not abs(f_avg - PAPER_EXC_F) <= PAPER_EXC_TOL:
        return f"{key}: f_avg {f_avg!r} outside {PAPER_EXC_F} ± {PAPER_EXC_TOL}"
    return None


def check_trajectories(traj_dir: Path, report: dict) -> tuple[str | None, int]:
    """The four trajectory CSVs: header, sample count, ranges, time span."""
    paths = [traj_dir / f"trajectory_{slug}.csv" for slug in TRAJ_FILES]
    if sorted(report["artifacts"]) != sorted(str(p) for p in paths):
        return f"unexpected artifacts {report['artifacts']}", 0
    size = 0
    for path in paths:
        size += path.stat().st_size
        with path.open(newline="") as handle:
            rows = list(csv.reader(handle))
        if ",".join(rows[0]) != cli.TRAJ_HEADER:
            return f"{path.name}: header {rows[0]}", size
        data = np.array(rows[1:], dtype=float)
        if data.shape != (TRAJ_SAMPLES, 4) or not np.all(np.isfinite(data)):
            return f"{path.name}: {data.shape} table or non-finite values", size
        t, out_x, out_z, in_f = data.T
        if t[0] != 0.0 or not math.isclose(t[-1], math.pi, rel_tol=1e-12):
            return f"{path.name}: time axis {t[0]}..{t[-1]}", size
        if np.max(np.abs(out_x)) > 1 + 1e-9 or np.max(np.abs(out_z)) > 1 + 1e-9:
            return f"{path.name}: Pauli expectation outside [-1, 1]", size
        if np.min(in_f) < 0.0 or np.max(in_f) > 1 + 1e-6:
            return f"{path.name}: input fidelity outside [0, 1]", size
    return None, size


# --------------------------------------------------------------------------
# tune_static

# The grid holds (5, 80), one of the paper's tuner checks; (3, 82) is the
# other, and (4, 164) is the network templates' phase point.
TUNE_POINTS = tuple(
    (m, ratio * m) for m in (3, 4, 5, 6) for ratio in (12, 16, 20, 27)
) + ((3, 82), (4, 164))
# Valid starts whose ±2% tuning box crosses 4m >= 8 or 2n >= 20m: the tuner
# raises HierarchyViolationError there (a known defect in parameters.tune),
# although each reports fine without --tune.  They are kept out of the timed
# ops, which must all succeed, and probed once after the timed loop instead.
FLOOR_POINTS = ((2, 20), (2, 40), (2, 54), (3, 30), (4, 40), (5, 50), (6, 60))


class TuneStatic:
    """`neuron phase --tune`: static_z drive, so no ODE, ~95 evaluations."""

    name = "tune_static"

    def __init__(self, work_dir: Path, reference: dict):
        self.work_dir = work_dir
        self.report_path = work_dir / "report.json"
        self.f_avg = reference["f_avg"]
        self.tuned = reference["tuned_fidelity"]

    def ops(self, seed: int):
        for point in _deck(np.random.default_rng(seed), list(TUNE_POINTS)):
            yield Op("tune", _phase_key(*point), _tune_args(*point))

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        point = TUNE_POINTS[0]
        warm = Op("tune", _phase_key(*point), _tune_args(*point))
        verdict = self.check(warm, self.run(warm))
        if verdict.error:
            raise RuntimeError(f"warm-up op failed: {verdict.error}")

    def run(self, op: Op) -> tuple[int, str]:
        return run_cli(list(op.payload) + ["--output", str(self.report_path)])

    def check(self, op: Op, outcome: tuple[int, str]) -> Verdict:
        try:
            return self._check(op, outcome)
        finally:
            self.report_path.unlink(missing_ok=True)

    def _check(self, op: Op, outcome: tuple[int, str]) -> Verdict:
        code, stderr = outcome
        if code != 0:
            return Verdict(f"{op.key}: exit {code}: {stderr.strip()}")
        written = self.report_path.stat().st_size
        report = json.loads(self.report_path.read_text())
        error = check_f_avg(op.key, report["fidelity"]["f_avg"], self.f_avg)
        if error is None:
            error = check_tune(op.key, report["tune"], self.tuned)
        return Verdict(error, bytes_written=written)

    def probe_known_defect(self) -> dict:
        """Tune once from every hierarchy-floor start, untimed.

        Returns which starts still hit the known defect (exit 2 with the
        hierarchy message); once parameters.tune is fixed the list empties.
        """
        reproduced = []
        for point in FLOOR_POINTS:
            code, stderr = run_cli(list(_tune_args(*point))
                                   + ["--output", str(self.report_path)])
            self.report_path.unlink(missing_ok=True)
            if code == 2 and "hierarchy" in stderr.lower():
                reproduced.append(_phase_key(*point))
        return {"probed": len(FLOOR_POINTS), "reproduced": reproduced}


def check_tune(key: str, tune: dict, table: dict) -> str | None:
    tuned = tune["tuned_fidelity"]
    if tuned < tune["initial_fidelity"] - 1e-12:
        return f"{key}: tuned {tuned!r} below start {tune['initial_fidelity']!r}"
    if tune["evaluations"] > TUNE_BUDGET:
        return f"{key}: {tune['evaluations']} evaluations over the budget"
    if key in table and tuned < table[key] - TUNED_F_TOL:
        return f"{key}: tuned {tuned!r} below reference {table[key]!r}"
    if key in PAPER_TUNE_FLOORS and tuned < PAPER_TUNE_FLOORS[key]:
        return f"{key}: tuned {tuned!r} below {PAPER_TUNE_FLOORS[key]}"
    return None


# --------------------------------------------------------------------------
# network_warm

# Nine ops in ten run the reduced template, one in ten the full one; 11
# in 50 arrive as a JSON spec document, one of them on the full template.
# The median lands on reduced ops.  The dearest kind, full-template JSON,
# is 2% of ops, so the p99 tail lands mid-way through its latencies rather
# than on its slowest few, which the host's scheduling noise sets.
NETWORK_BLOCK = ((("reduced", False),) * 35 + (("reduced", True),) * 10
                 + (("full", False),) * 4 + (("full", True),))
OUTCOME_FLOOR = 1e-12


class NetworkOutcome(NamedTuple):
    spec: object
    violations: list
    p_up: float
    p_down: float
    branches: dict


def haar_pair(rng: np.random.Generator) -> tuple:
    pair = []
    for _ in range(2):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        pair.append(network.BellAmplitudes.from_sequence(z / np.linalg.norm(z)))
    return tuple(pair)


class NetworkWarm:
    """Bell-comparison runs on warm templates: executor, measurement, JSON."""

    name = "network_warm"

    def __init__(self, work_dir: Path, reference: dict):
        self.tolerance = reference["kernel_tolerance"]
        self.specs: dict = {}
        self.docs: dict = {}

    def ops(self, seed: int):
        rng = np.random.default_rng(seed)
        for template, as_json in _deck(rng, NETWORK_BLOCK):
            kind = f"{template}_json" if as_json else template
            yield Op(kind, template, haar_pair(rng))

    def setup(self) -> None:
        pure = (network.BellAmplitudes.pure("Phi+"),) * 2
        for template in ("reduced", "full"):
            self.specs[template] = network.template(template)
            self.docs[template] = network.to_json(self.specs[template])
            warm = Op(template, template, pure)
            verdict = self.check(warm, self.run(warm))
            if verdict.error:
                raise RuntimeError(f"warm-up op failed: {verdict.error}")

    def run(self, op: Op) -> NetworkOutcome:
        violations = []
        if op.kind.endswith("_json"):
            spec = network.from_json(self.docs[op.key])
            violations = network.validate(spec)
        else:
            spec = self.specs[op.key]
        final = network.run(spec, op.payload)
        result = core.measure(final, spec.output_qubit)
        branches = {}
        for outcome, p in (("up", result.p_up), ("down", result.p_down)):
            if p > OUTCOME_FLOOR:
                branches[outcome] = network.back_action(final, spec, outcome)
        return NetworkOutcome(spec, violations, result.p_up, result.p_down,
                              branches)

    def check(self, op: Op, outcome: NetworkOutcome) -> Verdict:
        return Verdict(check_network(
            op, outcome, self.specs[op.key], self.tolerance[op.key]))


def check_network(op: Op, outcome: NetworkOutcome, spec, tolerance: float):
    if outcome.violations:
        return f"{op.kind}: validation failed: {outcome.violations}"
    if outcome.spec != spec:
        return f"{op.kind}: parsed spec differs from the template"
    a, b = op.payload
    kernel = network.bell_kernel(a, b)
    if not abs(outcome.p_up - kernel) <= tolerance:
        return (f"{op.kind}: p_up {outcome.p_up!r} differs from kernel "
                f"{kernel!r} by more than {tolerance}")
    if not abs(outcome.p_up + outcome.p_down - 1.0) <= 1e-9:
        return f"{op.kind}: p_up + p_down = {outcome.p_up + outcome.p_down!r}"
    for name, p in (("up", outcome.p_up), ("down", outcome.p_down)):
        branch = outcome.branches.get(name)
        if (branch is None) != (p <= OUTCOME_FLOOR):
            return f"{op.kind}: back-action for {name} missing or unexpected"
        if branch is not None and not abs(branch.probability - p) <= 1e-12:
            return (f"{op.kind}: back-action probability {branch.probability!r}"
                    f" != measured {p!r}")
    return None


WORKLOADS = {cls.name: cls for cls in (NeuronCold, TuneStatic, NetworkWarm)}
