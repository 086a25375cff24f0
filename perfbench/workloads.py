"""The benchmark's workloads: seeded inputs, one timed execution, correctness gates.

Each workload turns a seed into inputs, runs them through spsdflow's public
entry points once, and returns an :class:`Outcome`.  Only the call into the
library is timed, by a :class:`reference.Clock` that the workload lets
measure the host's speed at its check points; building the inputs and
checking the outputs are not timed.
A unit is the smallest piece a gate passes or fails: one seeded repeat of
an experiment, or one boundary tuple (plus the subspace-bound sweep as one
more unit).  An exception or a non-zero exit fails every unit of the
execution.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spsdflow as sf
from reference import Clock
from spsdflow import cli, experiments
from spsdflow.flows import _raw_rescaled
from spsdflow.manifold import sym
from spsdflow.oracles import SeparationError


@dataclass
class Outcome:
    """One execution of a workload: its time, its work and what its gates said."""

    wall_s: float                   # measured seconds
    ref_wall_s: float               # reference seconds (see reference.py)
    steps: int                      # descent iterations plus RK4 steps
    units_ok: list[bool]
    digest: str                     # sha256 of the outputs
    errors: list[str] = field(default_factory=list)


def _failed(units: int, message: str) -> Outcome:
    return Outcome(0.0, 0.0, 0, [False] * units, "", [message])


def _digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(path).as_posix().encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


class CliWorkload:
    """An experiment run through ``spsdflow.cli.main`` with ``workers=1``."""

    def __init__(self, name: str, fields: dict, tiny: dict, write: bool, reference: str):
        self.name = name
        self.fields = fields        # ExperimentConfig fields, also the CLI flags
        self.tiny = tiny            # overrides for the smoke-test size
        self.write = write          # whether the run writes an output directory
        self.reference = reference  # the reference kernel whose work resembles this one's

    def config(self, tiny: bool) -> dict:
        return {**self.fields, **(self.tiny if tiny else {})}

    def setup_code(self, seed: int, tiny: bool) -> str:
        """Source a cold interpreter runs to import, configure and build the target."""
        return (
            "import spsdflow\n"
            "from spsdflow.experiments import ExperimentConfig\n"
            f"cfg = ExperimentConfig(**{self.config(tiny)!r}, master_seed={seed}, workers=1)\n"
            "spsdflow.make_ground_truth(cfg.n, cfg.r, cfg.eigenvalues, seed=cfg.master_seed)\n"
        )

    def argv(self, seed: int, out_dir: Path | None, tiny: bool) -> list[str]:
        fields = self.config(tiny)
        argv = [fields["scenario"].replace("_", "-")]
        for key, value in fields.items():
            if key != "scenario":
                argv += [f"--{key.replace('_', '-')}", repr(value)]
        argv += ["--seed", str(seed), "--workers", "1"]
        if out_dir is not None:
            argv += ["--out-dir", str(out_dir)]
        return argv

    def execute(self, seed: int, scratch: Path, tiny: bool = False,
                clock: Clock | None = None) -> Outcome:
        clock = clock or Clock(None)
        repeats = self.config(tiny)["repeats"]
        out_dir = scratch / "out" if self.write else None
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        reports = []
        inner, single = cli.run_experiment, experiments.run_single

        def capture(cfg):
            reports.append(inner(cfg))
            return reports[-1]

        def checked(cfg, seed):
            clock.check()                   # between repeats
            return single(cfg, seed)

        stdout, stderr = io.StringIO(), io.StringIO()
        cli.run_experiment, experiments.run_single = capture, checked
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                clock.start()
                code = cli.main(self.argv(seed, out_dir, tiny))
                clock.stop()
            if code != 0 or not reports:
                return _failed(repeats, f"exit code {code}: {stderr.getvalue().strip()}")
            return self._check(reports[0], clock, out_dir)
        except Exception:  # noqa: BLE001 - an execution that raises fails all its units
            return _failed(repeats, traceback.format_exc())
        finally:
            cli.run_experiment, experiments.run_single = inner, single
            if out_dir is not None:
                shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, report, clock: Clock, out_dir: Path | None) -> Outcome:
        cfg = report.config
        if cfg.scenario.startswith("escape"):
            ok = [t["status"] == "converged_to_X" and t["dist"] < cfg.tol_dist
                  for t in report.terminals]
            steps = sum(t["iters"] for t in report.terminals)
        else:
            ok = [run.status == "t_end" and run.records[-1, 1] < run.records[0, 1]
                  for run in report.runs]
            steps = sum(len(run.records) - 1 for run in report.runs)
        errors = []
        if out_dir is None:
            digest = hashlib.sha256(json.dumps(report.terminals, sort_keys=True).encode()).hexdigest()
        else:
            expected = {f"run_{i:03d}.csv" for i in range(cfg.repeats)}
            expected |= {"summary.csv", "summary.json"}
            found = {p.name for p in out_dir.iterdir()}
            sidecar = json.loads((out_dir / "summary.json").read_text()) if "summary.json" in found else {}
            if found != expected or sidecar.get("statuses") != report.statuses:
                errors.append(f"output directory does not match the report: {sorted(found ^ expected)}")
                ok = [False] * len(ok)
            digest = _digest_dir(out_dir)
        if len(ok) != cfg.repeats:
            errors.append(f"{len(ok)} runs reported for {cfg.repeats} repeats")
            ok = [False] * cfg.repeats
        return Outcome(clock.measured_s, clock.reference_s, steps, ok, digest, errors)


ALPHA = 0.7
SWEEP_CHECK = 100       # sweep instances between clock check points


class BoundaryWorkload:
    """Boundary Jacobian spectra and oracle checks, called as library functions.

    For every rank-deficit-one tuple: the iteration-map Jacobian and its
    finite-difference matrix (criterion 10), the rescaled-flow Jacobian's
    spectrum and a finite-difference check of its escape ray (criterion 06).
    Then one fixed sweep of the subspace perturbation bound (criterion 11).
    """

    name = "boundary_spectra"
    reference = "interp"

    @staticmethod
    def size(tiny: bool) -> dict:
        if tiny:
            return {"n": 12, "eigenvalues": (3.0, 2.0, 1.0), "tuple_seeds": 1, "sweep": 50}
        return {"n": 40, "eigenvalues": (5.0, 4.0, 3.0, 2.0, 1.0), "tuple_seeds": 4, "sweep": 2000}

    def setup_code(self, seed: int, tiny: bool) -> str:
        size = self.size(tiny)
        return (
            "import spsdflow\n"
            f"spsdflow.make_ground_truth({size['n']}, {len(size['eigenvalues'])}, "
            f"{size['eigenvalues']!r}, seed={seed})\n"
        )

    def inputs(self, seed: int, tiny: bool):
        size = self.size(tiny)
        r = len(size["eigenvalues"])
        gt = sf.make_ground_truth(size["n"], r, size["eigenvalues"], seed=seed)
        tuples = []
        for miss in range(r):
            sp = sf.spurious_point(gt, [i != miss for i in range(r)])
            for j in range(size["tuple_seeds"]):
                tuples.append(sf.sample_spurious_tuple(sp, gt, seed=size["tuple_seeds"] * seed + j))
        rng = np.random.default_rng(seed)
        sweep = []
        for _ in range(size["sweep"]):          # criterion 11's instance generator
            n, k = 8, 3
            Q = sf.haar_orthonormal(rng, n, n)
            top = np.sort(rng.uniform(2.5, 4.0, k))[::-1]
            rest = np.sort(rng.uniform(-1.0, 1.0, n - k))[::-1]
            A = sym(Q @ np.diag(np.concatenate([top, rest])) @ Q.T)
            Delta = sym(rng.standard_normal((n, n))) * rng.uniform(0.01, 0.4)
            sweep.append((A, Delta, k))
        return gt, tuples, sweep

    def execute(self, seed: int, scratch: Path, tiny: bool = False,
                clock: Clock | None = None) -> Outcome:
        clock = clock or Clock(None)
        gt, tuples, sweep = self.inputs(seed, tiny)
        units = len(tuples) + 1
        try:
            clock.start()
            spectra = []
            for tup in tuples:
                clock.check()
                spectra.append(self._spectra(tup, gt))
            bounds = []
            for i, (A, Delta, k) in enumerate(sweep):
                if i % SWEEP_CHECK == 0:
                    clock.check()
                try:
                    bounds.append(sf.sin_theta_check(A, Delta, k))
                except SeparationError:
                    bounds.append(None)
            clock.stop()
        except Exception:  # noqa: BLE001 - an execution that raises fails all its units
            return _failed(units, traceback.format_exc())

        ok = [self._gate(tup, *out) for tup, out in zip(tuples, spectra)]
        checked = [b for b in bounds if b is not None]
        ok.append(bool(checked) and all(b.holds for b in checked))
        h = hashlib.sha256()
        for rep, fd, spec, ray in spectra:
            for arr in (rep.eigenvalues, fd, spec.eigenvalues, [ray]):
                h.update(np.ascontiguousarray(arr).tobytes())
        for b in checked:
            h.update(np.array([b.lhs_fro, b.rhs_fro, b.lhs_two, b.rhs_two]).tobytes())
        steps = sum(2 * fd.shape[1] for _, fd, _, _ in spectra)   # two descent steps per FD column
        return Outcome(clock.measured_s, clock.reference_s, steps, ok, h.hexdigest())

    @staticmethod
    def _spectra(tup, gt):
        rep = sf.iteration_jacobian(tup, gt, ALPHA)
        fd = sf.fd_iteration_matrix(tup, gt, ALPHA, eps=1e-5, h=1e-8)
        jac = sf.rescaled_jacobian(tup, gt)
        spec = jac.spectrum(positive_tol=1e-8)
        xi = jac.escape_direction()
        fd_xi = sf.fd_directional(lambda p: _raw_rescaled(p[0], p[1], gt), (tup.U, tup.S), xi, h=1e-6)
        ray = float(np.sum(fd_xi[0] * xi[0]) / np.sum(xi[0] * xi[0]))   # Rayleigh quotient on xi_U
        return rep, fd, spec, ray

    @staticmethod
    def _gate(tup, rep, fd, spec, ray: float) -> bool:
        """Acceptance bounds of criteria 10 (iteration map) and 06 (rescaled flow)."""
        eig = np.sort(rep.eigenvalues)
        iteration_ok = (int(np.sum(eig > 1 + 1e-6)) == 1
                        and float(np.max(np.abs(eig[:-1] - 1.0))) <= 1e-8
                        and abs(eig[-1] - rep.escape_eigenvalue) <= 1e-8 * rep.escape_eigenvalue
                        and float(np.max(np.abs(fd - rep.matrix))) <= 1e-4)
        d_miss = float(tup.point.d_miss[0])
        flow_ok = (spec.n_positive == 1
                   and abs(float(np.max(spec.eigenvalues.real)) - d_miss) <= 1e-8 * d_miss
                   and spec.escape_residual <= 1e-8
                   and abs(ray - d_miss) <= 1e-4 * d_miss)
        return bool(iteration_ok and flow_ok)


WORKLOADS = {
    w.name: w for w in (
        CliWorkload(
            "escape_n100",
            {"scenario": "escape_s_r1", "n": 100, "r": 5, "alpha": 0.2,
             "epsilon": 1e-2, "repeats": 400},
            {"n": 30, "r": 3, "repeats": 8},
            write=True,
            reference="interp",
        ),
        CliWorkload(
            "escape_n1000",
            {"scenario": "escape_s_r1", "n": 1000, "r": 5, "alpha": 0.2,
             "epsilon": 1e-2, "repeats": 24},
            {"n": 60, "r": 3, "repeats": 3},
            write=False,
            reference="dense",
        ),
        CliWorkload(
            "flow_rescaled_n200",
            {"scenario": "flow_rescaled", "n": 200, "r": 10, "dt": 1e-2,
             "t_end": 5.0, "repeats": 10},
            {"n": 20, "r": 3, "t_end": 0.5, "repeats": 2},
            write=True,
            reference="interp",
        ),
        BoundaryWorkload(),
    )
}
