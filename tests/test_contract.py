"""Malformed scalar and array inputs to the public API, in one table.

Each probe either raises a ValueError whose message names the argument, or,
run through the command line, exits 2 with "configuration error".  The
pytest configuration turns warnings into errors, so a probe that only warns
on its way to a failure fails here.
"""

import json

import numpy as np
import pytest

import spsdflow as sf
from spsdflow.cli import main
from spsdflow.experiments import ExperimentConfig

CLI = "configuration error"


def _point():
    return sf.FactoredPoint(np.eye(4)[:, :2], np.diag([2.0, 1.0]))


def _target():
    return sf.GroundTruth(np.eye(4)[:, :2], np.array([3.0, 1.5]))


def _escape(**fields):
    return ExperimentConfig("escape_s_r1", n=8, r=2, repeats=1, **fields)


PROBES = {
    "GDConfig-max_iters-float": (lambda: sf.GDConfig(alpha=0.2, max_iters=2.5), "max_iters"),
    "GDConfig-max_iters-bool": (lambda: sf.GDConfig(alpha=0.2, max_iters=True), "max_iters"),
    "GDConfig-alpha-bool": (lambda: sf.GDConfig(alpha=True), "alpha"),
    "GDConfig-tol_dist-bool": (lambda: sf.GDConfig(alpha=0.2, tol_dist=True), "tol_dist"),
    "ExperimentConfig-alpha-bool": (lambda: _escape(alpha=True), "alpha"),
    "ExperimentConfig-epsilon-bool": (lambda: _escape(epsilon=True), "epsilon"),
    "ExperimentConfig-tol_dist-bool": (lambda: _escape(tol_dist=True), "tol_dist"),
    "ExperimentConfig-dt-bool": (lambda: _escape(dt=True), "dt"),
    "ExperimentConfig-t_end-bool": (lambda: _escape(t_end=True), "t_end"),
    "manifold_dim-r-float": (lambda: sf.manifold_dim(8, 8, 2.5, hermitian=True), "r"),
    "manifold_dim-r-bool": (lambda: sf.manifold_dim(8, 8, True, hermitian=True), "r"),
    "StepControls-tau_conv-inf": (lambda: sf.StepControls(tau_conv=np.inf), "tau_conv"),
    "tangent_project-Y-nan": (lambda: sf.tangent_project(_point(), np.full((4, 4), np.nan)), "Y"),
    "tangent_project-Y-inf": (lambda: sf.tangent_project(_point(), np.full((4, 4), np.inf)), "Y"),
    "riem_hessian_apply-xi-nan": (
        lambda: sf.riem_hessian_apply(_point(), _target(), np.full((4, 4), np.nan)), "xi"),
    "target_spectrum-overflow": (
        lambda: sf.make_ground_truth(4, 2, [1e308, 1e307], seed=0), "eigenvalues"),
    "cli-eigenvalues-overflow": (
        ["global-fixed", "--n", "4", "--r", "2", "--eigenvalues", "1e308,1e307"], CLI),
    "cli-config-alpha-true": (
        {"scenario": "global_fixed", "n": 8, "r": 2, "max_iters": 10, "alpha": True}, CLI),
}


@pytest.mark.parametrize("probe, name", PROBES.values(), ids=PROBES.keys())
def test_bad_input_is_rejected_by_name(probe, name, tmp_path, capsys):
    if callable(probe):
        with pytest.raises(ValueError, match=rf"(^|\W){name}\W"):
            probe()
        return
    if isinstance(probe, dict):           # a JSON config for `spsdflow run`
        path = tmp_path / "config.json"
        path.write_text(json.dumps(probe))
        probe = ["run", "--config", str(path)]
    assert main(probe) == 2
    assert CLI in capsys.readouterr().err
