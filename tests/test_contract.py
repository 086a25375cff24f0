"""Malformed scalar and array inputs to the public API, in one table.

Each probe either raises a ValueError whose message names the argument, or,
run through the command line, exits 2 with "configuration error".  The
pytest configuration turns warnings into errors, so a probe that only warns
on its way to a failure fails here.  Every public name has a row, or a
place in the set of names that take no scalar control.
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


def _tuple(seed=0):
    return sf.sample_spurious_tuple(sf.spurious_point(_target(), [True, False]), _target(), seed)


def _escape(**fields):
    return ExperimentConfig("escape_s_r1", n=8, r=2, repeats=1, **fields)


# Public names that take no scalar control: records, array functions, constants and modules.
NO_SCALAR_CONTROL = {
    "EigenFrame", "FactoredPoint", "FlowDerivative", "FlowResult", "FlowState", "GroundTruth",
    "RgdRun", "SpuriousPoint", "SpuriousTuple", "SummaryReport", "TangentParam",
    "boundary_frame", "complement_basis", "distance_to_target", "dlra_rhs", "eig_min_derivative",
    "eigen_frame", "emit_summary", "enumerate_spurious", "gradient_norm", "rescaled_rhs",
    "rgd_step", "riem_gradient", "run_experiment", "run_rgd", "scaled_inverse",
    "scaled_inverse_gradient", "spurious_point", "stiefel_chart", "tangent_coordinate_basis",
    "tangent_coordinates",
    "TAU_GRAD", "TAU_ORTH",
    "experiments", "flows", "manifold", "oracles", "rgd", "spurious",
}


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
    "manifold_dim-m-float": (lambda: sf.manifold_dim(8.5, 8.5, 2, hermitian=True), "m"),
    "manifold_dim-n-float": (lambda: sf.manifold_dim(8, 8.5, 2), "n"),
    "retract-r-float": (lambda: sf.retract(np.eye(3), 2.0), "r"),
    "StepControls-dt-bool": (lambda: sf.StepControls(dt=True), "dt"),
    "integrate-t_end-bool": (
        lambda: sf.integrate("rescaled", _point(), _target(), True), "t_end"),
    "rescaled_jacobian-positive_tol-bool": (
        lambda: sf.rescaled_jacobian(_tuple(), _target()).spectrum(positive_tol=True),
        "positive_tol"),
    "rescaled_jacobian-positive_tol-inf": (
        lambda: sf.rescaled_jacobian(_tuple(), _target()).spectrum(positive_tol=np.inf),
        "positive_tol"),
    "perturb_near-epsilon-bool": (lambda: sf.perturb_near(_tuple(), True, 0), "epsilon"),
    "perturb_near-seed-float": (lambda: sf.perturb_near(_tuple(), 1e-2, 1.5), "seed"),
    "sample_spurious_tuple-seed-float": (lambda: _tuple(seed=1.5), "seed"),
    "make_ground_truth-seed-bool": (lambda: sf.make_ground_truth(4, 2, [2, 1], seed=True), "seed"),
    "haar_orthonormal-m-bool": (
        lambda: sf.haar_orthonormal(np.random.default_rng(0), 4, True), "m"),
    "run_single-seed-bool": (
        lambda: sf.run_single(ExperimentConfig("global_fixed", n=8, r=2, max_iters=10), True),
        "seed"),
    "iteration_jacobian-alpha-bool": (
        lambda: sf.iteration_jacobian(_tuple(), _target(), True), "alpha"),
    "fd_iteration_matrix-eps-bool": (
        lambda: sf.fd_iteration_matrix(_tuple(), _target(), 0.7, eps=True), "eps"),
    "fd_directional-h-bool": (
        lambda: sf.fd_directional(lambda v: v, np.zeros(2), np.ones(2), h=True), "h"),
    "fd_report-hs-bool": (
        lambda: sf.fd_report(lambda v: v, np.zeros(2), np.ones(2), np.ones(2), [True, 0.1, 0.01]),
        "hs"),
    "sin_theta_check-subspace_dim-float": (
        lambda: sf.sin_theta_check(np.diag([3.0, 2.0, 1.0]), np.zeros((3, 3)), 1.5),
        "subspace_dim"),
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
    "cli-epsilon-negative": (["global-fixed", "--n", "8", "--r", "2", "--epsilon", "-1"], CLI),
    "cli-config-epsilon-negative": (
        {"scenario": "global_fixed", "n": 8, "r": 2, "epsilon": -1}, CLI),
    # a spectrum that is not a one-dimensional sequence of numbers, checked before it is sorted
    "cli-config-eigenvalues-string": (
        {"scenario": "global_fixed", "n": 8, "r": 2, "eigenvalues": "21"}, CLI),
    "cli-config-eigenvalues-bool": (
        {"scenario": "global_fixed", "n": 8, "r": 2, "eigenvalues": [3, True]}, CLI),
    "make_ground_truth-eigenvalues-scalar": (
        lambda: sf.make_ground_truth(8, 1, 5.0, seed=0), "eigenvalues"),
    "GroundTruth-d-scalar": (
        lambda: sf.GroundTruth(np.eye(4)[:, :1], np.float64(2.0)), "eigenvalues"),
    "GroundTruth-U-one-dimensional": (lambda: sf.GroundTruth(np.ones(4), np.ones(1)), "U"),
    "FactoredPoint-S-shape": (lambda: sf.FactoredPoint(np.eye(4)[:, :2], np.eye(3)), "S"),
    "spurious_point-mask-length": (lambda: sf.spurious_point(_target(), [True]), "mask"),
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


def test_every_public_name_is_probed_or_takes_no_scalar_control():
    # a new public callable gets a PROBES row, or joins NO_SCALAR_CONTROL, before it ships
    missing = set(sf.__all__) - {key.split("-")[0] for key in PROBES} - NO_SCALAR_CONTROL
    assert sorted(missing) == []
