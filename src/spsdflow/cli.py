"""Command-line front end: one subcommand per experiment scenario.

Every flag has a JSON-config equivalent (``spsdflow run --config cfg.json``
with identical field names).  Exit codes: 0 success, 2 configuration error,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .experiments import SCENARIOS, ExperimentConfig, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _add_common(p: argparse.ArgumentParser) -> None:
    # Defaults live in ExperimentConfig: an absent flag leaves its field unset.
    p.add_argument("--n", type=int, help="ambient dimension")
    p.add_argument("--r", type=int, help="rank")
    p.add_argument("--eigenvalues", type=str,
                   help="comma-separated target spectrum (default: r,r-1,...,1)")
    p.add_argument("--alpha", type=float, help="stepsize coefficient")
    p.add_argument("--mode", choices=("fixed", "varying"),
                   help="stepsize rule for the escape scenarios")
    p.add_argument("--epsilon", type=float,
                   help="perturbation radius relative to the spurious point norm")
    p.add_argument("--repeats", type=int, help="number of seeded runs")
    p.add_argument("--max-iters", type=int, help="iteration cap per run")
    p.add_argument("--seed", type=int, dest="master_seed", metavar="SEED",
                   help="master seed; run i uses seed+i")
    p.add_argument("--tol-dist", type=float,
                   help="distance threshold declaring convergence to the target")
    p.add_argument("--dt", type=float, help="flow time step")
    p.add_argument("--t-end", type=float, help="flow horizon")
    p.add_argument("--out-dir", type=str, help="directory for CSV/JSON output")
    p.add_argument("--workers", type=int, help="process-pool size for repeats")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spsdflow",
        description="Gradient descent and gradient-flow experiments on the "
                    "fixed-rank SPSD matrix manifold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name.replace("_", "-"), help=f"run the {name} scenario",
                           argument_default=argparse.SUPPRESS)
        _add_common(p)
        p.set_defaults(scenario=name)
    p = sub.add_parser("run", help="run a scenario described by a JSON config file")
    p.add_argument("--config", type=str, required=True, help="path to a JSON config")
    p.add_argument("--out-dir", type=str, default=None, help="override the config out_dir")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    if args.command == "run":
        text = Path(args.config).read_text(encoding="utf-8")
        cfg = ExperimentConfig.from_json(text)
        if args.out_dir is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out_dir)
        return cfg
    fields = {k: v for k, v in vars(args).items() if k != "command"}
    eig = fields.pop("eigenvalues", None)
    if eig is not None:                   # "" is an empty spectrum, not the default
        fields["eigenvalues"] = tuple(float(v) for v in eig.split(","))
    return ExperimentConfig(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on bad flags already
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        if cfg.out_dir is not None:       # a file in the way fails here, not after the runs
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    counts = ", ".join(f"{k}={v}" for k, v in sorted(report.status_counts.items()))
    print(f"{cfg.scenario}: {cfg.repeats} run(s); {counts}")
    if cfg.out_dir is not None:
        print(f"wrote outputs to {cfg.out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
