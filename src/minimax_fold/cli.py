"""Command line entry point: ``minimax-fold <study> [--config ...] [flags]``.

Exit codes: 0 success, 2 configuration error, 3 solver failure (partial
artifacts are kept), 4 hypothesis-check failure under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import harness
from .harness import EXIT_CONFIG, ConfigError, RunConfig


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built once per process:
    ``parse_args`` returns a fresh namespace each time, so it is shared."""
    parser = argparse.ArgumentParser(
        prog="minimax-fold",
        description="Maximal fold values of cooperative elliptic systems by the "
                    "minimax Rayleigh-quotient method.",
    )
    sub = parser.add_subparsers(dest="study", required=True)
    for study in harness.STUDIES:
        p = sub.add_parser(study)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--problem", help="catalog problem name")
        p.add_argument("--q", type=float)
        p.add_argument("--gamma", type=float)
        p.add_argument("--gamma1", type=float)
        p.add_argument("--m", type=int, help="component count (system problems)")
        p.add_argument("--kappa", type=float, help="perturbation size(s)", nargs="+")
        p.add_argument("--n", type=int, help="mesh size (largest when several)")
        p.add_argument("--sizes", type=int, nargs="+", help="mesh size list")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--strict", action="store_true",
                       help="fail (exit 4) when a structural hypothesis is violated")
        p.add_argument("--svg", action="store_true", help="emit a static SVG chart")
    return parser


def config_from_args(args) -> RunConfig:
    """The run configuration: the ``--config`` file's keys, each flag given
    overriding its key, validated once as a whole."""
    data = _read_config(args.config) if args.config else {}
    data["study"] = args.study
    if args.out:
        data["out_dir"] = args.out
    if args.seed is not None:
        data["seed"] = args.seed
    if args.sizes:
        data["mesh_sizes"] = tuple(args.sizes)
    elif args.n is not None:
        data["mesh_sizes"] = (args.n,)
    if args.strict:
        data["strict"] = True
    if args.svg:
        data["svg"] = True
    if args.kappa:
        data["perturb_kappas"] = tuple(args.kappa)
    if args.gamma1 is not None:
        data["perturb_gamma1"] = args.gamma1

    params: dict = {}
    for key in ("q", "gamma", "m"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.problem:
        data["problem"] = {"name": args.problem, "params": params}
    elif params:
        # the file's problem (named in it or by its problem_name key), flags' values
        # winning; RunConfig.from_dict names a problem or params that is no object
        problem = data.get("problem", {})
        if isinstance(problem, dict) and isinstance(problem.get("params", {}), dict):
            data["problem"] = {**problem, "params": {**problem.get("params", {}), **params}}
    return RunConfig.from_dict(data)


def _read_config(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except (ConfigError, ValueError, KeyError, TypeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    code = harness.run(config)
    if code != 0:
        print(f"run finished with exit code {code}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
