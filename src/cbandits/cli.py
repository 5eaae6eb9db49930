"""Command-line front end: run seeded experiments from a config file,
evaluate bounds over a time grid, query the exact enumeration oracle,
and validate configs.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or
parameters.  The ``run`` subcommand echoes the fully-resolved config to
stdout as YAML; re-parsing that echo reproduces the experiment exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Mapping

import yaml

from cbandits.analysis import exact_selection_probability, feasibility_profile
from cbandits.bounds import (
    VARIANT_RHO_LINEAR,
    VARIANT_RHO_SQUARED,
    closed_form_lower_bound,
    selection_lower_bound,
)
from cbandits.core import (
    ValidationError,
    _check_keys,
    _require_mapping,
    instance_from_config,
)
from cbandits.harness import (
    ExperimentConfig,
    _format_csv_value,
    run_experiment,
    write_results_csv,
    write_summary_json,
)
from cbandits.strategies import (
    POLICY_CONSTRAINED,
    TIE_LOWEST_INDEX,
    TIE_RULES,
    ConstantSchedule,
    InverseTimeSchedule,
    _check_strategy,
    schedule_from_config,
)

__all__ = [
    "BOUNDS_CSV_COLUMNS",
    "DEFAULT_OUTPUT",
    "load_config_file",
    "experiment_from_mapping",
    "main",
]

_TOP_KEYS = ("instance", "strategy", "schedule", "experiment", "output")
_EXPERIMENT_KEYS = ("checkpoints", "deltas", "replications", "master_seed")
_OUTPUT_KEYS = ("results_csv", "summary_json")

DEFAULT_OUTPUT = {"results_csv": "results.csv", "summary_json": "summary.json"}

BOUNDS_CSV_COLUMNS = (
    "t",
    "num_arms",
    "delta",
    "rho",
    "epsilon_t",
    "x_t",
    "factor_eps",
    "factor_count",
    "factor_feas",
    "factor_reward",
    "raw",
    "clamped",
    "vacuous",
)


def load_config_file(path: str) -> Mapping:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ValidationError("bad_config", f"config file not found: {path}")
    except yaml.YAMLError as err:
        raise ValidationError("bad_config", f"config file {path} is not valid YAML: {err}")
    return _require_mapping(loaded, "config")


def _parse_sections(top: Mapping) -> dict:
    """Validate section structure and parse everything but checkpoints."""
    top = _require_mapping(top, "config")
    _check_keys(top, _TOP_KEYS, "config")
    for section in ("instance", "schedule"):
        if section not in top:
            raise ValidationError(
                "bad_config", f"missing required config section {section!r}"
            )
    instance = instance_from_config(top["instance"])
    schedule = schedule_from_config(top["schedule"])

    strategy_raw = _require_mapping(top.get("strategy", {}), "strategy")
    _check_keys(strategy_raw, ("kind", "tie_rule"), "strategy")
    policy = strategy_raw.get("kind", POLICY_CONSTRAINED)
    tie_rule = strategy_raw.get("tie_rule", TIE_LOWEST_INDEX)
    _check_strategy(policy, tie_rule)

    experiment_raw = _require_mapping(top.get("experiment", {}), "experiment")
    _check_keys(experiment_raw, _EXPERIMENT_KEYS, "experiment")
    if not isinstance(experiment_raw.get("deltas", []), (list, tuple)):
        raise ValidationError("bad_config", "experiment.deltas must be a list")

    output_raw = _require_mapping(top.get("output", {}), "output")
    _check_keys(output_raw, _OUTPUT_KEYS, "output")
    output = dict(DEFAULT_OUTPUT)
    for key in _OUTPUT_KEYS:
        if key in output_raw:
            value = output_raw[key]
            if not isinstance(value, str) or not value:
                raise ValidationError(
                    "bad_config", f"output.{key} must be a non-empty path string"
                )
            output[key] = value

    return {
        "instance": instance,
        "schedule": schedule,
        "policy": policy,
        "tie_rule": tie_rule,
        "experiment_raw": experiment_raw,
        "output": output,
    }


def experiment_from_mapping(top: Mapping) -> tuple[ExperimentConfig, dict]:
    """Build a fully-validated experiment plus output paths from a parsed
    config mapping.  Defaults are filled in here so the resolved echo is
    always explicit."""
    parts = _parse_sections(top)
    experiment_raw = parts["experiment_raw"]
    if "checkpoints" not in experiment_raw:
        raise ValidationError("bad_config", "experiment.checkpoints is required")
    checkpoints = experiment_raw["checkpoints"]
    if not isinstance(checkpoints, (list, tuple)):
        raise ValidationError(
            "bad_config", "experiment.checkpoints must be a list of integers"
        )
    config = ExperimentConfig(
        instance=parts["instance"],
        schedule=parts["schedule"],
        checkpoints=tuple(checkpoints),
        deltas=tuple(experiment_raw.get("deltas", [0.0])),
        replications=experiment_raw.get("replications", 100),
        master_seed=experiment_raw.get("master_seed", 0),
        policy=parts["policy"],
        tie_rule=parts["tie_rule"],
    )
    return config, parts["output"]


def _apply_overrides(top: Mapping, args: argparse.Namespace) -> dict:
    mutable = {key: value for key, value in top.items()}
    experiment = dict(_require_mapping(mutable.get("experiment", {}), "experiment"))
    strategy = dict(_require_mapping(mutable.get("strategy", {}), "strategy"))
    if args.replications is not None:
        experiment["replications"] = args.replications
    if args.master_seed is not None:
        experiment["master_seed"] = args.master_seed
    if args.tie_rule is not None:
        strategy["tie_rule"] = args.tie_rule
    if experiment:
        mutable["experiment"] = experiment
    if strategy:
        mutable["strategy"] = strategy
    return mutable


def cmd_run(args: argparse.Namespace) -> int:
    top = _apply_overrides(load_config_file(args.config), args)
    config, output = experiment_from_mapping(top)
    if args.workers < 1:
        raise ValidationError(
            "bad_parameter", f"--workers must be >= 1, got {args.workers}"
        )

    resolved = config.to_config()
    resolved["output"] = dict(output)
    print(yaml.safe_dump(resolved, sort_keys=True, default_flow_style=False), end="")

    started = time.monotonic()
    result = run_experiment(config, workers=args.workers)
    elapsed = time.monotonic() - started

    os.makedirs(args.out_dir, exist_ok=True)
    results_path = os.path.join(args.out_dir, output["results_csv"])
    summary_path = os.path.join(args.out_dir, output["summary_json"])
    write_results_csv(results_path, result.estimates)
    write_summary_json(
        summary_path,
        result,
        metadata={"elapsed_seconds": elapsed, "workers": args.workers},
    )
    print(f"wrote {results_path} and {summary_path}", file=sys.stderr)
    return 0


def _bound_schedule(args: argparse.Namespace):
    if (args.k is None) == (args.epsilon is None):
        raise ValidationError(
            "bad_config", "exactly one of --k (inverse-time) or --epsilon (constant) is required"
        )
    if args.k is not None:
        return InverseTimeSchedule(args.k)
    return ConstantSchedule(args.epsilon)


def _emit(text: str, out: str | None) -> None:
    """Write a report to stdout, or to the ``--out`` path if one is given."""
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {out}", file=sys.stderr)


def cmd_bound(args: argparse.Namespace) -> int:
    schedule = _bound_schedule(args)
    grid = list(args.t_grid)
    if not grid:
        raise ValidationError("bad_config", "--t-grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(
            "bad_config", f"--t-grid must be strictly increasing, got {grid}"
        )

    variants = {
        "both": (VARIANT_RHO_SQUARED, VARIANT_RHO_LINEAR),
        VARIANT_RHO_SQUARED: (VARIANT_RHO_SQUARED,),
        VARIANT_RHO_LINEAR: (VARIANT_RHO_LINEAR,),
    }[args.variant]
    columns = BOUNDS_CSV_COLUMNS + tuple(f"closed_form_{v}" for v in variants)

    lines = [",".join(columns)]
    for t in grid:
        report = selection_lower_bound(schedule, t, args.num_arms, args.delta, args.rho)
        # The report's fields, without the deep copy of asdict, which
        # would add about a tenth to each row's time.
        fields = dict(vars(report), raw=report.raw_product)
        row = [fields[column] for column in BOUNDS_CSV_COLUMNS]
        for variant in variants:
            if isinstance(schedule, InverseTimeSchedule) and t >= schedule.k:
                closed = closed_form_lower_bound(
                    schedule.k, args.num_arms, args.delta, args.rho, float(t), variant
                )
                row.append(closed.clamped)
            else:
                row.append("")
        lines.append(",".join(_format_csv_value(v) if v != "" else "" for v in row))

    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    parts = _parse_sections(load_config_file(args.config))
    if args.deltas is not None:
        deltas = tuple(args.deltas)
    else:
        deltas = tuple(parts["experiment_raw"].get("deltas", [0.0]))
    result = exact_selection_probability(
        parts["instance"],
        parts["schedule"],
        args.t,
        deltas=deltas,
        tie_rule=parts["tie_rule"],
        policy=parts["policy"],
        method=args.method,
    )
    _emit(json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    violations = []
    notes = []
    try:
        top = load_config_file(args.config)
    except ValidationError as err:
        print(f"violation [{err.code}]: {err}")
        print("invalid: 1 violation")
        return 2

    parts = None
    try:
        parts = _parse_sections(top)
    except ValidationError as err:
        violations.append(err)
    if parts is not None:
        notes.append(f"instance: {parts['instance'].num_arms} arms, "
                     f"constraint level {parts['instance'].constraint_level}")
        profile = feasibility_profile(parts["instance"])
        notes.append(f"feasible arms: {sorted(profile.feasible)}")
        notes.append(f"optimal feasible arms: {sorted(profile.optimal)}")
        notes.append(f"rho = {profile.rho}, eta = {profile.eta}")
        if profile.rho == 0.0:
            notes.append("note: rho = 0, the selection bound is vacuous")
        if profile.eta == 0.0:
            notes.append("note: eta = 0, an arm sits exactly on the budget")
        if "experiment" in top and "checkpoints" in top["experiment"]:
            try:
                experiment_from_mapping(top)
                notes.append("experiment: valid")
            except ValidationError as err:
                violations.append(err)
        else:
            notes.append("experiment: no checkpoints declared, run config incomplete")

    for note in notes:
        print(f"ok: {note}")
    for err in violations:
        print(f"violation [{err.code}]: {err}")
    if violations:
        print(f"invalid: {len(violations)} violation(s)")
        return 2
    print("valid")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cbandits",
        description=(
            "Constrained epsilon-greedy bandits: seeded Monte Carlo runs, "
            "selection lower bounds, and exact small-horizon oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a config-driven experiment")
    run_parser.add_argument("--config", required=True, help="YAML config path")
    run_parser.add_argument("--out-dir", default=".", help="directory for output files")
    run_parser.add_argument("--workers", type=int, default=1, help="parallel workers")
    run_parser.add_argument("--master-seed", type=int, default=None, help="override seed")
    run_parser.add_argument(
        "--replications", type=int, default=None, help="override replication count"
    )
    run_parser.add_argument(
        "--tie-rule", choices=list(TIE_RULES), default=None, help="override tie rule"
    )
    run_parser.set_defaults(func=cmd_run)

    bound_parser = sub.add_parser("bound", help="evaluate bounds over a time grid")
    bound_parser.add_argument("--num-arms", type=int, required=True)
    bound_parser.add_argument("--delta", type=float, required=True)
    bound_parser.add_argument("--rho", type=float, required=True)
    bound_parser.add_argument("--k", type=float, default=None, help="inverse-time schedule")
    bound_parser.add_argument(
        "--epsilon", type=float, default=None, help="constant schedule"
    )
    bound_parser.add_argument("--t-grid", type=int, nargs="+", required=True)
    bound_parser.add_argument(
        "--variant",
        choices=["both", VARIANT_RHO_SQUARED, VARIANT_RHO_LINEAR],
        default="both",
        help="closed-form column(s) to include",
    )
    bound_parser.add_argument("--out", default=None, help="CSV path (default stdout)")
    bound_parser.set_defaults(func=cmd_bound)

    oracle_parser = sub.add_parser(
        "oracle", help="exact selection probabilities by enumeration"
    )
    oracle_parser.add_argument("--config", required=True)
    oracle_parser.add_argument("--t", type=int, required=True)
    oracle_parser.add_argument("--deltas", type=float, nargs="*", default=None)
    oracle_parser.add_argument(
        "--method", choices=["fraction", "float"], default="fraction"
    )
    oracle_parser.add_argument("--out", default=None, help="JSON path (default stdout)")
    oracle_parser.set_defaults(func=cmd_oracle)

    validate_parser = sub.add_parser("validate", help="check a config file")
    validate_parser.add_argument("--config", required=True)
    validate_parser.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"config error [{err.code}]: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - the CLI boundary maps to exit 1
        print(f"runtime error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
