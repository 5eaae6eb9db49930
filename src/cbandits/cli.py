"""Command-line front end: run seeded experiments from a config file,
evaluate bounds over a time grid, query the exact enumeration oracle,
and validate configs.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration or
parameters.  The ``run`` subcommand echoes the fully-resolved config to
stdout as YAML; re-parsing that echo reproduces the experiment exactly.

Each subcommand imports only what it uses: ``bound`` is plain Python
and loads neither PyYAML nor numpy, ``oracle`` and ``validate`` load
PyYAML to read the config, and only ``run`` loads numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Mapping

from cbandits.analysis import exact_selection_probability, feasibility_profile
from cbandits.bounds import (
    VARIANT_RHO_LINEAR,
    VARIANT_RHO_SQUARED,
    _MAX_T,
    _check_parameters,
    _closed_form_terms,
    _selection_terms,
    closed_form_exponents,
)
from cbandits.core import (
    Beta,
    ValidationError,
    _as_int,
    _as_tuple,
    _format_csv_value,
    _increasing_steps,
    _section,
    instance_from_config,
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

if TYPE_CHECKING:
    from cbandits.harness import ExperimentConfig

__all__ = [
    "BOUNDS_CSV_COLUMNS",
    "DEFAULT_OUTPUT",
    "load_config_file",
    "experiment_from_mapping",
    "main",
]

_REQUIRED_SECTIONS = ("instance", "schedule")
_OPTIONAL_SECTIONS = ("strategy", "experiment", "output")
_STRATEGY_KEYS = ("kind", "tie_rule")
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


@functools.cache
def _yaml_loader():
    """libyaml's parser when PyYAML was built with it: the same mappings as
    the pure-Python SafeLoader, about ten times faster."""
    import yaml

    return yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_config_file(path: str):
    """The YAML document at ``path``; :func:`_parse_sections` checks it."""
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_yaml_loader())
    except FileNotFoundError:
        raise ValidationError("bad_config", f"config file not found: {path}")
    except UnicodeDecodeError as err:
        raise ValidationError("bad_config", f"config file {path} is not UTF-8: {err}")
    except yaml.YAMLError as err:
        raise ValidationError("bad_config", f"config file {path} is not valid YAML: {err}")


def _parse_sections(top: Mapping) -> dict:
    """Validate section structure and parse everything but checkpoints."""
    top = _section(top, "config", _REQUIRED_SECTIONS, _OPTIONAL_SECTIONS)
    instance = instance_from_config(top["instance"])
    schedule = schedule_from_config(top["schedule"])

    strategy_raw = _section(top.get("strategy", {}), "strategy", optional=_STRATEGY_KEYS)
    policy = strategy_raw.get("kind", POLICY_CONSTRAINED)
    tie_rule = strategy_raw.get("tie_rule", TIE_LOWEST_INDEX)
    _check_strategy(policy, tie_rule)

    experiment_raw = _section(top.get("experiment", {}), "experiment", optional=_EXPERIMENT_KEYS)
    for key in ("checkpoints", "deltas"):
        _as_tuple(experiment_raw.get(key, []), "bad_config", f"experiment.{key}")

    output_raw = _section(top.get("output", {}), "output", optional=_OUTPUT_KEYS)
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


def _experiment_config(parts: dict) -> ExperimentConfig:
    """The experiment of sections that :func:`_parse_sections` parsed.
    Defaults are filled in here so the resolved echo is always explicit."""
    from cbandits.harness import ExperimentConfig

    experiment_raw = _section(
        parts["experiment_raw"], "experiment", ("checkpoints",), _EXPERIMENT_KEYS
    )
    return ExperimentConfig(
        instance=parts["instance"],
        schedule=parts["schedule"],
        checkpoints=tuple(experiment_raw["checkpoints"]),
        deltas=tuple(experiment_raw.get("deltas", [0.0])),
        replications=experiment_raw.get("replications", 100),
        master_seed=experiment_raw.get("master_seed", 0),
        policy=parts["policy"],
        tie_rule=parts["tie_rule"],
    )


def experiment_from_mapping(top: Mapping) -> tuple[ExperimentConfig, dict]:
    """Build a fully-validated experiment plus output paths from a parsed
    config mapping."""
    parts = _parse_sections(top)
    return _experiment_config(parts), parts["output"]


def _apply_overrides(top, args: argparse.Namespace) -> dict:
    mutable = dict(_section(top, "config", _REQUIRED_SECTIONS, _OPTIONAL_SECTIONS))
    experiment = dict(
        _section(mutable.get("experiment", {}), "experiment", optional=_EXPERIMENT_KEYS)
    )
    strategy = dict(_section(mutable.get("strategy", {}), "strategy", optional=_STRATEGY_KEYS))
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
    import yaml

    from cbandits.harness import run_experiment, write_results_csv, write_summary_json

    top = _apply_overrides(load_config_file(args.config), args)
    config, output = experiment_from_mapping(top)
    _as_int(args.workers, "bad_parameter", "--workers", 1)

    resolved = config.to_config()
    resolved["output"] = dict(output)
    print(yaml.safe_dump(resolved, sort_keys=True, default_flow_style=False), end="")

    started = time.monotonic()
    result = run_experiment(config, workers=args.workers)
    elapsed = time.monotonic() - started

    os.makedirs(args.out_dir, exist_ok=True)
    results_path = os.path.join(args.out_dir, output["results_csv"])
    summary_path = os.path.join(args.out_dir, output["summary_json"])
    metadata = {"elapsed_seconds": elapsed, "workers": args.workers}
    if any(isinstance(d, Beta) for arm in config.instance.arms for d in (arm.reward, arm.cost)):
        # Beta variates are scipy's betaincinv, whose last bits follow
        # the scipy build; finite-support variates follow no library.
        import scipy

        metadata["scipy_version"] = scipy.__version__
    write_results_csv(results_path, result.estimates)
    write_summary_json(summary_path, result, metadata=metadata)
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
    """Write one CSV row per ``--t-grid`` value.

    The cells come from the term functions of selection_lower_bound and
    closed_form_lower_bound, without a report per row, and each printed
    float is formatted once.  A vacuous row reads ``0.0`` as ``clamped``;
    any other row has every factor in [0, 1], so raw <= 1 and clamped is
    raw, and the row repeats raw's cell.  The closed-form cells read
    their clamped value, ``0.0`` where vacuous, blank before t = k.
    """
    schedule = _bound_schedule(args)
    grid = _increasing_steps(args.t_grid, "--t-grid")
    _as_int(grid[-1], "bad_parameter", "--t-grid value", 1, _MAX_T)
    num_arms, delta, rho = _check_parameters(args.num_arms, args.delta, args.rho)

    variants = {
        "both": (VARIANT_RHO_SQUARED, VARIANT_RHO_LINEAR),
        VARIANT_RHO_SQUARED: (VARIANT_RHO_SQUARED,),
        VARIANT_RHO_LINEAR: (VARIANT_RHO_LINEAR,),
    }[args.variant]
    columns = BOUNDS_CSV_COLUMNS + tuple(f"closed_form_{v}" for v in variants)
    inverse_time = isinstance(schedule, InverseTimeSchedule)
    k = schedule.k if inverse_time else None
    exponents = [
        closed_form_exponents(k, num_arms, delta, rho, v) for v in variants if inverse_time
    ]

    constants = ",".join(_format_csv_value(v) for v in (num_arms, delta, rho))
    blanks = "," * len(variants)
    lines = [",".join(columns)]
    for t in grid:
        (epsilon_t, x, factor_eps, factor_count, factor_feas, factor_reward,
         raw, _, vacuous) = _selection_terms(schedule, t, num_arms, delta, rho)
        raw_cell = repr(raw)
        # Keyed on vacuous, not on clamped == raw: a vacuous raw of -0.0
        # equals 0.0 but prints as -0.0.
        row = (
            f"{t},{constants},{epsilon_t!r},{x!r},{factor_eps!r},{factor_count!r},"
            f"{factor_feas!r},{factor_reward!r},{raw_cell},"
            + ("0.0,true" if vacuous else f"{raw_cell},false")
        )
        if inverse_time and t >= k:
            for alpha, log_beta in exponents:
                _, _, _, closed, _ = _closed_form_terms(k, num_arms, float(t), alpha, log_beta)
                row += f",{closed!r}"
        else:
            row += blanks
        lines.append(row)

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
    notes, violation = [], None
    try:
        parts = _parse_sections(load_config_file(args.config))
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
        if "checkpoints" in parts["experiment_raw"]:
            _experiment_config(parts)
            notes.append("experiment: valid")
        else:
            notes.append("experiment: no checkpoints declared, run config incomplete")
    except ValidationError as err:
        violation = err

    for note in notes:
        print(f"ok: {note}")
    if violation is not None:
        print(f"violation [{violation.code}]: {violation}")
        print("invalid: 1 violation(s)")
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
