"""Command-line interface.

Subcommands: ``generate`` (write a random instance), ``rate`` (print node
security ratings), ``solve`` (optimize a placement), ``experiment`` (run a
sweep grid and print the trend report).  ``generate`` and ``experiment``
import ``scenario`` and ``experiment`` inside their command functions, so
``solve`` and ``rate`` start without loading either.

Exit codes (stable): 0 success / solved; 1 internal error; 2 input error
(bad flags, unreadable or unwritable paths, invalid files); 3 proven
infeasible; 4 time limit hit; 5 heuristic found no placement (not an
infeasibility proof).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .ilp import Relaxations, build_model, export_lp
from .instance_io import load_instance, read_json, save_instance, save_report
from .metrics import GB_TO_MB, metrics_for
from .model import Instance, Tier, validate_instance
from .security import boundary_distances, rate_infrastructure
from .solver import SolveOptions, SolveStatus, solve_bruteforce, solve_exact, solve_greedy

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_TIME_LIMIT = 4
EXIT_HEURISTIC_FAILED = 5


class InputError(Exception):
    """User-supplied file or flag problem; mapped to exit code 2."""


def _load_json(path: str) -> dict:
    try:
        return read_json(path)
    except ValueError as exc:  # JSONDecodeError, a repeated key, or bytes that are not UTF-8
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def _load_rated_instance(path: str) -> Instance:
    try:
        inst = rate_infrastructure(load_instance(path))
    except ValueError as exc:  # includes JSONDecodeError
        raise InputError(f"{path}: {exc}") from exc
    violations = validate_instance(inst)
    if violations:
        raise InputError(f"{path}: invalid instance:\n  " + "\n  ".join(violations))
    return inst


def _cmd_generate(args: argparse.Namespace) -> int:
    from .scenario import ScenarioConfig, config_from_dict, generate_instance

    if args.config is not None:
        try:
            cfg = config_from_dict(_load_json(args.config))
        except ValueError as exc:
            raise InputError(f"{args.config}: {exc}") from exc
    else:
        cfg = ScenarioConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    try:
        inst = generate_instance(cfg)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    violations = validate_instance(inst)
    if violations:
        # A generated instance must always validate; this is a bug, not bad input.
        print("generated instance failed validation:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_INTERNAL
    save_instance(inst, args.out)
    print(f"wrote {args.out}: {len(inst.nodes)} nodes, {len(inst.apps)} apps, seed {cfg.seed}")
    return EXIT_OK


def _cmd_rate(args: argparse.Namespace) -> int:
    inst = _load_rated_instance(args.instance)
    print(f"{'node':<12} {'tier':<6} {'min_boundary':>12} {'tx_range':>9} {'rating':<7}")
    for n in inst.nodes:
        fog = n.tier is Tier.FOG
        min_dist = f"{min(boundary_distances(n.position, inst.farm)):.1f}" if fog else "-"
        tx = f"{n.tx_range:.1f}" if fog else "-"
        print(f"{n.id:<12} {n.tier.value:<6} {min_dist:>12} {tx:>9} {inst.ratings[n.id].label:<7}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.time_limit is not None and args.solver != "exact":
        raise InputError(f"--time-limit applies to --solver exact only, not {args.solver}")
    try:
        opts = SolveOptions(time_limit=args.time_limit)
    except ValueError as exc:
        raise InputError(f"--time-limit: {exc}") from exc
    inst = _load_rated_instance(args.instance)
    relax = Relaxations(drop_qos=args.no_qos, drop_security=args.no_security)

    if args.export_lp:
        model = build_model(inst, relax)
        Path(args.export_lp).write_text(export_lp(model), encoding="utf-8")
        print(f"wrote LP model to {args.export_lp}")

    if args.solver == "exact":
        report = solve_exact(inst, relax, opts)
    elif args.solver == "greedy":
        report = solve_greedy(inst, relax)
    else:
        try:
            report = solve_bruteforce(inst, relax)
        except ValueError as exc:
            raise InputError(str(exc)) from exc

    print(f"status: {report.status.value}")
    if report.placement is not None:
        cost = report.cost.to_dict()
        print(f"cost total: {cost.pop('total'):.6f}")
        for name, value in cost.items():
            print(f"  {name + ':':<12} {value:.6f}")
        m = metrics_for(inst, report)
        print(f"modules on cloud/fog: {m.modules_on_cloud}/{m.modules_on_fog}")
        print(f"unprotected data: {m.unprotected_data:.6f} Gb "
              f"({m.unprotected_data * GB_TO_MB:.3f} Mb)")
        for a in inst.apps:
            comm, exe = report.per_app_delay[a.id]
            print(f"  {a.id}: delay {comm + exe:.4f}s (threshold {a.qos_threshold:.4f}s)")
    if args.out:
        save_report(inst, report, args.out)
        print(f"wrote report to {args.out}")

    return {
        SolveStatus.OPTIMAL: EXIT_OK,
        SolveStatus.FEASIBLE: EXIT_OK,
        SolveStatus.INFEASIBLE: EXIT_INFEASIBLE,
        SolveStatus.TIME_LIMIT: EXIT_TIME_LIMIT,
        SolveStatus.HEURISTIC_FAILED: EXIT_HEURISTIC_FAILED,
    }[report.status]


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiment import PRESETS, check_trends, grid_from_dict, run_sweep, to_csv

    if args.grid in PRESETS:
        doc = {"preset": args.grid}
    else:
        try:
            doc = _load_json(args.grid)
        except FileNotFoundError as exc:
            raise InputError(f"{args.grid}: neither a preset ({', '.join(PRESETS)}) "
                             "nor an existing file") from exc
    try:
        grid, seeds, base_cfg = grid_from_dict(doc)
    except ValueError as exc:
        raise InputError(f"{args.grid}: {exc}") from exc
    rows = run_sweep(grid, seeds, base_cfg, dump_dir=args.dump_placements)
    Path(args.out).write_text(to_csv(rows), encoding="utf-8")
    n_cells = len(grid.cells)
    print(f"{grid.name}: {n_cells} cells x {len(seeds)} seeds -> {args.out}")
    report = check_trends(rows)
    print(report.format())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogplace",
        description="Cost-minimal placement of chained IoT modules on cloud-fog infrastructure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random instance file")
    p.add_argument("--config", help="scenario config JSON (defaults used when omitted)")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--out", required=True, help="instance file to write")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("rate", help="print the security rating table of an instance")
    p.add_argument("instance", help="instance file")
    p.set_defaults(func=_cmd_rate)

    p = sub.add_parser("solve", help="solve the placement problem for an instance")
    p.add_argument("instance", help="instance file")
    p.add_argument("--no-qos", action="store_true", help="drop the delay constraints")
    p.add_argument("--no-security", action="store_true", help="drop the security constraints")
    p.add_argument("--solver", choices=("exact", "greedy", "brute"), default="exact")
    p.add_argument("--time-limit", type=float, default=None, help="seconds (--solver exact only)")
    p.add_argument("--export-lp", metavar="PATH", help="also write the model in LP format")
    p.add_argument("--out", metavar="PATH", help="write the solve report as JSON")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("experiment", help="run a sweep grid and check trends")
    # Names experiment.PRESETS without importing it; a test keeps the two equal.
    p.add_argument("grid", help="grid config JSON or preset name (fig4, fig5, fig6, fig7)")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.add_argument("--dump-placements", metavar="DIR",
                   help="also write every solve report into this directory")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:  # every path opened comes from the arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
