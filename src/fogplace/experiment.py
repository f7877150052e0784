"""Experiment harness: sweep a scenario grid over seeds, tabulate, check trends.

A grid is a list of cells (n_apps, max_qos, alpha, relaxations).  The sweep
solves every (cell, seed) combination exactly, records per-run rows plus one
mean row per cell, and renders a deterministic CSV.  ``check_trends``
evaluates the qualitative orderings the model guarantees (per seed) or is
expected to exhibit on seed means with the shipped default configuration.

The CSV deliberately omits wall-clock timing so that repeated runs are
byte-identical; timings stay available on the in-memory rows.
"""

from __future__ import annotations

import csv
import io
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from operator import add, attrgetter
from pathlib import Path
from typing import Any

from .ilp import REL_TOL, Relaxations
from .instance_io import require_keys, save_report, strict_bool, strict_float, strict_int
from .metrics import count_deployed, unprotected_data
from .scenario import ScenarioConfig, config_from_dict, validate_config
# run_sweep validates each cell once, so it draws through the unchecked
# generator; the name stays the one the benchmark tracer wraps.
from .scenario import _generate as generate_instance
from .solver import SolveStatus, solve_exact


@dataclass(frozen=True)
class Cell:
    n_apps: int
    max_qos: float
    alpha: float | None
    relax: Relaxations


@dataclass(frozen=True)
class SweepGrid:
    name: str
    cells: tuple[Cell, ...]


def grid_from_lists(name: str, n_apps: list[int], max_qos: list[float],
                    alphas: list[float | None], relaxes: list[Relaxations]) -> SweepGrid:
    cells = tuple(
        Cell(n_apps=n, max_qos=q, alpha=a, relax=r)
        for n in n_apps for q in max_qos for a in alphas for r in relaxes
    )
    return SweepGrid(name=name, cells=cells)


_FIG4 = grid_from_lists("fig4", list(range(1, 8)), [1.5, 3.0], [None], [Relaxations()]).cells
_FIG5 = grid_from_lists("fig5", [7], [1.5, 3.0], [0.0, 0.25, 0.5, 0.75, 1.0], [Relaxations()]).cells
_NOSEC = Relaxations(drop_security=True)
_FIG7 = tuple(Cell(n, q, 0.25, relax) for n in range(1, 8) for q, relax in (
    (1.5, Relaxations(drop_qos=True, drop_security=True)), (1.5, _NOSEC), (3.0, _NOSEC)))
PRESETS: dict[str, tuple[Cell, ...]] = {"fig4": _FIG4, "fig5": _FIG5, "fig6": _FIG4, "fig7": _FIG7}


def preset_grid(name: str) -> SweepGrid:
    """Named replication grids, the keys of ``PRESETS``.

    fig4/fig6: cost and tier counts vs number of apps, two QoS scenarios.
    fig5: cost vs high-security fraction at 7 apps, two QoS scenarios.
    fig7: unprotected data vs number of apps with security relaxed, at
    alpha 0.25, against the fully relaxed baseline.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset grid {name!r}")
    return SweepGrid(name=name, cells=PRESETS[name])


DEFAULT_SEEDS: tuple[int, ...] = tuple(range(20))
_MAX_SEEDS = 1000  # per grid; the paper's study runs 20

# A cell's fields in column order, each with the parser of its grid-document value.
_CELL_PARSERS = {"n_apps": strict_int, "max_qos": strict_float, "alpha": strict_float,
                 "drop_qos": strict_bool, "drop_security": strict_bool}
_CELL_FIELDS = tuple(_CELL_PARSERS)


def _cell_from_dict(c: Any, where: str) -> Cell:
    require_keys(c, {"n_apps", "max_qos"}, {"alpha", "drop_qos", "drop_security"}, where)
    parsed: dict[str, Any] = {"alpha": None, "drop_qos": False, "drop_security": False}
    for name, value in c.items():
        try:
            parsed[name] = None if name == "alpha" and value is None else _CELL_PARSERS[name](value)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"{where}: {name}: {exc}") from None
    return Cell(n_apps=parsed["n_apps"], max_qos=parsed["max_qos"], alpha=parsed["alpha"],
                relax=Relaxations(drop_qos=parsed["drop_qos"], drop_security=parsed["drop_security"]))


def grid_from_dict(doc: Any) -> tuple[SweepGrid, list[int], ScenarioConfig]:
    """Read a grid document (format in the README): a preset or a list of
    cells, plus optional seeds and base scenario config.  Raises ValueError
    on any malformed document, and on any (cell, seed) whose scenario config
    is unusable, naming the cell index and the seed."""
    require_keys(doc, set(), {"preset", "name", "cells", "seeds", "base_config"}, "grid config")
    if "preset" in doc:
        grid = preset_grid(str(doc["preset"]))
    elif "cells" in doc:
        if not isinstance(doc["cells"], Iterable):
            raise ValueError(f"grid config: cells must be a list of objects, got {doc['cells']!r}")
        cells = tuple(_cell_from_dict(c, f"grid config: cells[{i}]") for i, c in enumerate(doc["cells"]))
        for i, cell in enumerate(cells):  # a repeat would share its mean row and report file names
            if (first := cells.index(cell)) < i:
                raise ValueError(f"grid config: cells[{i}] repeats cells[{first}]")
        grid = SweepGrid(name=str(doc.get("name", "custom")), cells=cells)
    else:
        raise ValueError("grid config needs either 'preset' or 'cells'")
    seeds = doc.get("seeds", DEFAULT_SEEDS)
    try:
        if not isinstance(seeds, (list, tuple)):  # a string would iterate as its digits
            raise TypeError
        seeds = [strict_int(s) for s in seeds]
    except (TypeError, OverflowError):
        raise ValueError(f"grid config: seeds must be a list of integers, got {doc['seeds']!r}") from None
    if len(seeds) > _MAX_SEEDS:
        raise ValueError(f"grid config: seeds must hold at most {_MAX_SEEDS} seeds, got {len(seeds)}")
    if len(set(seeds)) < len(seeds):  # a seed's rows would count twice in each mean
        repeated = next(s for s in seeds if seeds.count(s) > 1)
        raise ValueError(f"grid config: seeds: seed {repeated} is repeated")
    try:
        base_cfg = config_from_dict(doc.get("base_config", {}))
    except ValueError as exc:
        raise ValueError(f"grid config: base_config: {exc}") from None
    # Only the seed's sign depends on the seed, so each cell is checked at the lowest.
    for i, cell in enumerate(grid.cells if seeds else ()):
        try:
            validate_config(_cell_config(base_cfg, cell, min(seeds)))
        except ValueError as exc:
            raise ValueError(f"grid config: cells[{i}] with seed {min(seeds)}: {exc}") from None
    return grid, seeds, base_cfg


def _cell_config(base_cfg: ScenarioConfig, cell: Cell, seed: int = 0) -> ScenarioConfig:
    """The cell's config; a sweep builds it once, at seed 0, and passes each seed separately."""
    return replace(base_cfg, n_apps=cell.n_apps, max_qos=cell.max_qos, alpha=cell.alpha, seed=seed)


@dataclass
class SweepRow:
    n_apps: int
    max_qos: float
    alpha: float | None
    drop_qos: bool
    drop_security: bool
    seed: int | str  # seed number, or "mean" on aggregate rows
    status: str
    cost_processing: float | None = None
    cost_storage: float | None = None
    cost_sensor_comm: float | None = None
    cost_inter_comm: float | None = None
    cost_user_comm: float | None = None
    cost_total: float | None = None
    modules_on_cloud: float | None = None
    modules_on_fog: float | None = None
    unprotected_gb: float | None = None
    nodes_explored: float | None = None
    pruned_bound: float | None = None
    pruned_capacity: float | None = None
    pruned_qos: float | None = None
    pruned_security: float | None = None
    solve_ms: float | None = None  # not serialized: timing is run-dependent

    @property
    def is_aggregate(self) -> bool:
        return self.seed == "mean"

    def cell_key(self) -> tuple:
        return tuple(getattr(self, name) for name in _CELL_FIELDS)


# The CSV holds every row field but the run-dependent timing; mean rows
# average the measured columns, which start at cost_processing.
CSV_COLUMNS = [f.name for f in fields(SweepRow) if f.name != "solve_ms"]
_MEAN_FIELDS = CSV_COLUMNS[CSV_COLUMNS.index("cost_processing"):]
_CSV_VALUES = attrgetter(*CSV_COLUMNS)
_FLAGS_AT = slice(CSV_COLUMNS.index("drop_qos"), CSV_COLUMNS.index("drop_security") + 1)
_FLAG = {False: "false", True: "true"}


def cell_label(cell: Cell, seed: int | str) -> str:
    alpha = "none" if cell.alpha is None else repr(cell.alpha)
    return f"n{cell.n_apps}_q{cell.max_qos!r}_a{alpha}_{cell.relax.tag}_s{seed}"


def run_sweep(grid: SweepGrid, seeds: list[int] | tuple[int, ...],
              base_cfg: ScenarioConfig | None = None,
              dump_dir: str | Path | None = None) -> list[SweepRow]:
    """Solve every (cell, seed) pair; returns seed rows then one mean row per cell.

    A failing run is recorded in its row (status "error:<type>") and never
    aborts the sweep.  Rows are ordered by grid cell then seed, so identical
    inputs produce identical tables.  With ``dump_dir`` set, every run that
    produced a placement also writes its full solve report there for audit,
    named by the cell label and seed.

    The runs go seed by seed; the cells of one seed share its
    infrastructure, app draws and per-app solver domains, which are dropped
    before the next seed.
    """
    if base_cfg is None:
        base_cfg = ScenarioConfig()
    if dump_dir is not None:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
    rows: list[SweepRow] = []
    cfgs = [_cell_config(base_cfg, cell) for cell in grid.cells]
    for cell, cfg in zip(grid.cells, cfgs):
        # Of the config, only the seed's sign depends on the seed: validate
        # the cell once, and an invalid cell errors every one of its rows.
        try:
            validate_config(cfg)
            cell_error = ""
        except Exception as exc:
            cell_error = f"error:{type(exc).__name__}"
        rows += [SweepRow(n_apps=cell.n_apps, max_qos=cell.max_qos, alpha=cell.alpha,
                          drop_qos=cell.relax.drop_qos, drop_security=cell.relax.drop_security,
                          seed=seed, status=cell_error) for seed in seeds]
    for s, seed in enumerate(seeds):
        drawn: dict = {}
        domains: dict = {}
        for cell, cfg, row in zip(grid.cells, cfgs, rows[s::len(seeds)]):
            if row.status:  # the cell is invalid
                continue
            try:
                if seed < 0:
                    raise ValueError("seed must be a nonnegative integer")
                inst = generate_instance(cfg, seed, drawn)
                start = time.perf_counter()
                report = solve_exact(inst, cell.relax, _domains=domains)
                row.solve_ms = (time.perf_counter() - start) * 1000.0
                row.status = report.status.value
                vars(row).update(report.search_stats.to_dict())
                if report.placement is not None:
                    vars(row).update({f"cost_{k}": v for k, v in report.cost.to_dict().items()})
                    row.modules_on_cloud, row.modules_on_fog = count_deployed(inst, report.placement)
                    row.unprotected_gb = unprotected_data(inst, report.placement)
                    if dump_dir is not None:
                        save_report(inst, report, dump_dir / f"{cell_label(cell, seed)}.json")
            except Exception as exc:  # recorded, not raised: sweeps must finish
                row.status = f"error:{type(exc).__name__}"
    rows.extend(aggregate_rows(rows))
    return rows


def _mean(values: list) -> float:
    # Left to right on every Python: builtin ``sum`` compensates from 3.12 on.
    return reduce(add, values, 0) / len(values)


def aggregate_rows(rows: list[SweepRow]) -> list[SweepRow]:
    """One mean row per cell, averaging the optimal seed rows of that cell."""
    optimal: dict[tuple, list[SweepRow]] = {}
    for row in rows:
        if not row.is_aggregate:
            group = optimal.setdefault(row.cell_key(), [])
            if row.status == SolveStatus.OPTIMAL.value:
                group.append(row)
    out: list[SweepRow] = []
    for key, group in optimal.items():
        agg = SweepRow(*key, seed="mean", status=f"mean_of_{len(group)}")
        if group:
            for name in _MEAN_FIELDS:
                setattr(agg, name, _mean([getattr(r, name) for r in group]))
        out.append(agg)
    return out


def to_csv(rows: list[SweepRow]) -> str:
    """Render rows in the fixed column order; byte-stable across runs.

    ``csv`` writes None as an empty field, floats by ``repr`` and ints and
    strings by ``str``; only the relaxation flags are spelled out.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        values = list(_CSV_VALUES(row))
        values[_FLAGS_AT] = _FLAG[row.drop_qos], _FLAG[row.drop_security]
        writer.writerow(values)
    return buf.getvalue()


@dataclass
class TrendCheck:
    name: str
    passed: bool
    applicable: bool
    details: str


@dataclass
class TrendReport:
    checks: list[TrendCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks if c.applicable)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            mark = "n/a " if not c.applicable else ("PASS" if c.passed else "FAIL")
            lines.append(f"[{mark}] {c.name}: {c.details}")
        return "\n".join(lines)


def _optimal(rows: list[SweepRow]) -> list[SweepRow]:
    return [r for r in rows if not r.is_aggregate and r.status == SolveStatus.OPTIMAL.value]


def _cheaper(row: SweepRow, than: SweepRow) -> bool:
    """``row`` costs less than ``than`` beyond the relative tolerance."""
    return row.cost_total < than.cost_total - REL_TOL * max(1.0, than.cost_total)


def _per_seed_groups(rows: list[SweepRow], axis: str) -> list[list[SweepRow]]:
    """Rows that differ only in ``axis`` (same seed and other cell fields),
    each group sorted along ``axis``."""
    groups: dict[tuple, list[SweepRow]] = {}
    for r in rows:
        key = tuple(getattr(r, name) for name in _CELL_FIELDS if name != axis) + (r.seed,)
        groups.setdefault(key, []).append(r)
    return [sorted(g, key=lambda r: getattr(r, axis)) for g in groups.values()]


def _per_seed_monotone(rows: list[SweepRow], axis: str, rising: bool) -> tuple[int, int]:
    """(comparisons, violations) of cost rising (or falling) along ``axis``
    between neighbouring optimal rows of one seed."""
    comparisons = violations = 0
    for group in _per_seed_groups(rows, axis):
        for a, b in zip(group, group[1:]):
            if getattr(b, axis) > getattr(a, axis):
                comparisons += 1
                violations += _cheaper(b, a) if rising else _cheaper(a, b)
    return comparisons, violations


def _per_seed_check(name: str, counts: tuple[int, int]) -> TrendCheck:
    comparisons, violations = counts
    return TrendCheck(name=name, passed=(violations == 0), applicable=(comparisons > 0),
                      details=f"{comparisons} per-seed comparisons, {violations} violations")


def check_trends(rows: list[SweepRow]) -> TrendReport:
    """Evaluate the qualitative orderings on a sweep table.

    Per-seed (these hold by construction whenever the solver is exact, so a
    single counterexample is a defect): cost nondecreasing in the number of
    apps; cost under a tighter max_qos at least the cost under a looser one;
    cost nondecreasing in alpha, with infeasibility persisting once entered.
    On seed means (config-sensitive, expected for the shipped defaults): fog
    hosts at least as many modules under the tighter QoS scenario, and the
    fully relaxed baseline leaks at most as much data as the QoS-constrained
    security-relaxed scenarios.
    """
    report = TrendReport()
    optimal = _optimal(rows)
    report.checks.append(_per_seed_check(
        "cost_nondecreasing_in_n_apps", _per_seed_monotone(optimal, "n_apps", rising=True)))
    report.checks.append(_per_seed_check(
        "cost_tighter_qos_not_cheaper", _per_seed_monotone(optimal, "max_qos", rising=False)))

    # Per seed: cost nondecreasing in alpha; infeasibility persists.
    comparisons = violations = 0
    for group in _per_seed_groups([r for r in rows if not r.is_aggregate and r.alpha is not None], "alpha"):
        dead = False
        for prev, r in zip(group, group[1:]):
            dead = dead or prev.status == SolveStatus.INFEASIBLE.value
            if r.alpha > prev.alpha:
                comparisons += 1
                is_opt = r.status == SolveStatus.OPTIMAL.value
                if dead and is_opt:
                    violations += 1  # came back from infeasible
                elif is_opt and prev.status == SolveStatus.OPTIMAL.value and _cheaper(r, prev):
                    violations += 1
    report.checks.append(_per_seed_check("cost_nondecreasing_in_alpha", (comparisons, violations)))

    # Seed means: tighter QoS pushes at least as many modules onto fog.
    full_rows = [r for r in optimal if not r.drop_qos and not r.drop_security]
    by_qos: dict[float, list[float]] = {}
    for r in full_rows:
        by_qos.setdefault(r.max_qos, []).append(r.modules_on_fog)
    qos_values = sorted(by_qos)
    comparisons = violations = 0
    means = {q: _mean(v) for q, v in by_qos.items()}
    for lo, hi in zip(qos_values, qos_values[1:]):
        comparisons += 1
        if means[lo] < means[hi] - REL_TOL:
            violations += 1
    detail = ", ".join(f"mean_fog[max_qos={q}]={means[q]:.3f}" for q in qos_values)
    report.checks.append(TrendCheck(
        name="mean_fog_modules_higher_under_tight_qos", passed=(violations == 0),
        applicable=(comparisons > 0), details=detail or "no applicable cells",
    ))

    # Seed means: fully relaxed baseline leaks no more than the
    # QoS-constrained security-relaxed scenarios.
    relaxed = [r for r in optimal if r.drop_security]
    noqos = [r.unprotected_gb for r in relaxed if r.drop_qos]
    by_scenario: dict[float, list[float]] = {}
    for r in relaxed:
        if not r.drop_qos:
            by_scenario.setdefault(r.max_qos, []).append(r.unprotected_gb)
    comparisons = violations = 0
    details = []
    if noqos and by_scenario:
        base = _mean(noqos)
        details.append(f"mean_unprotected[noqos]={base:.4f}")
        for q in sorted(by_scenario):
            mean_q = _mean(by_scenario[q])
            details.append(f"mean_unprotected[max_qos={q}]={mean_q:.4f}")
            comparisons += 1
            if base > mean_q + REL_TOL:
                violations += 1
    report.checks.append(TrendCheck(
        name="mean_unprotected_noqos_is_smallest", passed=(violations == 0),
        applicable=(comparisons > 0), details=", ".join(details) or "no applicable cells",
    ))

    return report
