"""Acceptance gate: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  The sweep fixtures are module-scoped so the expensive campaigns
run once and are shared by every criterion that reads them.
"""

import dataclasses
import itertools
import re
import sys
import time
from pathlib import Path

import pytest

from fogplace.cli import main
from fogplace.ilp import Relaxations, build_model, eval_cost, export_lp, objective_value, placement_to_vector
from fogplace.experiment import DEFAULT_SEEDS, Cell, SweepGrid, check_trends, preset_grid, run_sweep
from fogplace.model import Placement
from fogplace.scenario import ScenarioConfig, generate_instance
from fogplace.solver import SolveOptions, SolveStatus, solve_bruteforce, solve_exact

from conftest import make_app, make_instance

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import oracle  # noqa: E402

SEEDS = DEFAULT_SEEDS  # 20 seeds
COST_TOL = 1e-9
RELAX_VARIANTS = (
    Relaxations(),
    Relaxations(drop_qos=True),
    Relaxations(drop_security=True),
    Relaxations(drop_qos=True, drop_security=True),
)


def announce(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def fig4_rows():
    return run_sweep(preset_grid("fig4"), SEEDS)


@pytest.fixture(scope="module")
def fig5_rows():
    return run_sweep(preset_grid("fig5"), SEEDS)


@pytest.fixture(scope="module")
def fig7_rows():
    return run_sweep(preset_grid("fig7"), SEEDS)


@pytest.fixture(scope="module")
def relax_rows():
    cells = tuple(Cell(c.n_apps, c.max_qos, c.alpha, r)
                  for c in preset_grid("fig4").cells for r in RELAX_VARIANTS)
    return run_sweep(SweepGrid("fig4_relax", cells), SEEDS)


def optimal_costs(rows) -> dict:
    return {
        (r.n_apps, r.max_qos, r.alpha, r.drop_qos, r.drop_security, r.seed): r.cost_total
        for r in rows if not r.is_aggregate and r.status == "optimal"
    }


def test_oracle_equivalence():
    """Exact solver agrees with exhaustive enumeration on 100 random instances."""
    start = time.perf_counter()
    statuses = {"optimal": 0, "infeasible": 0}
    for seed in range(100):
        cfg = ScenarioConfig(
            n_apps=2,
            seed=seed,
            max_qos=1.5 if seed % 2 == 0 else 3.0,
            alpha=(None, 0.5, 1.0)[seed % 3],
        )
        if seed % 5 == 3:
            # Starve capacities on some instances so both solvers must also
            # agree on infeasibility.
            cfg = dataclasses.replace(cfg, fog_proc_capacity=2.0, cloud_proc_capacity=3.0)
        inst = generate_instance(cfg)
        relax = RELAX_VARIANTS[seed % 4]
        a = solve_exact(inst, relax)
        b = solve_bruteforce(inst, relax)
        assert b.search_stats.nodes_explored == 3 ** 6
        assert a.status is b.status, f"seed {seed}: {a.status} vs {b.status}"
        statuses[a.status.value] += 1
        if a.status is SolveStatus.OPTIMAL:
            rel = abs(a.cost.total - b.cost.total) / max(1.0, abs(b.cost.total))
            assert rel <= COST_TOL, f"seed {seed}: cost gap {rel}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"campaign took {elapsed:.1f}s"
    announce("oracle-equivalence",
             f"100 instances, {statuses['optimal']} optimal / "
             f"{statuses['infeasible']} infeasible, {elapsed:.1f}s")


def test_linearization_identity():
    """At every binary assignment the coupling rows admit exactly the products,
    the edge-cover row holds, and the objective equals the evaluated cost."""
    start = time.perf_counter()
    inst = make_instance([make_app()])
    model = build_model(inst, Relaxations(drop_qos=True, drop_security=True))
    rows_by_name = {r.name: r for r in model.constraints}

    def satisfied(row, vec):
        value = sum(c * vec.get(n, 0.0) for n, c in row.coeffs.items())
        if row.sense == "<=":
            return value <= row.rhs + 1e-12
        if row.sense == ">=":
            return value >= row.rhs - 1e-12
        return abs(value - row.rhs) <= 1e-12

    ids = [n.id for n in inst.nodes]
    count = 0
    for combo in itertools.product(range(3), repeat=3):
        placement = Placement({"a1": tuple(ids[k] for k in combo)})
        vec = placement_to_vector(inst, placement)
        for j in range(2):
            for u in range(3):
                for v in range(3):
                    product = float(combo[j] == u and combo[j + 1] == v)
                    name = f"z_0_{j}_{u}_{v}"
                    assert vec.get(name, 0.0) == product
                    trio = [rows_by_name[f"eq{k}_app0_edge{j}_u{u}_v{v}"] for k in (11, 12, 13)]
                    assert all(satisfied(r, vec) for r in trio)
                    flipped = dict(vec)
                    flipped[name] = 1.0 - product
                    assert not all(satisfied(r, flipped) for r in trio)
            assert satisfied(rows_by_name[f"eq14_app0_edge{j}"], vec)
        cost = eval_cost(inst, placement).total
        assert objective_value(model, vec) == pytest.approx(cost, rel=COST_TOL)
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 27 and elapsed < 1.0
    announce("linearization-identity", f"27 assignments checked in {elapsed * 1000:.0f}ms")


def test_relaxation_monotonicity(relax_rows):
    """Dropping constraint families never raises the optimal cost."""
    costs = optimal_costs(relax_rows)
    chains = [  # (tighter, looser) pairs along both relaxation orders
        ((False, False), (False, True)),
        ((False, True), (True, True)),
        ((False, False), (True, False)),
        ((True, False), (True, True)),
    ]
    comparisons = 0
    for cell in preset_grid("fig4").cells:
        for seed in SEEDS:
            for (dq_a, ds_a), (dq_b, ds_b) in chains:
                a = costs.get((cell.n_apps, cell.max_qos, cell.alpha, dq_a, ds_a, seed))
                b = costs.get((cell.n_apps, cell.max_qos, cell.alpha, dq_b, ds_b, seed))
                if a is not None and b is not None:
                    comparisons += 1
                    assert a >= b - COST_TOL * max(1.0, abs(b)), (
                        f"cell n={cell.n_apps} q={cell.max_qos} seed={seed}: "
                        f"tighter {a} < looser {b}")
    assert comparisons > 0
    announce("relaxation-monotonicity", f"{comparisons} ordered pairs, 0 violations")


def test_qos_tightening_monotonicity(fig4_rows):
    """With coupled threshold draws, the tight QoS scenario never costs less."""
    costs = optimal_costs(fig4_rows)
    comparisons = 0
    for n_apps in range(1, 8):
        for seed in SEEDS:
            tight = costs.get((n_apps, 1.5, None, False, False, seed))
            loose = costs.get((n_apps, 3.0, None, False, False, seed))
            if tight is not None and loose is not None:
                comparisons += 1
                assert tight >= loose - COST_TOL * max(1.0, abs(loose)), (
                    f"n={n_apps} seed={seed}: {tight} < {loose}")
    assert comparisons > 0
    announce("qos-tightening-monotonicity",
             f"{comparisons} per-seed comparisons across n_apps 1..7, 0 violations")


def test_alpha_monotonicity(fig5_rows):
    """Raising the forced-high fraction never cheapens a seed, and once a seed
    turns infeasible it stays infeasible."""
    rows = [r for r in fig5_rows if not r.is_aggregate]
    comparisons = 0
    for max_qos in (1.5, 3.0):
        for seed in SEEDS:
            track = sorted((r for r in rows if r.seed == seed and r.max_qos == max_qos),
                           key=lambda r: r.alpha)
            assert len(track) == 5
            dead = False
            prev_cost = None
            for r in track:
                if r.status == "optimal":
                    assert not dead, f"seed {seed} q={max_qos}: feasible again at alpha {r.alpha}"
                    if prev_cost is not None:
                        comparisons += 1
                        assert r.cost_total >= prev_cost - COST_TOL * max(1.0, abs(prev_cost)), (
                            f"seed {seed} q={max_qos} alpha={r.alpha}")
                    prev_cost = r.cost_total
                else:
                    assert r.status == "infeasible"
                    dead = True
    assert comparisons > 0
    announce("alpha-monotonicity", f"{comparisons} per-seed comparisons, 0 violations")


def test_security_enforcement(fig4_rows, fig5_rows, fig7_rows):
    """Enforced runs leak exactly nothing; the relaxed study leaks somewhere."""
    enforced = [r for r in fig4_rows + fig5_rows
                if not r.is_aggregate and not r.drop_security and r.status == "optimal"]
    assert enforced
    for r in enforced:
        assert r.unprotected_gb == 0.0
    leaking = [r for r in fig7_rows
               if not r.is_aggregate and r.status == "optimal" and r.unprotected_gb > 0.0]
    assert leaking, "relaxed-security study produced no exposure anywhere"
    announce("security-enforcement",
             f"{len(enforced)} enforced runs all leak 0.0 Gb; "
             f"{len(leaking)} relaxed runs leak > 0")


def test_trend_report(fig4_rows, fig7_rows):
    """Mean-level directions hold for the shipped default configuration."""
    assert len(SEEDS) >= 20
    fig4_trends = {c.name: c for c in check_trends(fig4_rows).checks}
    napps = fig4_trends["cost_nondecreasing_in_n_apps"]
    assert napps.applicable and napps.passed, napps.details
    fog = fig4_trends["mean_fog_modules_higher_under_tight_qos"]
    assert fog.applicable and fog.passed, fog.details
    fig7_trends = {c.name: c for c in check_trends(fig7_rows).checks}
    leak = fig7_trends["mean_unprotected_noqos_is_smallest"]
    assert leak.applicable and leak.passed, leak.details
    announce("trend-report", f"{fog.details}; {leak.details}")


def test_desk_scale_performance():
    """The largest replication cell solves to proven optimality well inside 60s."""
    timings = []
    for max_qos in (1.5, 3.0):
        inst = generate_instance(ScenarioConfig(n_apps=7, max_qos=max_qos, seed=0))
        start = time.perf_counter()
        report = solve_exact(inst, Relaxations(), SolveOptions(time_limit=60.0))
        elapsed = time.perf_counter() - start
        assert report.status is SolveStatus.OPTIMAL
        assert elapsed < 60.0
        timings.append(elapsed)
    announce("desk-scale-performance",
             f"7-app cells solved in {timings[0] * 1000:.0f}ms and {timings[1] * 1000:.0f}ms")


def _parse_lp(text: str):
    """Parse the subset of LP format this package emits."""
    lines = [l for l in text.splitlines() if l.strip() and not l.lstrip().startswith("\\")]
    joined: list[str] = []
    for line in lines:
        if line.startswith("   ") and joined:
            joined[-1] += " " + line.strip()
        else:
            joined.append(line)

    def parse_expr(body: str) -> dict:
        coeffs: dict[str, float] = {}
        sign, pending = 1.0, None
        for tok in body.split():
            if tok == "+":
                sign = 1.0
            elif tok == "-":
                sign = -1.0
            else:
                try:
                    pending = sign * float(tok)
                except ValueError:
                    coeffs[tok] = coeffs.get(tok, 0.0) + (pending if pending is not None else sign)
                    pending = None
                sign = 1.0
        return coeffs

    section = None
    objective: dict[str, float] = {}
    constraints = []
    binaries: list[str] = []
    for line in joined:
        stripped = line.strip()
        lowered = stripped.lower()
        if lowered in ("minimize", "subject to", "binary", "end"):
            section = lowered
            continue
        if section == "minimize":
            objective = parse_expr(stripped.split(":", 1)[1])
        elif section == "subject to":
            name, body = stripped.split(":", 1)
            match = re.match(r"(.*?)(<=|>=|=)\s*([-+0-9.eE]+)\s*$", body.strip())
            constraints.append((name.strip(), parse_expr(match.group(1)),
                                match.group(2), float(match.group(3))))
        elif section == "binary":
            binaries.append(stripped)
    return objective, constraints, binaries


def test_external_milp_crosscheck():
    """The exported LP file reads back as the program ``build_model`` holds,
    and HiGHS on that program reproduces the in-house optimum.  (The release
    checklist also runs this by hand.)"""
    inst = generate_instance(ScenarioConfig(n_apps=2, seed=11))
    report = solve_exact(inst)
    assert report.status is SolveStatus.OPTIMAL
    model = build_model(inst, Relaxations())

    def nonzero(coeffs: dict) -> dict:  # an empty expression is written as "0 <variable>"
        return {name: c for name, c in coeffs.items() if c != 0.0}

    objective, constraints, binaries = _parse_lp(export_lp(model))
    assert binaries == list(model.variables)
    assert nonzero(objective) == nonzero(model.objective)
    assert [(name, nonzero(coeffs), sense, rhs) for name, coeffs, sense, rhs in constraints] == [
        (row.name, nonzero(row.coeffs), row.sense, row.rhs) for row in model.constraints]

    status, cost = oracle.highs_verdict(inst, Relaxations())
    assert status == "optimal"
    gap = abs(cost - report.cost.total)
    assert gap <= oracle.COST_RTOL * max(1.0, abs(report.cost.total))
    announce("external-milp-crosscheck",
             f"HiGHS {cost:.9f} vs exact {report.cost.total:.9f}, gap {gap:.2e}")


def test_experiment_determinism(tmp_path):
    """Two runs of the fig4 preset produce byte-identical CSVs."""
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(["experiment", "fig4", "--out", str(out1)]) == 0
    assert main(["experiment", "fig4", "--out", str(out2)]) == 0
    data1, data2 = out1.read_bytes(), out2.read_bytes()
    assert data1 == data2
    announce("experiment-determinism", f"fig4 preset twice, {len(data1)} identical bytes")
