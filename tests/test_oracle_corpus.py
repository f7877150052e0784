"""Differential oracle corpus: every instance is solved down both searches
of ``solve_exact``, the module DFS (an untimed sweep solve, on a fresh
memo) and the root proofs (a library solve, untimed and timed), and each
answer is checked against HiGHS on the full binary program, against brute
force where it takes milliseconds, and against the declarative
``check_feasibility`` and ``eval_cost``.  Spies show that each solve runs
its own search only, and computes the completion bound at most once: a
sweep solve in the module DFS, a library one only for root proof (1).
"""

import sys
from pathlib import Path
from unittest import mock

import pytest

from fogplace.ilp import Relaxations, check_feasibility, eval_cost
from fogplace.model import SecurityLevel
from fogplace.scenario import ScenarioConfig, generate_instance
from fogplace.solver import SolveOptions, SolveStatus, _Problem, solve_bruteforce, solve_exact

from conftest import make_app, make_cloud, make_fog, make_instance, packing_instance

pytest.importorskip("scipy")
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import oracle  # noqa: E402

RELAXATIONS = (Relaxations(), Relaxations(drop_qos=True), Relaxations(drop_security=True),
               Relaxations(drop_qos=True, drop_security=True))
BRUTE_MAX_ASSIGNMENTS = 4 ** 6  # tens of milliseconds; 3**9 already take 0.6 s
# Each case's solves as (path, time limit): the sweep path untimed, the
# library path untimed and timed.
LIBRARY = (("library", None), ("library", 5.0))
BOTH = (("sweep", None), *LIBRARY)


def shipped(n_apps, seed, **over):
    return generate_instance(ScenarioConfig(n_apps=n_apps, seed=seed, **over))


def confined_capacity():
    # Each app fits the two fogs on its own, and QoS keeps both off the
    # cloud, but together they need 3.0 stor where the fogs hold 2.0.
    nodes = (make_cloud(), make_fog("fog_lo", (50.0, 500.0), stor_capacity=1.0),
             make_fog("fog_hi", (500.0, 500.0), stor_capacity=1.0))
    return make_instance([make_app("a1", qos=1.0), make_app("a2", qos=1.0)], nodes=nodes)


CASES = {
    # The shipped config at 1-7 apps, each relaxation in turn.
    **{f"shipped_n{n}": (lambda n=n: shipped(n, seed=n), RELAXATIONS[n % 4], BOTH) for n in range(1, 8)},
    # Library only: the module DFS takes 2.5 s on it.
    "shipped_n14_s3": (lambda: shipped(14, seed=3), Relaxations(), LIBRARY),
    # The packing layout at 2-6 fogs and 3-5 apps; with less fog stor, roots
    # (1) and (2) do not decide, so the chain search runs and backtracks.
    **{key: (lambda key=key: packing_instance(key), relax, BOTH) for key, relax in (
        ("f2_n3_q1.5_s1", RELAXATIONS[0]), ("f3_n4_q3.0_s2", RELAXATIONS[1]),
        ("f4_n5_q1.5_s3", RELAXATIONS[2]), ("f5_n3_q3.0_s4", RELAXATIONS[3]),
        ("f6_n5_q1.5_s5", RELAXATIONS[0]), ("f3_n5_q1.5_s6", RELAXATIONS[0]),
        ("f4_n4_q3.0_s7", RELAXATIONS[3]))},
    **{f"{key}_stor{stor:g}": (lambda key=key, stor=stor: packing_instance(key, fog_stor_capacity=stor),
                               Relaxations(), BOTH)
       for key, stor in (("f2_n4_q1.5_s21", 2.0), ("f4_n5_q1.5_s26", 2.0), ("f2_n5_q1.5_s5", 4.0))},
    **{f"alpha_{alpha}": (lambda alpha=alpha: shipped(5, seed=8, alpha=alpha), Relaxations(), BOTH)
       for alpha in (0.0, 0.5, 1.0)},
    # Mixed chain lengths.
    "chains_1_to_4": (lambda: make_instance([make_app(f"a{n}", n=n, qos=2.0) for n in range(1, 5)]),
                      Relaxations(), BOTH),
    "chains_1_2": (lambda: make_instance([make_app("a1", n=1, security=SecurityLevel.HIGH),
                                          make_app("a2", n=2, qos=0.5)]), Relaxations(), BOTH),
    # Greedy gives the cheap fog to a1, which saves more there: optimal, but
    # above the root bound, so the chain search proves it.
    "greedy_above_bound": (lambda: make_instance(
        [make_app("a1", qos=50.0, exec_delay=0.3), make_app("a2", qos=50.0)],
        nodes=(make_cloud(), make_fog("f0", (500.0, 500.0), proc_capacity=3.5, proc_cost=0.001,
                                      stor_cost=0.001))), Relaxations(), BOTH),
    # One instance per infeasibility cause.
    "infeasible_rating": (lambda: make_instance([make_app(security=SecurityLevel.HIGH)], nodes=(
        make_cloud(), make_fog("f_lo", (10.0, 500.0)))), Relaxations(), BOTH),
    "infeasible_qos": (lambda: make_instance([make_app(qos=0.31)]), Relaxations(), BOTH),
    "infeasible_capacity": (confined_capacity, Relaxations(), BOTH),
    # Named packing_search cases: root exit (1), a root-bound tie, and a
    # confined layout, library only, that the module DFS does not finish in
    # 60 s.
    "f4_n10_q1.5_s547": (lambda: packing_instance("f4_n10_q1.5_s547"), Relaxations(), BOTH),
    "f6_n20_q1.5_s909": (lambda: packing_instance("f6_n20_q1.5_s909"), Relaxations(), BOTH),
    "f4_n11_q1.5_s827_stor4": (lambda: packing_instance("f4_n11_q1.5_s827", fog_stor_capacity=4.0),
                               Relaxations(), LIBRARY),
}


@pytest.mark.parametrize("name", CASES)
def test_both_paths_agree_with_the_oracles(name):
    build, relax, solves = CASES[name]
    inst = build()
    true_status, true_cost = oracle.highs_verdict(inst, relax)
    assert true_status != "unknown"
    brute = (solve_bruteforce(inst, relax)
             if len(inst.nodes) ** inst.total_modules <= BRUTE_MAX_ASSIGNMENTS else None)
    placeable = _Problem(inst, relax).placeable
    for path, limit in solves:
        calls = []
        spies = {method: (lambda *args, method=method, original=getattr(_Problem, method):
                          calls.append(method) or original(*args))
                 for method in ("module_dfs", "root_proofs", "tail_bound")}
        with mock.patch.multiple(_Problem, **spies):
            report = solve_exact(inst, relax, SolveOptions(time_limit=limit),
                                 _domains={} if path == "sweep" else None)
        if not placeable:
            assert calls == []
        elif path == "sweep":
            assert calls == ["module_dfs", "tail_bound"]
        else:
            assert calls in (["root_proofs"], ["root_proofs", "tail_bound"])
        assert report.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE), (path, limit)
        cost = None if report.cost is None else report.cost.total
        assert oracle.check_answer(report.status.value, cost, true_status, true_cost,
                                   oracle.COST_RTOL) is None, (path, limit)
        if brute is not None:
            assert report.status is brute.status, (path, limit)
            assert cost == (None if brute.cost is None
                            else pytest.approx(brute.cost.total, rel=1e-9)), (path, limit)
        if report.placement is not None:
            assert check_feasibility(inst, report.placement, relax) == [], (path, limit)
            assert report.cost == eval_cost(inst, report.placement), (path, limit)
