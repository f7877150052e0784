import dataclasses
import gc
import hashlib
import itertools
import json
import math
import random
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings, strategies as st

from fogplace import solver
from fogplace.experiment import preset_grid, run_sweep, to_csv
from fogplace.ilp import FEAS_TOL, Relaxations, check_feasibility, eval_cost, eval_delay
from fogplace.instance_io import report_to_dict
from fogplace.model import AppModule, Placement, SecurityLevel
from fogplace.scenario import ScenarioConfig, generate_instance
from fogplace.solver import (
    SearchStats,
    SolveOptions,
    SolveStatus,
    _Problem,
    solve_bruteforce,
    solve_exact,
    solve_greedy,
)

from conftest import make_app, make_cloud, make_fog, make_instance, packing_instance

RELAX_ALL = Relaxations(drop_qos=True, drop_security=True)


def tiny_cfg(seed, **over):
    return dataclasses.replace(ScenarioConfig(n_apps=2), seed=seed, **over)


class TestSolveExact:
    def test_unsatisfiable_security_is_infeasible(self):
        # Only low/medium nodes, every app requires high.
        nodes = (make_cloud(), make_fog("f_lo", (10.0, 500.0)))
        inst = make_instance([make_app(security=SecurityLevel.HIGH)], nodes=nodes)
        report = solve_exact(inst)
        assert report.status is SolveStatus.INFEASIBLE
        assert report.placement is None

    def test_matches_bruteforce_on_tiny_instance(self, tiny_instance):
        a = solve_exact(tiny_instance)
        b = solve_bruteforce(tiny_instance)
        assert a.status is b.status is SolveStatus.OPTIMAL
        assert a.cost.total == pytest.approx(b.cost.total, rel=1e-12)

    def test_oracle_equivalence_on_random_instances(self):
        for seed in range(20):
            cfg = tiny_cfg(seed, max_qos=1.5 if seed % 2 else 3.0)
            if seed % 5 == 3:
                cfg = dataclasses.replace(cfg, fog_proc_capacity=2.0, cloud_proc_capacity=3.0)
            inst = generate_instance(cfg)
            for relax in (Relaxations(), Relaxations(drop_security=True), RELAX_ALL):
                a = solve_exact(inst, relax)
                b = solve_bruteforce(inst, relax)
                assert a.status is b.status, (seed, relax)
                if a.status is SolveStatus.OPTIMAL:
                    assert a.cost.total == pytest.approx(b.cost.total, rel=1e-9), (seed, relax)

    def test_separable_argmin_when_links_are_free(self):
        # With zero inter-node bandwidth cost and uniform attach costs, each
        # module independently lands on its cheapest processing+storage node.
        nodes = (make_cloud(sensor_bw_cost=4.0, user_bw_cost=4.0),
                 make_fog("f1", (500.0, 500.0), sensor_bw_cost=4.0, user_bw_cost=4.0),
                 make_fog("f2", (400.0, 400.0), sensor_bw_cost=4.0, user_bw_cost=4.0))
        inst = make_instance([make_app("a1"), make_app("a2", exec_delay=0.2)], nodes=nodes)
        free_links = dataclasses.replace(
            inst.links, bw_cost=tuple((0.0,) * len(row) for row in inst.links.bw_cost))
        inst = dataclasses.replace(inst, links=free_links)
        report = solve_exact(inst, RELAX_ALL)
        expected = 0.0
        for a in inst.apps:
            expected += a.input_traffic * 4.0 + a.output_traffic * 4.0
            for mod in a.modules:
                expected += min(mod.exec_delay * n.proc_cost + mod.stor_req * n.stor_cost
                                for n in inst.nodes)
        assert report.cost.total == pytest.approx(expected, rel=1e-12)

    def test_optimal_report_is_feasible_and_costed(self, two_app_instance):
        report = solve_exact(two_app_instance)
        assert report.status is SolveStatus.OPTIMAL
        assert check_feasibility(two_app_instance, report.placement) == []
        assert report.cost.total == pytest.approx(
            eval_cost(two_app_instance, report.placement).total, rel=1e-12)

    def test_constraint_tightening_never_cheapens(self):
        for seed in range(8):
            inst = generate_instance(tiny_cfg(seed))
            costs = {}
            for relax in (Relaxations(), Relaxations(drop_qos=True),
                          Relaxations(drop_security=True), RELAX_ALL):
                r = solve_exact(inst, relax)
                costs[(relax.drop_qos, relax.drop_security)] = (
                    r.cost.total if r.status is SolveStatus.OPTIMAL else None)
            full = costs[(False, False)]
            both = costs[(True, True)]
            for key in ((True, False), (False, True)):
                if full is not None and costs[key] is not None:
                    assert full >= costs[key] - 1e-12
                if costs[key] is not None and both is not None:
                    assert costs[key] >= both - 1e-12

    def test_adding_an_app_never_cheapens(self):
        for seed in range(5):
            costs = []
            for n_apps in range(1, 5):
                cfg = dataclasses.replace(ScenarioConfig(), n_apps=n_apps, seed=seed)
                r = solve_exact(generate_instance(cfg))
                if r.status is not SolveStatus.OPTIMAL:
                    break
                costs.append(r.cost.total)
            for a, b in zip(costs, costs[1:]):
                assert b >= a - 1e-12

    def test_deterministic_reports(self, two_app_instance):
        a = solve_exact(two_app_instance)
        b = solve_exact(two_app_instance)
        dump_a = json.dumps(report_to_dict(two_app_instance, a), sort_keys=True)
        dump_b = json.dumps(report_to_dict(two_app_instance, b), sort_keys=True)
        assert dump_a == dump_b

    def test_heterogeneous_chain_lengths(self):
        from fogplace.ilp import build_model
        apps = [make_app("short", n=2, inter=(0.4,)),
                make_app("long", n=4, inter=(0.2, 0.3, 0.1))]
        inst = make_instance(apps)
        model = build_model(inst, RELAX_ALL)
        xs = [v for v in model.variables if v.startswith("x_")]
        zs = [v for v in model.variables if v.startswith("z_")]
        assert len(xs) == (2 + 4) * 3 and len(zs) == (1 + 3) * 9
        e = solve_exact(inst)
        b = solve_bruteforce(inst)
        assert e.status is b.status is SolveStatus.OPTIMAL
        assert e.cost.total == pytest.approx(b.cost.total, rel=1e-9)

    def test_time_limit_returns_incumbent(self, two_app_instance):
        report = solve_exact(two_app_instance, opts=SolveOptions(time_limit=1e-9))
        assert report.status is SolveStatus.TIME_LIMIT
        # greedy seeded an incumbent before the clock ran out
        assert report.placement is not None
        assert report.cost.total >= solve_exact(two_app_instance).cost.total - 1e-12

    def test_timeout_reports_the_chain_search_incumbent(self, monkeypatch):
        # The clock "runs out" at the first read after the chain search
        # stores an assignment, so the run is deterministic; the report is
        # that assignment, not greedy's.
        def check_clock(prob):
            if prob.incumbent is not None:
                raise TimeoutError

        monkeypatch.setattr(_Problem, "check_clock", check_clock)
        inst = packing_instance("f4_n11_q1.5_s0", fog_stor_capacity=4.0)
        report = solve_exact(inst, opts=SolveOptions(time_limit=60))
        assert report.status is SolveStatus.TIME_LIMIT
        assert check_feasibility(inst, report.placement, Relaxations()) == []
        assert report.cost == eval_cost(inst, report.placement)
        assert report.cost.total < solve_greedy(inst).cost.total

    def test_no_apps_is_trivially_optimal(self):
        report = solve_exact(make_instance([]))
        assert report.status is SolveStatus.OPTIMAL
        assert report.placement.assign == {} and report.cost.total == 0.0

    def test_invalid_options_rejected(self):
        for limit in (0.0, -1.0, float("nan"), True, "1", 10**400):
            with pytest.raises(ValueError, match="time_limit"):
                SolveOptions(time_limit=limit)

    def test_time_limit_covers_preprocessing(self):
        # Two 6-module chains on 8 equally priced nodes, no traffic between
        # modules: all 8**6 chains of an app tie, so the cheapest-chain
        # search prunes none, far more than 0.1 s of preprocessing.
        prices = dict(proc_cost=0.02, stor_cost=0.02, sensor_bw_cost=5.0, user_bw_cost=5.0)
        nodes = (make_cloud(**prices),
                 *(make_fog(f"f{i}", (100.0 * i + 150.0, 500.0), **prices) for i in range(7)))
        inst = make_instance([make_app(f"a{i}", n=6, qos=50.0, inter=(0.0,) * 5) for i in (1, 2)],
                             nodes=nodes)
        start = time.monotonic()
        report = solve_exact(inst, opts=SolveOptions(time_limit=0.1))
        assert time.monotonic() - start < 1.0
        assert report.status is SolveStatus.TIME_LIMIT
        assert report.placement is None

    def test_costs_the_incumbent_without_eval_cost(self, monkeypatch):
        # When the search finds nothing cheaper than greedy, greedy's own
        # costing on node indices is the report's: no eval_cost call, and
        # the same floats as eval_cost of the placement.
        instances = [generate_instance(tiny_cfg(seed)) for seed in range(6)]
        greedy = [solve_greedy(inst).placement for inst in instances]
        calls = []

        def counting_eval_cost(*args):
            calls.append(args)
            return eval_cost(*args)

        monkeypatch.setattr(solver, "eval_cost", counting_eval_cost)
        checked = 0
        for inst, placement in zip(instances, greedy):
            calls.clear()
            report = solve_exact(inst)
            if report.status is SolveStatus.OPTIMAL and report.placement == placement:
                assert calls == []
                assert vars(report.cost) == vars(eval_cost(inst, report.placement))
                checked += 1
        assert checked >= 3

    def test_builds_one_problem(self, two_app_instance, monkeypatch):
        built = []

        def counting_problem(*args, **kwargs):
            built.append(args)
            return _Problem(*args, **kwargs)

        monkeypatch.setattr(solver, "_Problem", counting_problem)
        assert solve_exact(two_app_instance).status is SolveStatus.OPTIMAL
        assert len(built) == 1

    def test_sweep_csv_is_unchanged(self):
        # sha256 of the fig5 sweep CSV (counters included) on seeds 0 and 1,
        # recorded before greedy and exact shared one preprocessing pass.
        csv = to_csv(run_sweep(preset_grid("fig5"), [0, 1]))
        assert hashlib.sha256(csv.encode()).hexdigest() == (
            "5386c79157d62997901c5104b1e6bfa6e3f4aa16276fea36e467c99c84ff8095")

    def test_search_counters_pinned_on_random_positions(self):
        # sha256 of (status, cost, counters) for packing_search-layout
        # instances (random fog positions, 3-6 fogs) that solve in
        # milliseconds.  Every prune kind fires, so any change to the order
        # or the float sums of the search shows here.
        cases = [(3, 7, 1.5, 3371), (3, 14, 1.5, 3141), (4, 14, 3.0, 4243),
                 (5, 10, 1.5, 5501), (6, 20, 1.5, 6201)]
        digest = hashlib.sha256()
        for n, (n_fog, n_apps, max_qos, seed) in enumerate(cases):
            inst = generate_instance(ScenarioConfig(n_fog=n_fog, n_apps=n_apps, max_qos=max_qos,
                                                    seed=seed, fog_positions=None, tx_ranges=None))
            relaxes = [Relaxations(), Relaxations(drop_qos=True)]
            if n % 2 == 0:  # the others take 0.2 s each with security dropped
                relaxes.append(Relaxations(drop_security=True))
            for relax in relaxes:
                report = solve_exact(inst, relax)
                digest.update(repr((report.status.value, report.cost,
                                    report.search_stats.to_dict())).encode())
        assert digest.hexdigest() == (
            "661b1e2c6c3b333ee7a689cf0b87180cfd5ab7729d9a2e8cc35f1e03a3c7f394")


class TestBounds:
    def test_tail_bound_admissible_on_feasible_completions(self):
        # Every suffix of every feasible assignment must cost at least the
        # solver's precomputed completion bound for that depth.
        for seed in range(6):
            inst = generate_instance(tiny_cfg(seed))
            for relax in (Relaxations(), RELAX_ALL):
                prob = _Problem(inst, relax)
                node_pos = {nid: k for k, nid in enumerate(prob.node_ids)}
                report = solve_bruteforce(inst, relax)
                if report.status is not SolveStatus.OPTIMAL:
                    continue
                assignment = [node_pos[node_id] for app in inst.apps
                              for node_id in report.placement.assign[app.id]]
                positions = [pos for group in prob.app_positions for pos in group]
                bound = prob.tail_bound()
                step = []
                for m, (pos, k) in enumerate(zip(positions, assignment)):
                    cost = pos.static_cost[k]
                    if pos.root is None:  # not an app's first module
                        cost += pos.inbound * prob.inst.links.bw_cost[assignment[m - 1]][k]
                    step.append(cost)
                suffix = 0.0
                for m in range(len(step) - 1, -1, -1):
                    suffix += step[m]
                    assert suffix >= bound[m] - 1e-9

    def test_chains_and_bounds_pinned(self):
        # sha256 of every app's chain list and the tail bound over random fog
        # positions, both QoS levels, loose and tight fog capacity and three
        # relaxations, recorded before the enumeration became a pruned
        # prefix tree.  Any change to a chain, its cost float or a bound
        # shows here.
        digest = hashlib.sha256()
        for n_fog in (2, 3, 4, 6):
            for max_qos in (1.5, 3.0):
                for cap in (22.0, 3.0):
                    inst = generate_instance(ScenarioConfig(
                        n_fog=n_fog, n_apps=4, max_qos=max_qos, fog_proc_capacity=cap,
                        seed=100 * n_fog + int(max_qos) + int(cap),
                        fog_positions=None, tx_ranges=None))
                    for relax in (Relaxations(), Relaxations(drop_qos=True),
                                  Relaxations(drop_security=True)):
                        prob = _Problem(inst, relax)
                        digest.update(repr((prob.app_combos, prob.tail_bound())).encode())
        assert digest.hexdigest() == (
            "75aa6b301f0288164e70b0b0c6e401adebfb86968b4fdcafd5f02f2cf7af65cc")

    def test_root_bound_tie_keeps_search_small(self):
        # packing_search's f6_n20_q1.5_s909: the root bound equals the optimum
        # to within one ulp.  A bound change that moved the sums by one ulp
        # once took this solve from 161 nodes to 7.4M.
        inst = generate_instance(ScenarioConfig(n_fog=6, n_apps=20, max_qos=1.5, seed=909,
                                                fog_positions=None, tx_ranges=None))
        report = solve_exact(inst, opts=SolveOptions(time_limit=5.0))
        assert report.status is SolveStatus.OPTIMAL
        assert report.search_stats.nodes_explored <= 161


PACKING_REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"


def permuted(inst, order):
    """``inst`` with its nodes (and link rows and columns) in ``order``."""
    def matrix(rows):
        return tuple(tuple(rows[u][v] for v in order) for u in order)
    links = dataclasses.replace(inst.links, delay=matrix(inst.links.delay), bw_cost=matrix(inst.links.bw_cost))
    return dataclasses.replace(inst, nodes=tuple(inst.nodes[k] for k in order), links=links)


def doubled_prices(inst):
    nodes = tuple(dataclasses.replace(n, proc_cost=2 * n.proc_cost, stor_cost=2 * n.stor_cost,
                                      sensor_bw_cost=2 * n.sensor_bw_cost, user_bw_cost=2 * n.user_bw_cost)
                  for n in inst.nodes)
    links = dataclasses.replace(inst.links, bw_cost=tuple(tuple(2 * v for v in row) for row in inst.links.bw_cost))
    return dataclasses.replace(inst, nodes=nodes, links=links)


def same_answer(a, b, scale=1.0):
    """Whether two decided reports agree on status and, scaled, on cost to 1e-9 relative."""
    if a.status is not b.status:
        return False
    return a.cost is None or a.cost.total * scale == pytest.approx(b.cost.total, rel=1e-9)


class TestRootProofs:
    """A timed solve tries to decide at the root before it searches (see the
    solver's module notes).  Undecided pairs are skipped, and counted as
    hypothesis events."""

    # Derandomized, so every run draws the same instances; the examples are
    # packing_search instances that (3), (2) and (1) decide in turn.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @example(n_fog=2, n_apps=7, max_qos=1.5, seed=16, order_seed=1)
    @example(n_fog=3, n_apps=7, max_qos=1.5, seed=251, order_seed=2)
    @example(n_fog=4, n_apps=7, max_qos=1.5, seed=508, order_seed=3)
    @given(n_fog=st.integers(2, 4), n_apps=st.integers(5, 10), max_qos=st.sampled_from([1.5, 3.0]),
           seed=st.integers(0, 2**32 - 1), order_seed=st.integers(0, 2**32 - 1))
    def test_timed_solve_agrees_with_the_search(self, n_fog, n_apps, max_qos, seed, order_seed):
        # The packing_search layout, with a 1 s limit.
        inst = packing_instance(f"f{n_fog}_n{n_apps}_q{max_qos}_s{seed}")
        opts = SolveOptions(time_limit=1.0)
        timed = solve_exact(inst, opts=opts)
        order = random.Random(order_seed).sample(range(len(inst.nodes)), len(inst.nodes))
        for name, other, scale in (("untimed", solve_exact(inst), 1.0),
                                   ("permuted", solve_exact(permuted(inst, order), opts=opts), 1.0),
                                   ("doubled", solve_exact(doubled_prices(inst), opts=opts), 2.0)):
            if SolveStatus.TIME_LIMIT in (timed.status, other.status):
                event(f"skipped {name}: time limit")
                continue
            assert same_answer(timed, other, scale), name
        # Brute force where it takes milliseconds: 3**6 or 4**3 assignments.
        if len(inst.nodes) <= 4:
            sub = inst.with_apps(inst.apps[:2 if len(inst.nodes) == 3 else 1])
            assert same_answer(solve_exact(sub, opts=opts), solve_bruteforce(sub))

    @pytest.mark.parametrize("key, proof", [
        ("f4_n10_q1.5_s547", "root exit"),  # (1): greedy's cost is at the root bound
        ("f2_n14_q1.5_s121", "capacity"),  # (2): confined modules overflow their nodes
        ("f3_n14_q1.5_s366", "chain search"),  # (3): an assignment of cheapest chains fits
    ])
    def test_each_root_proof_decides_a_cliff_case(self, key, proof):
        # Each hits the 0.1 s limit when only the module DFS runs.
        inst = packing_instance(key)
        report = solve_exact(inst, opts=SolveOptions(time_limit=1.0))
        if proof == "chain search":  # one node per app placed
            assert report.search_stats.nodes_explored >= len(inst.apps)
        else:
            assert report.search_stats == SearchStats()
        true_status, true_cost = json.loads(PACKING_REFERENCE.read_text())["packing_search"]["ops"][key]
        assert report.status.value == true_status
        greedy = solve_greedy(inst)
        if proof == "root exit":
            assert report.placement == greedy.placement and report.cost == greedy.cost
        elif proof == "capacity":
            assert greedy.status is SolveStatus.HEURISTIC_FAILED
        else:
            assert greedy.cost.total > report.cost.total
        if true_cost is not None:
            assert report.cost.total == pytest.approx(true_cost, rel=1e-9)
            assert not check_feasibility(inst, report.placement, Relaxations())

    @pytest.mark.parametrize("key", ["f3_n20_q1.5_s429", "f4_n14_q1.5_s629"])
    def test_chain_search_decides_where_the_plateau_was_empty(self, key):
        # No assignment of each app's cheapest chains fits, so the chain
        # search backtracks (roots (1) and (2) report counters of 0).  The
        # module DFS hit the 0.1 s limit on both.
        inst = packing_instance(key)
        report = solve_exact(inst, opts=SolveOptions(time_limit=1.0))
        assert report.search_stats.nodes_explored > len(inst.apps)
        true_status, true_cost = json.loads(PACKING_REFERENCE.read_text())["packing_search"]["ops"][key]
        assert (report.status.value, true_status) == ("optimal", "optimal")
        assert report.cost.total == pytest.approx(true_cost, rel=1e-9)
        assert check_feasibility(inst, report.placement, Relaxations()) == []

    def test_chain_search_proves_greedy_optimal(self):
        # The cheap fog fits one app's chain.  Greedy gives it to a1, which
        # saves more there, so greedy is optimal but above the root bound,
        # which puts both apps on the fog.
        fog = make_fog("f0", (500.0, 500.0), proc_capacity=3.5, proc_cost=0.001, stor_cost=0.001)
        inst = make_instance([make_app("a1", qos=50.0, exec_delay=0.3), make_app("a2", qos=50.0)],
                             nodes=(make_cloud(), fog))
        greedy = solve_greedy(inst)
        assert greedy.cost.total > _Problem(inst, Relaxations()).tail_bound()[0] * (1 + 1e-9)
        report = solve_exact(inst, opts=SolveOptions(time_limit=1.0))
        assert report.status is SolveStatus.OPTIMAL and report.search_stats.nodes_explored > 0
        assert report.placement == greedy.placement and report.cost == greedy.cost
        assert same_answer(report, solve_exact(inst))

    def test_chain_search_keeps_to_the_limit(self):
        # f3_n20_q1.5_s438: the chain search needs about half a second to decide it.
        inst = packing_instance("f3_n20_q1.5_s438")
        start = time.monotonic()
        report = solve_exact(inst, opts=SolveOptions(time_limit=0.05))
        assert time.monotonic() - start < 0.5
        assert report.status is SolveStatus.TIME_LIMIT
        if report.placement is not None:
            assert check_feasibility(inst, report.placement, Relaxations()) == []

    def test_confined_capacity_proof_keeps_to_the_limit(self, monkeypatch):
        # Fog k alone holds app c<k>'s module (proc rises and mem falls with
        # k), and greedy puts app a on fog 0 first, so it finds nothing and
        # the host supports have 2**18 unions.
        n = 18
        fogs = [make_fog(f"f{k}", (50.0 + 50.0 * k, 500.0), proc_capacity=100.0 + k,
                         mem_capacity=100.0 + n - 1 - k, proc_cost=0.005, stor_cost=0.001,
                         sensor_bw_cost=1.0, user_bw_cost=1.0) for k in range(n)]
        apps = [make_app("a", n=1), *(make_app(f"c{k}", n=1, qos=1.0, proc=100.0 + k, mem=100.0 + n - 1 - k)
                                      for k in range(n))]
        inst = make_instance(apps, (make_cloud(), *fogs))
        assert solve_greedy(inst).status is SolveStatus.HEURISTIC_FAILED
        start = time.monotonic()
        report = solve_exact(inst, opts=SolveOptions(time_limit=0.5))
        assert time.monotonic() - start < 0.5  # MAX_UNIONS caps the unions
        assert report.status is SolveStatus.OPTIMAL and same_answer(report, solve_exact(inst))
        monkeypatch.setattr(solver, "MAX_UNIONS", 2**n)  # now only the clock stops it
        start = time.monotonic()
        report = solve_exact(inst, opts=SolveOptions(time_limit=0.05))
        assert time.monotonic() - start < 0.5
        assert report.status is SolveStatus.TIME_LIMIT


def no_dearer(a, b):
    """Whether decided report ``a``'s optimum is at most ``b``'s, to 1e-9
    relative; an infeasible instance's optimum is infinite."""
    cost_a, cost_b = (math.inf if r.status is SolveStatus.INFEASIBLE else r.cost.total for r in (a, b))
    return cost_a <= cost_b + 1e-9 * max(1.0, cost_b)


# Derandomized, 80 draws: 100 took 2 s.  A draw may halve the fog storage, so
# that capacity binds and the solve reaches the chain search; the examples are
# packing_search instances that it decides after backtracking.
@settings(max_examples=80, deadline=None, derandomize=True)
@example(n_fog=3, n_apps=14, max_qos=1.5, seed=373, node=1, resource="stor_capacity", fog_stor=8.0)
@example(n_fog=3, n_apps=14, max_qos=3.0, seed=396, node=2, resource="proc_capacity", fog_stor=8.0)
@example(n_fog=3, n_apps=20, max_qos=3.0, seed=458, node=3, resource="mem_capacity", fog_stor=8.0)
@example(n_fog=4, n_apps=14, max_qos=1.5, seed=629, node=4, resource="stor_capacity", fog_stor=8.0)
@example(n_fog=4, n_apps=20, max_qos=3.0, seed=714, node=1, resource="proc_capacity", fog_stor=8.0)
@given(n_fog=st.integers(2, 6), n_apps=st.integers(5, 14), max_qos=st.sampled_from([1.5, 3.0]),
       seed=st.integers(0, 2**32 - 1), node=st.integers(0, 6),
       resource=st.sampled_from(["proc_capacity", "mem_capacity", "stor_capacity"]),
       fog_stor=st.sampled_from([4.0, 8.0]))
def metamorphic_relations(drawn, n_fog, n_apps, max_qos, seed, node, resource, fog_stor):
    """Checks the relations of ``TestMetamorphic`` on one instance and
    appends its draw to ``drawn`` first."""
    drawn.append((n_fog, n_apps, max_qos, seed, fog_stor))
    inst = packing_instance(f"f{n_fog}_n{n_apps}_q{max_qos}_s{seed}", fog_stor_capacity=fog_stor)
    opts = SolveOptions(time_limit=1.0)
    base = solve_exact(inst, opts=opts)
    k = node % len(inst.nodes)
    grown = dataclasses.replace(inst.nodes[k], **{resource: 2 * getattr(inst.nodes[k], resource)})
    raised = dataclasses.replace(inst, nodes=inst.nodes[:k] + (grown,) + inst.nodes[k + 1:])
    # The first keeps status and cost; the rest are no dearer, and feasible wherever inst is.
    others = [
        ("reversed apps", dataclasses.replace(inst, apps=inst.apps[::-1]), Relaxations()),
        ("drop_security", inst, Relaxations(drop_security=True)),
        ("drop_qos", inst, Relaxations(drop_qos=True)),
        ("raised capacity", raised, Relaxations()),
        ("one app fewer", inst.with_apps(inst.apps[:-1]), Relaxations()),
    ]
    for name, other_inst, relax in others:
        other = solve_exact(other_inst, relax, opts)
        if SolveStatus.TIME_LIMIT in (base.status, other.status):
            event(f"skipped {name}: time limit")
            continue
        assert same_answer(base, other) if name == "reversed apps" else no_dearer(other, base), name


class TestMetamorphic:
    """Relations between timed solves on the packing_search layout, with a
    1 s limit.  Pairs with a time-limited side are skipped, and counted as
    hypothesis events."""

    def test_relations(self):
        # A spy on the chain search records the draws whose solves reach it:
        # drawn instances, not only the pool examples, must.
        drawn, reached = [], set()
        chain_search = _Problem.chain_search

        def spy(prob, *args):
            reached.add(drawn[-1])
            return chain_search(prob, *args)

        with mock.patch.object(_Problem, "chain_search", spy):
            metamorphic_relations(drawn)
        examples = {(3, 14, 1.5, 373, 8.0), (3, 14, 3.0, 396, 8.0), (3, 20, 3.0, 458, 8.0),
                    (4, 14, 1.5, 629, 8.0), (4, 20, 3.0, 714, 8.0)}
        assert len(reached - examples) >= 5


class TestDomainMemo:
    @pytest.fixture
    def count_domains(self, monkeypatch):
        calls = []
        original = _Problem.app_slots

        def counting(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_Problem, "app_slots", counting)
        return calls

    def test_domain_does_not_depend_on_app_index(self, count_domains):
        # Random-position instances whose searches prune on QoS, so an app
        # checked against another app's delay limit changes the report.
        for n_fog, n_apps, max_qos, seed in ((3, 14, 1.5, 3141), (4, 14, 3.0, 4243)):
            inst = generate_instance(ScenarioConfig(n_fog=n_fog, n_apps=n_apps, max_qos=max_qos,
                                                    seed=seed, fog_positions=None, tx_ranges=None))
            moved = dataclasses.replace(inst, apps=inst.apps[::-1])
            for relax in (Relaxations(), Relaxations(drop_qos=True)):
                memo = {}
                solve_exact(inst, relax, _domains=memo)
                count_domains.clear()
                assert solve_exact(moved, relax, _domains=memo) == solve_exact(moved, relax)
                assert len(count_domains) == len(inst.apps)  # the fresh solve's builds only

    def test_memo_holds_for_one_infrastructure(self, count_domains):
        inst = generate_instance(ScenarioConfig(n_apps=4, seed=3))
        cloud, *fogs = inst.nodes
        other = dataclasses.replace(inst, nodes=(dataclasses.replace(cloud, proc_cost=0.5), *fogs))
        memo = {}
        solve_exact(inst, _domains=memo)
        count_domains.clear()
        assert solve_exact(other, _domains=memo) == solve_exact(other)
        assert len(count_domains) == 2 * len(inst.apps)

    def test_timed_out_build_stores_only_complete_entries(self):
        inst = generate_instance(ScenarioConfig(n_apps=3, seed=0))
        memo = {}
        _Problem(inst.with_apps(inst.apps[:1]), Relaxations(), domains=memo)
        calls = []
        original = _Problem.app_chains

        def second_times_out(self, *args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise TimeoutError
            return original(self, *args, **kwargs)

        # App 0 comes from the memo, app 1 builds, app 2 times out.
        with mock.patch.object(_Problem, "app_chains", second_times_out), pytest.raises(TimeoutError):
            _Problem(inst, Relaxations(), domains=memo)
        assert len(calls) == 2
        assert len(memo) == 4  # the node arrays, the root step and the domains of apps 0 and 1
        step = memo[(False, False)].children[id(inst.apps[0])].children[id(inst.apps[1])]
        assert step.children == {}  # no step for app 2
        resumed, fresh = _Problem(inst, Relaxations(), domains=memo), _Problem(inst, Relaxations(), domains={})
        assert resumed.app_combos == fresh.app_combos
        assert ((resumed.last.sums, resumed.last.items, resumed.last.delays)
                == (fresh.last.sums, fresh.last.items, fresh.last.delays))
        assert solve_exact(inst, _domains=memo) == solve_exact(inst)

    def test_library_calls_build_every_domain(self, count_domains):
        inst = generate_instance(ScenarioConfig(n_apps=5, seed=1))
        first = solve_exact(inst)
        assert len(count_domains) == len(inst.apps)
        assert solve_exact(inst) == first
        assert len(count_domains) == 2 * len(inst.apps)


class TestPrefixMemo:
    @pytest.fixture
    def extended(self, monkeypatch):
        apps = []
        original = _Problem.extend

        def counting(self, state, app, *args):
            apps.append(app)
            return original(self, state, app, *args)

        monkeypatch.setattr(_Problem, "extend", counting)
        return apps

    def test_sweep_adds_each_cell_s_new_app_only(self, extended):
        # fig4's cells grow one app at a time under each threshold.
        run_sweep(preset_grid("fig4"), [0])
        assert len(extended) == len(preset_grid("fig4").cells)

    def test_shorter_prefixes_come_from_the_memo(self, extended):
        inst = generate_instance(ScenarioConfig(n_apps=7, seed=2))
        memo = {}
        for n_apps in (7, 3, 5, 1):
            sub = inst.with_apps(inst.apps[:n_apps])
            expected = solve_exact(sub)
            extended.clear()
            assert solve_exact(sub, _domains=memo) == expected
            assert len(extended) == (7 if n_apps == 7 else 0)

    @settings(max_examples=25, deadline=None)
    @given(n_fog=st.integers(2, 6), n_apps=st.integers(1, 6), first=st.integers(0, 6),
           max_qos=st.sampled_from([1.5, 3.0]), seed=st.integers(0, 2**32 - 1),
           drop_qos=st.booleans(), drop_security=st.booleans())
    def test_prefix_incumbents_are_library_greedy(self, n_fog, n_apps, first, max_qos, seed,
                                                  drop_qos, drop_security):
        # The packing_search layout: random fog positions and ranges.  A
        # shorter build first, so that the full one extends a stored prefix.
        inst = generate_instance(ScenarioConfig(n_fog=n_fog, n_apps=n_apps, max_qos=max_qos, seed=seed,
                                                fog_positions=None, tx_ranges=None))
        relax = Relaxations(drop_qos=drop_qos, drop_security=drop_security)
        memo = {}
        _Problem(inst.with_apps(inst.apps[:first]), relax, domains=memo)
        _Problem(inst, relax, domains=memo)
        step, tried = memo[(drop_qos, drop_security)], 0
        for j, app in enumerate(inst.apps, 1):
            if step.used is not None:  # greedy tries an app's chains once it placed the earlier apps
                tried += len(step.children[id(app)].combos)
            step, sub = step.children[id(app)], inst.with_apps(inst.apps[:j])
            prob = _Problem(sub, relax, domains=memo)
            assert prob.last is step
            library = solve_greedy(sub, relax)
            assert tried == library.search_stats.nodes_explored
            if step.used is None:
                assert library.status is SolveStatus.HEURISTIC_FAILED
                continue
            report = prob.report(SolveStatus.FEASIBLE, relax, library.search_stats)
            assert report.placement == library.placement
            assert vars(report.cost) == vars(library.cost) == vars(eval_cost(sub, report.placement))
            assert report.per_app_delay == library.per_app_delay == {
                a.id: eval_delay(sub, report.placement, a) for a in sub.apps}

    def test_sweep_and_timed_out_solve_leave_no_cyclic_garbage(self):
        # Garbage that only the cyclic GC frees keeps each solve's search
        # lists alive until a collection runs, and every collection walks
        # the memos.  f3_n20_q1.5_s438 takes seconds to prove optimal.
        inst = generate_instance(ScenarioConfig(n_fog=3, n_apps=20, max_qos=1.5, seed=438,
                                                fog_positions=None, tx_ranges=None))
        gc.collect()
        gc.disable()
        try:
            run_sweep(preset_grid("fig4"), [0, 1])
            swept = gc.collect()
            report = solve_exact(inst, opts=SolveOptions(time_limit=0.05))
            solved = gc.collect()
        finally:
            gc.enable()
        assert report.status is SolveStatus.TIME_LIMIT
        assert (swept, solved) == (0, 0)


def threshold_for(limit):
    """A qos_threshold whose delay limit (threshold + FEAS_TOL) is exactly ``limit``, or None."""
    t = limit - FEAS_TOL
    return next((c for c in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf))
                 if c > 0 and c + FEAS_TOL == limit), None)


class TestThresholdFilter:
    """A sweep keeps each app's unpruned chains and filters them by final
    delay per threshold; the filter must give the pruned enumeration's list."""

    @settings(max_examples=30, deadline=None)
    @given(n_fog=st.integers(2, 6), n_apps=st.integers(1, 3), max_qos=st.sampled_from([1.5, 3.0]),
           seed=st.integers(0, 2**32 - 1), drop_security=st.booleans())
    @example(n_fog=6, n_apps=3, max_qos=3.0, seed=4243, drop_security=True)
    def test_filtered_unpruned_list_is_the_pruned_one(self, n_fog, n_apps, max_qos, seed, drop_security):
        # The packing_search layout: random fog positions and ranges.
        inst = generate_instance(ScenarioConfig(n_fog=n_fog, n_apps=n_apps, max_qos=max_qos, seed=seed,
                                                fog_positions=None, tx_ranges=None))
        for relax in (Relaxations(drop_security=drop_security),
                      Relaxations(drop_qos=True, drop_security=drop_security)):
            prob = _Problem(inst, relax)
            assert _Problem(inst, relax, domains={}).app_combos == prob.app_combos
            for app, group in zip(inst.apps, prob.app_positions):
                unpruned = prob.app_chains(group, float("inf"))
                delays = sorted({delay for _cost, delay, _combo in unpruned})
                # A chain's delay exactly, one ulp either side, and the app's own limit.
                limits = {app.qos_threshold + FEAS_TOL}
                for delay in delays[::max(1, len(delays) // 6)] + delays[-1:]:
                    limits |= {math.nextafter(delay, -math.inf), delay, math.nextafter(delay, math.inf)}
                memo = {}  # one memo across the thresholds, as in a sweep's seed
                for limit in sorted(limits):
                    pruned = prob.app_chains(group, limit)
                    assert [c for c in unpruned if c[1] <= limit] == pruned, limit
                    threshold = threshold_for(limit)
                    if threshold is not None and not relax.drop_qos:  # the sweep's own filter
                        one = dataclasses.replace(inst, apps=(dataclasses.replace(app, qos_threshold=threshold),))
                        assert (_Problem(one, relax, domains=memo).app_combos
                                == [[(cost, combo) for cost, _delay, combo in pruned]]), limit


def reference_chains(prob, app_idx, relax):
    """One app's (cost, combo) list by a plain scan of every host tuple:
    capacity checked apart from the solver, delay summed in the search's
    order."""
    app = prob.inst.apps[app_idx]
    positions = prob.app_positions[app_idx]
    chains = []
    for combo in itertools.product(*(pos.candidates for pos in positions)):
        cost, delay = 0.0, app.exec_total + prob.sensor_delay[combo[0]]
        for j, (pos, k) in enumerate(zip(positions, combo)):
            cost += pos.static_cost[k]
            if j:
                cost += pos.inbound * prob.inst.links.bw_cost[combo[j - 1]][k]
                delay += prob.inst.links.delay[combo[j - 1]][k]
        delay += prob.user_delay[combo[-1]]
        if fits_alone(prob.inst, app, combo) and (
                relax.drop_qos or delay <= app.qos_threshold + FEAS_TOL):
            chains.append((cost, combo))
    return sorted(chains)


def fits_alone(inst, app, combo):
    """Whether ``app``'s modules on node indices ``combo`` fit with no other
    app placed: each node's module demands, summed in chain order as
    ``check_feasibility`` sums them, against its capacity + FEAS_TOL."""
    for req, cap in (("proc_req", "proc_capacity"), ("mem_req", "mem_capacity"),
                     ("stor_req", "stor_capacity")):
        used = dict.fromkeys(combo, 0.0)
        for mod, k in zip(app.modules, combo):
            used[k] += getattr(mod, req)
        if any(load > getattr(inst.nodes[k], cap) + FEAS_TOL for k, load in used.items()):
            return False
    return True


@st.composite
def chain_instances(draw):
    """Small instances with tight, varied capacities, so that some chains
    overflow a node their modules share and some modules fit nowhere."""
    cap = st.floats(0.5, 6.0)
    nodes = [make_cloud(proc_capacity=draw(cap))]
    for f in range(draw(st.integers(1, 3))):
        position = (draw(st.floats(0.0, 1000.0)), draw(st.floats(0.0, 1000.0)))
        nodes.append(make_fog(f"f{f}", position, proc_capacity=draw(cap)))
    apps = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        modules = tuple(AppModule(proc_req=draw(st.floats(0.1, 4.0)), mem_req=0.02,
                                  stor_req=draw(st.floats(0.1, 1.0)),
                                  exec_delay=draw(st.floats(0.01, 0.3))) for _ in range(n))
        app = make_app(f"a{i}", n=n, qos=draw(st.floats(0.3, 3.0)),
                       security=draw(st.sampled_from(list(SecurityLevel))))
        apps.append(dataclasses.replace(app, modules=modules))
    return make_instance(apps, nodes=nodes)


@st.composite
def packing_layout(draw):
    """The packing_search layout: random fog positions and ranges."""
    return generate_instance(ScenarioConfig(
        n_fog=draw(st.integers(2, 6)), n_apps=draw(st.integers(1, 4)),
        max_qos=draw(st.sampled_from([1.5, 3.0])), seed=draw(st.integers(0, 2**32 - 1)),
        fog_positions=None, tx_ranges=None))


# The whole 3-module chain overflows the fog node, so chains are fit one by one.
OVERFLOW = make_instance([make_app(n=3, proc=1.0)],
                         nodes=(make_cloud(), make_fog("f0", (500.0, 500.0), proc_capacity=2.5)))
# Equal prices and no traffic between modules: all 3**3 chains tie.
TIES = dict(proc_cost=0.02, stor_cost=0.02, sensor_bw_cost=5.0, user_bw_cost=5.0)
ALL_TIES = make_instance([make_app(n=3, inter=(0.0, 0.0))],
                         nodes=(make_cloud(**TIES), make_fog("f0", (50.0, 500.0), **TIES),
                                make_fog("f1", (500.0, 500.0), **TIES)))


class TestChains:
    @settings(max_examples=80, deadline=None)
    @given(inst=chain_instances())
    @example(inst=OVERFLOW)
    # A single module that fits nowhere: an empty candidate list.
    @example(inst=make_instance([make_app(n=1, proc=8.0)],
                                nodes=(make_cloud(proc_capacity=5.0),
                                       make_fog("f0", (500.0, 500.0), proc_capacity=5.0))))
    def test_matches_plain_scan(self, inst):
        for relax in (Relaxations(), Relaxations(drop_qos=True), Relaxations(drop_security=True)):
            prob = _Problem(inst, relax)
            for i in range(len(inst.apps)):
                assert prob.app_combos[i] == reference_chains(prob, i, relax), (i, relax)

    @settings(max_examples=80, deadline=None)
    @given(inst=st.one_of(chain_instances(), packing_layout()))
    @example(inst=OVERFLOW)
    @example(inst=ALL_TIES)
    def test_cheapest_is_the_first_chain(self, inst):
        # Bit for bit: the cost float and the combo of the list's first chain.
        def bits(chain):
            return None if chain is None else (chain[0].hex(), chain[1])

        for relax in (Relaxations(), Relaxations(drop_qos=True), Relaxations(drop_security=True)):
            prob = _Problem(inst, relax)
            assert ([bits(step.cheapest) for step in prob.steps]
                    == [bits(combos[0] if combos else None) for combos in prob.app_combos]), relax


class TestBruteforce:
    def test_enumerates_all_27_assignments(self, tiny_instance):
        report = solve_bruteforce(tiny_instance, RELAX_ALL)
        assert report.search_stats.nodes_explored == 27

    def test_refuses_oversized_instances(self):
        apps = [make_app(f"a{i}") for i in range(5)]  # 15 modules > 12
        inst = make_instance(apps)
        with pytest.raises(ValueError, match="too large"):
            solve_bruteforce(inst)

    def test_qos_below_exec_floor_is_infeasible(self):
        # Execution delay alone exceeds the threshold on every node.
        inst = make_instance([make_app(qos=0.25, exec_delay=0.1)])
        assert solve_bruteforce(inst).status is SolveStatus.INFEASIBLE
        assert solve_exact(inst).status is SolveStatus.INFEASIBLE


def reference_greedy(inst, relax):
    """Placement and chain count of a plain greedy scan: each app's chains in
    lexicographic node order, keeping the strictly cheapest that fits."""
    prob = _Problem(inst, relax)
    used = {k: [0.0, 0.0, 0.0] for k in range(prob.n_nodes)}
    caps = list(zip(prob.proc_cap, prob.mem_cap, prob.stor_cap))
    assign, explored = {}, 0
    for i, app in enumerate(inst.apps):
        positions = prob.app_positions[i]
        best = None
        for combo in itertools.product(*(pos.candidates for pos in positions)):
            cost, delay, loads = 0.0, app.exec_total + prob.sensor_delay[combo[0]], {}
            for j, (pos, k) in enumerate(zip(positions, combo)):
                cost += pos.static_cost[k]
                if j:
                    cost += pos.inbound * prob.inst.links.bw_cost[combo[j - 1]][k]
                    delay += prob.inst.links.delay[combo[j - 1]][k]
                load = loads.setdefault(k, [0.0, 0.0, 0.0])
                for r, demand in enumerate((pos.proc, pos.mem, pos.stor)):
                    load[r] += demand
            delay += prob.user_delay[combo[-1]]
            if any(load[r] > caps[k][r] + FEAS_TOL for k, load in loads.items() for r in range(3)):
                continue
            if not relax.drop_qos and delay > app.qos_threshold + FEAS_TOL:
                continue
            explored += 1
            fits = all(used[k][r] + load[r] <= caps[k][r] + FEAS_TOL
                       for k, load in loads.items() for r in range(3))
            if fits and (best is None or cost < best[0]):
                best = (cost, combo, loads)
        if best is None:
            return None, explored
        for k, load in best[2].items():
            for r in range(3):
                used[k][r] += load[r]
        assign[app.id] = tuple(prob.node_ids[k] for k in best[1])
    return Placement(assign), explored


class TestGreedy:
    def test_matches_reference_scan(self):
        for seed in range(20):
            cfg = tiny_cfg(seed, max_qos=1.5 if seed % 2 else 3.0)
            if seed % 5 == 3:
                cfg = dataclasses.replace(cfg, fog_proc_capacity=2.0, cloud_proc_capacity=3.0)
            inst = generate_instance(cfg)
            for relax in (Relaxations(), Relaxations(drop_security=True), RELAX_ALL):
                placement, explored = reference_greedy(inst, relax)
                g = solve_greedy(inst, relax)
                assert g.placement == placement, (seed, relax)
                assert g.search_stats.nodes_explored == explored, (seed, relax)

    def test_single_app_matches_exact(self, tiny_instance):
        g = solve_greedy(tiny_instance)
        e = solve_exact(tiny_instance)
        assert g.status is SolveStatus.FEASIBLE
        assert g.cost.total == pytest.approx(e.cost.total, rel=1e-12)

    def test_never_beats_exact(self):
        for seed in range(10):
            inst = generate_instance(tiny_cfg(seed))
            g = solve_greedy(inst)
            e = solve_exact(inst)
            if g.status is SolveStatus.FEASIBLE and e.status is SolveStatus.OPTIMAL:
                assert g.cost.total >= e.cost.total - 1e-12

    def test_greedy_solution_is_feasible(self):
        for seed in range(10):
            inst = generate_instance(tiny_cfg(seed))
            g = solve_greedy(inst)
            if g.status is SolveStatus.FEASIBLE:
                assert check_feasibility(inst, g.placement) == []

    def test_fails_where_exact_succeeds(self):
        # The high-rated fog only fits one app.  app1 (low requirement) finds
        # it cheapest and takes it; app2 (high requirement) then has nowhere
        # to go.  The exact solver routes app1 to the cloud instead.
        fog = make_fog("f_hi", (500.0, 500.0), proc_capacity=3.5,
                       proc_cost=0.001, stor_cost=0.001)
        inst = make_instance(
            [make_app("a1", security=SecurityLevel.LOW, qos=50.0),
             make_app("a2", security=SecurityLevel.HIGH, qos=50.0)],
            nodes=(make_cloud(), fog))
        g = solve_greedy(inst)
        e = solve_exact(inst)
        assert g.status is SolveStatus.HEURISTIC_FAILED
        assert e.status is SolveStatus.OPTIMAL
