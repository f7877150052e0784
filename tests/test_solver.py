import dataclasses
import hashlib
import itertools
import json
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from fogplace import solver
from fogplace.experiment import preset_grid, run_sweep, to_csv
from fogplace.ilp import FEAS_TOL, Relaxations, check_feasibility, eval_cost
from fogplace.instance_io import report_to_dict
from fogplace.model import AppModule, SecurityLevel
from fogplace.scenario import ScenarioConfig, generate_instance
from fogplace.solver import (
    SolveOptions,
    SolveStatus,
    _Problem,
    solve_bruteforce,
    solve_exact,
    solve_greedy,
)

from conftest import make_app, make_cloud, make_fog, make_instance

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

    def test_no_apps_is_trivially_optimal(self):
        report = solve_exact(make_instance([]))
        assert report.status is SolveStatus.OPTIMAL
        assert report.placement.assign == {} and report.cost.total == 0.0

    def test_invalid_options_rejected(self):
        for limit in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                SolveOptions(time_limit=limit)

    def test_time_limit_covers_preprocessing(self):
        # Two 6-module chains on 8 nodes: 8**6 chains per app to enumerate,
        # far more than 0.1 s of preprocessing.
        nodes = (make_cloud(), *(make_fog(f"f{i}", (100.0 * i + 150.0, 500.0)) for i in range(7)))
        inst = make_instance([make_app("a1", n=6, qos=50.0), make_app("a2", n=6, qos=50.0)],
                             nodes=nodes)
        start = time.monotonic()
        report = solve_exact(inst, opts=SolveOptions(time_limit=0.1))
        assert time.monotonic() - start < 1.0
        assert report.status is SolveStatus.TIME_LIMIT
        assert report.placement is None

    def test_costs_the_incumbent_once(self, monkeypatch):
        # When the search finds nothing cheaper than greedy, greedy's costing
        # is the report's: one eval_cost call per solve.
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
                assert len(calls) == 1
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
                assignment = [node_pos[report.placement.assign[(inst.apps[p.app_idx].id, p.mod_idx)]]
                              for p in prob.positions]
                step = []
                for m, (pos, k) in enumerate(zip(prob.positions, assignment)):
                    cost = pos.static_cost[k]
                    if not pos.is_first:
                        cost += pos.inbound * prob.inst.links.bw_cost[assignment[m - 1]][k]
                    step.append(cost)
                suffix = 0.0
                for m in range(len(step) - 1, -1, -1):
                    suffix += step[m]
                    assert suffix >= prob.tail_bound[m] - 1e-9

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
                        digest.update(repr((prob.app_combos, prob.tail_bound)).encode())
        assert digest.hexdigest() == (
            "75aa6b301f0288164e70b0b0c6e401adebfb86968b4fdcafd5f02f2cf7af65cc")

    def test_root_bound_tie_keeps_search_small(self):
        # packing_search's f6_n20_q1.5_s909: tail_bound[0] equals the optimum
        # to within one ulp.  A bound change that moved the sums by one ulp
        # once took this solve from 161 nodes to 7.4M.
        inst = generate_instance(ScenarioConfig(n_fog=6, n_apps=20, max_qos=1.5, seed=909,
                                                fog_positions=None, tx_ranges=None))
        report = solve_exact(inst, opts=SolveOptions(time_limit=5.0))
        assert report.status is SolveStatus.OPTIMAL
        assert report.search_stats.nodes_explored <= 161


def reference_chains(prob, app_idx, relax):
    """One app's (cost, combo) list by a plain scan of every host tuple:
    ``fits`` for capacity, delay summed in the search's order."""
    app = prob.inst.apps[app_idx]
    positions = prob.app_positions(app_idx)
    idle = ([0.0] * prob.n_nodes,) * 3
    chains = []
    for combo in itertools.product(*(pos.candidates for pos in positions)):
        cost, delay = 0.0, app.exec_total + prob.sensor_delay[combo[0]]
        for j, (pos, k) in enumerate(zip(positions, combo)):
            cost += pos.static_cost[k]
            if j:
                cost += pos.inbound * prob.inst.links.bw_cost[combo[j - 1]][k]
                delay += prob.inst.links.delay[combo[j - 1]][k]
        delay += prob.user_delay[combo[-1]]
        if prob.fits(positions, combo, idle) and (
                relax.drop_qos or delay <= app.qos_threshold + FEAS_TOL):
            chains.append((cost, combo))
    return sorted(chains)


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


class TestChains:
    @settings(max_examples=80, deadline=None)
    @given(inst=chain_instances())
    # The whole 3-module chain overflows the fog node, so chains are fit one by one.
    @example(inst=make_instance([make_app(n=3, proc=1.0)],
                                nodes=(make_cloud(), make_fog("f0", (500.0, 500.0), proc_capacity=2.5))))
    # A single module that fits nowhere: an empty candidate list.
    @example(inst=make_instance([make_app(n=1, proc=8.0)],
                                nodes=(make_cloud(proc_capacity=5.0),
                                       make_fog("f0", (500.0, 500.0), proc_capacity=5.0))))
    def test_matches_plain_scan(self, inst):
        for relax in (Relaxations(), Relaxations(drop_qos=True), Relaxations(drop_security=True)):
            prob = _Problem(inst, relax)
            for i in range(len(inst.apps)):
                assert prob.app_combos[i] == reference_chains(prob, i, relax), (i, relax)


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
    assignment, explored = [], 0
    for i, app in enumerate(inst.apps):
        positions = prob.positions[prob.app_first_pos[i]:][:app.n_modules]
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
        assignment.extend(best[1])
    return prob.placement_of(assignment), explored


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
