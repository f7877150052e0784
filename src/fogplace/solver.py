"""Exact and heuristic solvers for the module placement problem.

``solve_exact`` runs a depth-first branch-and-bound over module-to-node
assignments in (app, chain-position) order.  The edge variables of the full
binary program are implied by consecutive assignments, so the search only
branches on module hosts and derives link cost and delay incrementally.

Security needs no prune: each module's candidate hosts are filtered by
rating before the search, so ``pruned_security`` is always 0 and stays
only as a fixed report and CSV column.  Pruning at a partial assignment:
  * capacity  - the chosen node cannot absorb the module's demands,
  * qos       - delay already accumulated (plus all execution delays, which
                are placement-independent) exceeds the app's threshold; an
                admissible test since future link delays are nonnegative,
  * bound     - prefix cost plus a lower bound on the cheapest completion
                reaches the incumbent.

The completion bound adds, for the current app's remaining modules, each
module's cheapest individually-feasible host cost (link costs ignored), and
for each untouched app its cheapest standalone full-chain cost including
link costs (capacity ignored).  Both parts only discard constraints, so the
bound never overestimates.

Preprocessing lists each app's standalone-feasible chains once, sorted by
cost: the first gives the app's standalone minimum for the bound, and the
greedy incumbent takes each app's first chain that still fits, so greedy and
exact share one pass.  The list grows as a prefix tree, one position at a
time, and a partial chain whose delay already exceeds the app's threshold is
dropped with its whole subtree (resource-constrained labelling).  Delay sums
in one order everywhere: execution plus sensor attachment, each link, then
the user attachment.  ``time_limit`` bounds preprocessing and search alike;
the enumeration reads the clock every 4096 chain extensions.

``solve_bruteforce`` enumerates every complete assignment and filters with
the declarative feasibility checker - the verification oracle for the
branch-and-bound.  ``solve_greedy`` places one app at a time against the
remaining capacities and never backtracks; it is the incumbent seed for the
exact search and a scalability baseline.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter

from .ilp import FEAS_TOL, CostBreakdown, Relaxations, _hosting_costs, check_feasibility, eval_cost, eval_delay
from .model import Instance, Placement

BRUTEFORCE_MAX_MODULES = 12
BRUTEFORCE_MAX_NODES = 4


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # heuristic success, optimality not claimed
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"
    HEURISTIC_FAILED = "heuristic_failed"  # greedy found nothing; not a proof


@dataclass(frozen=True)
class SolveOptions:
    time_limit: float | None = None  # seconds; None = run to completion

    def __post_init__(self) -> None:
        if self.time_limit is not None and not self.time_limit > 0:  # rejects nan too
            raise ValueError(f"time_limit must be positive, got {self.time_limit!r}")


@dataclass
class SearchStats:
    """Search counters, reported by every solver and written to sweep CSVs.
    ``pruned_security`` is always 0 (see the module notes)."""

    nodes_explored: int = 0
    pruned_bound: int = 0
    pruned_capacity: int = 0
    pruned_qos: int = 0
    pruned_security: int = 0

    def to_dict(self) -> dict[str, int]:
        return dict(vars(self))


@dataclass(frozen=True)
class SolveReport:
    status: SolveStatus
    relax: Relaxations
    placement: Placement | None = None
    cost: CostBreakdown | None = None
    per_app_delay: dict[str, tuple[float, float]] = field(default_factory=dict)
    search_stats: SearchStats = field(default_factory=SearchStats)


class _Position:
    """One module slot in the global (app, chain) branching order."""

    __slots__ = ("app_idx", "mod_idx", "is_first", "is_last", "proc", "mem", "stor",
                 "static_cost", "inbound", "candidates", "min_cost")

    def __init__(self, app_idx: int, mod_idx: int, is_first: bool, is_last: bool,
                 proc: float, mem: float, stor: float,
                 static_cost: list[float], inbound: float, candidates: list[int]):
        self.app_idx = app_idx
        self.mod_idx = mod_idx
        self.is_first = is_first
        self.is_last = is_last
        self.proc = proc
        self.mem = mem
        self.stor = stor
        self.static_cost = static_cost  # per node index, link costs excluded
        self.inbound = inbound  # Gb arriving from the predecessor module
        self.candidates = candidates  # node indices, search order
        self.min_cost = min((static_cost[k] for k in candidates), default=float("inf"))


class _Problem:
    """Dense arrays, per-app chain lists and bounds shared by the solvers.

    Raises ``TimeoutError`` when ``deadline`` (a ``time.monotonic()`` value)
    passes during the per-app enumeration.
    """

    def __init__(self, inst: Instance, relax: Relaxations, deadline: float | None = None):
        self.inst = inst
        self.relax = relax
        self.deadline = deadline
        self.extensions_seen = 0
        nodes = inst.nodes
        self.n_nodes = len(nodes)
        self.node_ids = [n.id for n in nodes]
        self.proc_cap = [n.proc_capacity for n in nodes]
        self.mem_cap = [n.mem_capacity for n in nodes]
        self.stor_cap = [n.stor_capacity for n in nodes]
        self.sensor_delay = [n.sensor_delay for n in nodes]
        self.user_delay = [n.user_delay for n in nodes]
        ratings = None if relax.drop_security else [inst.ratings[n.id] for n in nodes]

        self.positions: list[_Position] = []
        self.app_first_pos: list[int] = []
        self.qos = [a.qos_threshold for a in inst.apps]
        self.exec_total = [a.exec_total for a in inst.apps]
        for i, app in enumerate(inst.apps):
            self.app_first_pos.append(len(self.positions))
            last = app.n_modules - 1
            allowed = (range(self.n_nodes) if ratings is None
                       else [k for k, r in enumerate(ratings) if r >= app.security_req])
            for j, mod in enumerate(app.modules):
                fits = [k for k in allowed
                        if mod.proc_req <= self.proc_cap[k] + FEAS_TOL
                        and mod.mem_req <= self.mem_cap[k] + FEAS_TOL
                        and mod.stor_req <= self.stor_cap[k] + FEAS_TOL]
                self.positions.append(_Position(
                    app_idx=i, mod_idx=j, is_first=(j == 0), is_last=(j == last),
                    proc=mod.proc_req, mem=mod.mem_req, stor=mod.stor_req,
                    static_cost=_hosting_costs(app, j, nodes),
                    inbound=(app.input_traffic if j == 0 else app.inter_traffic[j - 1]),
                    candidates=fits,
                ))
        self.n_positions = len(self.positions)

        # app_combos[i]: app i's chains (``app_chains``).  Their minima
        # (capacity between apps ignored) feed the cross-app part of the
        # completion bound; ``None`` marks an app that cannot be placed even
        # alone, which proves the instance infeasible.
        self.app_combos = [self.app_chains(i) for i in range(len(inst.apps))]
        self.app_min = [combos[0][0] if combos else None for combos in self.app_combos]

        # tail_bound[m]: lower bound on the cost of placing positions m.. end,
        # combining the per-module minima of the current app's remaining
        # modules with the standalone minima of every later app.
        self.tail_bound = [0.0] * (self.n_positions + 1)
        if all(v is not None for v in self.app_min):
            app_tail = [0.0] * (len(inst.apps) + 1)
            for i in range(len(inst.apps) - 1, -1, -1):
                app_tail[i] = app_tail[i + 1] + self.app_min[i]
            intra = 0.0
            for m in range(self.n_positions - 1, -1, -1):
                pos = self.positions[m]
                app_end_here = (m + 1 == self.n_positions
                                or self.positions[m + 1].app_idx != pos.app_idx)
                intra = pos.min_cost if app_end_here else intra + pos.min_cost
                self.tail_bound[m] = intra + app_tail[pos.app_idx + 1]
                if pos.mod_idx == 0:
                    # At an app boundary the whole-chain standalone minimum
                    # (link costs included) is valid and at least as tight.
                    self.tail_bound[m] = max(self.tail_bound[m], app_tail[pos.app_idx])

    def app_chains(self, app_idx: int) -> list[tuple[float, tuple[int, ...]]]:
        """One app's standalone-feasible chains as (cost, node tuple), cheapest
        first, ties in lexicographic node order.  Capacity is checked against
        the app's own demands only; security and QoS follow the relaxations."""
        positions = self.app_positions(app_idx)
        limit = float("inf") if self.relax.drop_qos else self.qos[app_idx] + FEAS_TOL
        no_link, t_rows, bw_rows = [0.0] * self.n_nodes, self.inst.links.delay, self.inst.links.bw_cost
        # (cost, delay, combo) from an empty root, whose "link" to a host is the sensor's.
        chains = [(0.0, self.exec_total[app_idx], ())]
        for pos in positions:
            static, inbound, cands = pos.static_cost, pos.inbound, pos.candidates
            user = self.user_delay if pos.is_last else no_link
            grown = []
            for cost, delay, combo in chains:
                self.extensions_seen += len(cands)  # read the clock on passing a multiple of 4096
                if (self.deadline is not None and self.extensions_seen % 4096 < len(cands)
                        and time.monotonic() > self.deadline):
                    raise TimeoutError
                t, bw = (t_rows[combo[-1]], bw_rows[combo[-1]]) if combo else (self.sensor_delay, no_link)
                grown += [(cost + static[k] + inbound * bw[k], d, combo + (k,)) for k in cands
                          if (d := delay + t[k] + user[k]) <= limit]
            chains = grown
        # Only modules sharing a node can overload it past the candidate
        # filter, so if the whole chain fits on each candidate, all chains do.
        proc = mem = stor = 0.0  # the whole chain's demands, summed as ``fits`` sums them
        for pos in positions:
            proc, mem, stor = proc + pos.proc, mem + pos.mem, stor + pos.stor
        check_cap = any(proc > self.proc_cap[k] + FEAS_TOL or mem > self.mem_cap[k] + FEAS_TOL
                        or stor > self.stor_cap[k] + FEAS_TOL
                        for k in set().union(*(pos.candidates for pos in positions)))
        idle = ([0.0] * self.n_nodes,) * 3
        kept = [(cost, combo) for cost, _delay, combo in chains
                if not check_cap or self.fits(positions, combo, idle)]
        kept.sort(key=itemgetter(0))  # stable: ties keep the lexicographic build order
        return kept

    def fits(self, positions: list[_Position], combo: tuple[int, ...],
             used: tuple[list[float], list[float], list[float]]) -> bool:
        """Whether modules ``positions`` placed on ``combo`` fit on top of the
        per-node (proc, mem, stor) loads ``used``."""
        load: dict[int, list[float]] = {}
        for pos, k in zip(positions, combo):
            acc = load.setdefault(k, [0.0, 0.0, 0.0])
            acc[0] += pos.proc
            acc[1] += pos.mem
            acc[2] += pos.stor
        used_proc, used_mem, used_stor = used
        return not any(used_proc[k] + proc > self.proc_cap[k] + FEAS_TOL
                       or used_mem[k] + mem > self.mem_cap[k] + FEAS_TOL
                       or used_stor[k] + stor > self.stor_cap[k] + FEAS_TOL
                       for k, (proc, mem, stor) in load.items())

    def app_positions(self, app_idx: int) -> list[_Position]:
        base = self.app_first_pos[app_idx]
        return self.positions[base:base + self.inst.apps[app_idx].n_modules]

    def placement_of(self, assignment: list[int]) -> Placement:
        return Placement({(self.inst.apps[pos.app_idx].id, pos.mod_idx): self.node_ids[k]
                          for pos, k in zip(self.positions, assignment)})


def _finish_report(inst: Instance, relax: Relaxations, status: SolveStatus,
                   placement: Placement | None, stats: SearchStats,
                   cost: CostBreakdown | None = None) -> SolveReport:
    if placement is None:
        return SolveReport(status=status, relax=relax, search_stats=stats)
    delays = {a.id: eval_delay(inst, placement, a) for a in inst.apps}
    return SolveReport(status=status, relax=relax, placement=placement,
                       cost=eval_cost(inst, placement) if cost is None else cost,
                       per_app_delay=delays, search_stats=stats)


def _greedy(prob: _Problem, stats: SearchStats) -> list[int] | None:
    """Give each app in turn the cheapest of its standalone-feasible chains
    that fits the capacity earlier apps left; None when some app gets none.

    Adds every chain of each app tried to ``stats.nodes_explored``.
    """
    used = used_proc, used_mem, used_stor = tuple([0.0] * prob.n_nodes for _ in range(3))
    assignment: list[int] = []
    for i, combos in enumerate(prob.app_combos):
        stats.nodes_explored += len(combos)
        positions = prob.app_positions(i)
        chosen = next((combo for _cost, combo in combos if prob.fits(positions, combo, used)), None)
        if chosen is None:
            return None
        for pos, k in zip(positions, chosen):
            used_proc[k] += pos.proc
            used_mem[k] += pos.mem
            used_stor[k] += pos.stor
        assignment.extend(chosen)
    return assignment


def solve_exact(inst: Instance, relax: Relaxations = Relaxations(),
                opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Minimum-cost feasible placement via branch-and-bound, or Infeasible.

    Deterministic: modules are branched in (app, chain) order and nodes tried
    in input order, so identical inputs produce identical reports.  The time
    limit covers preprocessing and search; hitting it returns the best
    incumbent found (if any) with status TIME_LIMIT.
    """
    deadline = None if opts.time_limit is None else time.monotonic() + opts.time_limit
    stats = SearchStats()
    try:
        prob = _Problem(inst, relax, deadline)
    except TimeoutError:
        return _finish_report(inst, relax, SolveStatus.TIME_LIMIT, None, stats)

    if any(v is None for v in prob.app_min):
        return _finish_report(inst, relax, SolveStatus.INFEASIBLE, None, stats)

    greedy = best_assignment = _greedy(prob, SearchStats())
    greedy_placement = greedy_cost = None
    if greedy is not None:
        greedy_placement = prob.placement_of(greedy)
        greedy_cost = eval_cost(inst, greedy_placement)
    best_cost = float("inf") if greedy_cost is None else greedy_cost.total

    positions = prob.positions
    tail_bound = prob.tail_bound
    proc_cap, mem_cap, stor_cap = prob.proc_cap, prob.mem_cap, prob.stor_cap
    t, bw = inst.links.delay, inst.links.bw_cost
    sensor_delay, user_delay = prob.sensor_delay, prob.user_delay
    qos, exec_total = prob.qos, prob.exec_total
    check_qos = not relax.drop_qos
    n_pos = prob.n_positions

    used_proc = [0.0] * prob.n_nodes
    used_mem = [0.0] * prob.n_nodes
    used_stor = [0.0] * prob.n_nodes
    current = [0] * n_pos
    app_delay = [0.0] * len(inst.apps)

    def dfs(m: int, prefix_cost: float) -> None:
        nonlocal best_cost, best_assignment
        if m == n_pos:
            if prefix_cost < best_cost:
                best_cost = prefix_cost
                best_assignment = current.copy()
            return
        if (deadline is not None and stats.nodes_explored % 4096 == 0
                and time.monotonic() > deadline):
            raise TimeoutError
        pos = positions[m]
        a = pos.app_idx
        prev = current[m - 1] if not pos.is_first else -1
        saved_delay = app_delay[a]
        for k in pos.candidates:
            if (used_proc[k] + pos.proc > proc_cap[k] + FEAS_TOL
                    or used_mem[k] + pos.mem > mem_cap[k] + FEAS_TOL
                    or used_stor[k] + pos.stor > stor_cap[k] + FEAS_TOL):
                stats.pruned_capacity += 1
                continue
            if pos.is_first:
                delay = exec_total[a] + sensor_delay[k]
                step_cost = pos.static_cost[k]
            else:
                delay = saved_delay + t[prev][k]
                step_cost = pos.static_cost[k] + pos.inbound * bw[prev][k]
            if pos.is_last:
                delay += user_delay[k]
            if check_qos and delay > qos[a] + FEAS_TOL:
                stats.pruned_qos += 1
                continue
            child_cost = prefix_cost + step_cost
            if child_cost + tail_bound[m + 1] >= best_cost:
                stats.pruned_bound += 1
                continue
            stats.nodes_explored += 1
            used_proc[k] += pos.proc
            used_mem[k] += pos.mem
            used_stor[k] += pos.stor
            current[m] = k
            app_delay[a] = delay
            dfs(m + 1, child_cost)
            used_proc[k] -= pos.proc
            used_mem[k] -= pos.mem
            used_stor[k] -= pos.stor
        app_delay[a] = saved_delay

    try:
        dfs(0, 0.0)
        status = SolveStatus.INFEASIBLE if best_assignment is None else SolveStatus.OPTIMAL
    except TimeoutError:
        status = SolveStatus.TIME_LIMIT
    if best_assignment is greedy:  # none, or nothing cheaper: greedy's costing stands
        return _finish_report(inst, relax, status, greedy_placement, stats, greedy_cost)
    return _finish_report(inst, relax, status, prob.placement_of(best_assignment), stats)


def solve_bruteforce(inst: Instance, relax: Relaxations = Relaxations()) -> SolveReport:
    """Exhaustive oracle: enumerate every assignment, filter, keep the cheapest.

    Ties are broken by lexicographic assignment order (earlier node indices
    win).  Refuses instances beyond the enumeration bound of
    12 total modules / 4 nodes.
    """
    total_modules = inst.total_modules
    if total_modules > BRUTEFORCE_MAX_MODULES or len(inst.nodes) > BRUTEFORCE_MAX_NODES:
        raise ValueError(
            f"instance too large for brute force: {total_modules} modules on "
            f"{len(inst.nodes)} nodes (limit {BRUTEFORCE_MAX_MODULES} modules, "
            f"{BRUTEFORCE_MAX_NODES} nodes)")
    keys = [(a.id, j) for a in inst.apps for j in range(a.n_modules)]
    node_ids = [n.id for n in inst.nodes]
    stats = SearchStats()
    best_cost = float("inf")
    best_placement: Placement | None = None
    for combo in itertools.product(node_ids, repeat=total_modules):
        stats.nodes_explored += 1
        placement = Placement(dict(zip(keys, combo)))
        if check_feasibility(inst, placement, relax):
            continue
        cost = eval_cost(inst, placement).total
        if cost < best_cost:
            best_cost = cost
            best_placement = placement
    if best_placement is None:
        return _finish_report(inst, relax, SolveStatus.INFEASIBLE, None, stats)
    return _finish_report(inst, relax, SolveStatus.OPTIMAL, best_placement, stats)


def solve_greedy(inst: Instance, relax: Relaxations = Relaxations()) -> SolveReport:
    """Place apps one at a time, each on its cheapest assignment that fits the
    capacity left by earlier apps; no backtracking across apps.

    Returns FEASIBLE on success (never claims optimality) and
    HEURISTIC_FAILED when some app cannot be placed - which, unlike
    INFEASIBLE from the exact solver, is not a proof.
    """
    prob = _Problem(inst, relax)
    stats = SearchStats()
    assignment = _greedy(prob, stats)
    if assignment is None:
        return SolveReport(status=SolveStatus.HEURISTIC_FAILED, relax=relax, search_stats=stats)
    return _finish_report(inst, relax, SolveStatus.FEASIBLE, prob.placement_of(assignment), stats)
