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

Preprocessing groups the module slots per app (``app_positions[i]``; the
search walks their flattening) and lists each app's standalone-feasible
chains once, sorted by cost: the first gives the app's standalone minimum
for the bound, and the greedy incumbent takes each app's first chain that
still fits, so greedy and exact share one pass.  The list grows as a prefix
tree, one position at a time, and a partial chain whose delay already
exceeds the app's limit is dropped with its whole subtree
(resource-constrained labelling).  ``time_limit`` bounds preprocessing and
search alike; the enumeration reads the clock every 4096 chain extensions.

An app's slots and chains form its domain; it holds no app index and no
threshold.  Preprocessing and greedy run app by app, each app a ``_Step``
joined onto the step of the apps before it: its slots (each holding the
app's ``min_cost`` sum from it to the last), its chains within its delay
limit, the flattened positions with their limits, and greedy's incumbent
after it (node loads, the five cost sums of ``ilp._add_app_cost``,
placement items, each app's delays) or the mark that greedy failed.  No
step depends on a later app or changes once built; each solve computes the
completion bound, the only cross-app suffix quantity, afresh.  A library
call enumerates its domains pruned at each app's limit and keeps nothing.
A sweep keeps, per seed, each domain keyed by all of the app but its
threshold, with every chain unpruned and its final delay and the chains
within each limit met (a chain's delay never falls as it grows, so that
filter gives the pruned list, float for float), and per relaxation a trie
of steps, a step's children keyed by their app's identity.  A solve walks
down the trie as far as its apps go and joins the steps it adds once all
are built.  The report is greedy's when the search finds nothing cheaper; a
cheaper assignment is costed by the same per-app step.

The enumeration and the search extend a chain onto host ``k`` by one rule.
The position picks ``base, t, bw``: ``(exec_total, sensor_delay, zeros)`` on
an app's first module, else the chain's delay so far and the predecessor
host's link rows.  Then ``delay = base + t[k] + user[k]``, with ``user`` the
user-attachment row on the last module and zeros elsewhere, must not exceed
the app's limit, and the step costs ``static[k] + inbound * bw[k]``.
Every value is finite and nonnegative, so the zero rows add exactly nothing.

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

from .ilp import (FEAS_TOL, CostBreakdown, Relaxations, _add_app_cost, _comm_delay, _hosting_costs,
                  check_feasibility, eval_cost, eval_delay)
from .model import Application, Instance, Placement

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


@dataclass(slots=True)
class _Position:
    """One module slot of an app's chain; ``root`` and ``user`` carry the
    chain-extension rule of the module notes."""

    proc: float
    mem: float
    stor: float
    static_cost: list[float]  # per node index, link costs excluded
    inbound: float  # Gb arriving from the predecessor module (the sensor for the first)
    candidates: list[int]  # node indices, search order
    min_cost: float  # cheapest static cost over the candidates
    root: tuple[float, list[float], list[float]] | None  # (exec_total, sensor_delay, zeros) if first
    user: list[float]  # user_delay on the last module, zeros elsewhere
    intra: float = 0.0  # the min_cost sum from this slot to the app's last


@dataclass(slots=True)
class _Step:
    """One app joined onto the step of the apps before it; a relaxation's
    root step has no app (see the module notes).  Only ``children``
    (``id(app)`` -> step) changes once a step is built, and a child holds its
    app, so that id stays valid.  No step refers to its parent.  ``used`` is
    None once greedy found no chain that fits for some app; ``sums`` are the
    five cost terms in ``CostBreakdown``'s field order."""

    app: Application | None
    group: list[_Position]  # the app's slots
    combos: list[tuple[float, tuple[int, ...]]]  # its chains within its limit, cheapest first
    positions: tuple[_Position, ...]  # every slot so far, flattened
    qos_limits: tuple[float, ...]  # per position, its app's delay limit
    used: tuple[tuple[float, ...], ...] | None  # greedy's per-node (proc, mem, stor) loads
    sums: tuple[float, ...]
    items: tuple[tuple[tuple[str, int], str], ...]  # greedy's ((app id, j), node id)
    delays: tuple[tuple[str, tuple[float, float]], ...]  # greedy's (app id, (comm, exec))
    tried: int  # chains greedy tried
    children: dict[int, _Step] = field(default_factory=dict)


class _Problem:
    """Dense arrays, per-app chain lists, bounds and the greedy incumbent
    shared by the solvers.

    Raises ``TimeoutError`` when ``deadline`` (a ``time.monotonic()`` value)
    passes during the per-app enumeration.  ``domains``, a dict the caller
    owns, keeps the node arrays, each app's domain and each relaxation's
    trie of steps (see the module notes) for later builds on the same
    infrastructure; a build that times out adds no domain or step to it.
    ``last`` is the step of all the apps.
    """

    def __init__(self, inst: Instance, relax: Relaxations, deadline: float | None = None,
                 domains: dict | None = None):
        self.inst = inst
        self.deadline = deadline
        self.extensions_seen = 0
        infra = (inst.nodes, inst.links, inst.farm)  # the farm fixes the ratings
        nodes = domains.get("nodes") if domains else None
        if nodes is not None and nodes[0] != infra:
            nodes = domains = None  # another infrastructure's memo
        built: dict = {}
        if nodes is None:  # the node arrays, in node order
            nodes = built["nodes"] = (infra, *([getattr(n, name) for n in inst.nodes] for name in (
                "id", "proc_capacity", "mem_capacity", "stor_capacity", "sensor_delay", "user_delay")))
        (_infra, self.node_ids, self.proc_cap, self.mem_cap, self.stor_cap,
         self.sensor_delay, self.user_delay) = nodes
        self.n_nodes = len(self.node_ids)
        ratings = None if relax.drop_security else [inst.ratings[node_id] for node_id in self.node_ids]

        # Down the trie as far as the stored steps go, then new steps.
        key = (relax.drop_qos, relax.drop_security)
        path = [domains.get(key) if domains else None]
        if path[0] is None:
            idle = (0.0,) * self.n_nodes
            path[0] = built[key] = _Step(None, [], [], (), (), (idle,) * 3, (0.0,) * 5, (), (), 0)
        for app in inst.apps:
            step = path[-1].children.get(id(app))
            if step is None:
                break
            path.append(step)
        stored = len(path)
        for app in inst.apps[stored - 1:]:
            path.append(self.extend(path[-1], app, relax, ratings, domains, built))
        if domains is not None:  # only a completed build joins the memo
            domains.update(built)
            for parent, step in zip(path[stored - 1:], path[stored:]):
                parent.children[id(step.app)] = step
        self.last = path[-1]
        self.positions, self.qos_limits = self.last.positions, self.last.qos_limits
        self.app_positions = [step.group for step in path[1:]]
        self.app_combos = [step.combos for step in path[1:]]

        # tail_bound[m]: lower bound on the cost of placing positions m.. end,
        # combining the per-module minima of the current app's remaining
        # modules with the standalone minima of every later app.
        self.tail_bound = [0.0] * (len(self.positions) + 1)
        if all(self.app_combos):
            m = len(self.positions)
            later = 0.0  # the standalone minima of the apps after app i
            for group, combos in zip(reversed(self.app_positions), reversed(self.app_combos)):
                for pos in reversed(group):
                    m -= 1
                    self.tail_bound[m] = pos.intra + later
                later += combos[0][0]
                # At an app boundary the whole-chain standalone minimum
                # (link costs included) is valid and at least as tight.
                self.tail_bound[m] = max(self.tail_bound[m], later)

    def extend(self, prev: _Step, app: Application, relax: Relaxations, ratings: list | None,
               domains: dict | None, built: dict) -> _Step:
        """``app``'s step after ``prev``: its domain, from ``domains`` or
        built into ``built``, and greedy's choice for it."""
        limit = float("inf") if relax.drop_qos else app.qos_threshold + FEAS_TOL
        shared = None if domains is None else (  # all of the app but its id and threshold
            app.modules, app.input_traffic, app.inter_traffic, app.output_traffic,
            app.security_req, relax.drop_security)
        domain = domains.get(shared) if domains else None
        if domain is None:
            group = self.app_slots(app, ratings)
            domain = built[shared] = (group, self.app_chains(
                group, limit if shared is None else float("inf")), {})
        group, chains, by_limit = domain
        combos = by_limit.get(limit)
        if combos is None:
            combos = by_limit[limit] = [(cost, combo) for cost, delay, combo in chains if delay <= limit]

        # Greedy: the cheapest chain that fits the capacity earlier apps left.
        used, sums, items, delays, tried = prev.used, prev.sums, prev.items, prev.delays, prev.tried
        if used is not None:
            tried += len(combos)
            chosen = next((combo for _cost, combo in combos if self.fits(group, combo, used)), None)
            if chosen is None:
                used = None
            else:
                proc, mem, stor = (list(load) for load in used)
                for pos, k in zip(group, chosen):
                    proc[k] += pos.proc
                    mem[k] += pos.mem
                    stor[k] += pos.stor
                used = (tuple(proc), tuple(mem), tuple(stor))
                sums, items, delays = self.add_app(app, chosen, sums, items, delays)
        return _Step(app, group, combos, prev.positions + tuple(group),
                     prev.qos_limits + (limit,) * len(group), used, sums, items, delays, tried)

    def add_app(self, app: Application, hosts: tuple[int, ...], sums: tuple[float, ...],
                items: tuple, delays: tuple) -> tuple[tuple, tuple, tuple]:
        """A costing's sums, placement items and delays with ``app``'s
        modules added on node indices ``hosts``."""
        return (_add_app_cost(self.inst, sums, app, hosts),
                items + tuple(((app.id, j), self.node_ids[k]) for j, k in enumerate(hosts)),
                delays + ((app.id, (_comm_delay(self.inst, hosts), app.exec_total)),))

    def report(self, status: SolveStatus, relax: Relaxations, stats: SearchStats,
               assignment: list[int] | None = None) -> SolveReport:
        """The report of node indices ``assignment``, by default greedy's,
        costed app by app as greedy's is."""
        sums, items, delays = self.last.sums, self.last.items, self.last.delays
        if assignment is not None:
            sums, items, delays, m = (0.0,) * 5, (), (), 0
            for app, group in zip(self.inst.apps, self.app_positions):
                hosts = tuple(assignment[m:m + len(group)])
                sums, items, delays = self.add_app(app, hosts, sums, items, delays)
                m += len(group)
        return SolveReport(status=status, relax=relax, placement=Placement(dict(items)),
                           cost=CostBreakdown(*sums), per_app_delay=dict(delays), search_stats=stats)

    def app_slots(self, app: Application, ratings: list | None) -> list[_Position]:
        """An app's module slots; ``ratings`` None admits every node."""
        allowed = (range(self.n_nodes) if ratings is None
                   else [k for k, r in enumerate(ratings) if r >= app.security_req])
        zeros = [0.0] * self.n_nodes
        group = []
        for j, mod in enumerate(app.modules):
            fits = [k for k in allowed
                    if mod.proc_req <= self.proc_cap[k] + FEAS_TOL
                    and mod.mem_req <= self.mem_cap[k] + FEAS_TOL
                    and mod.stor_req <= self.stor_cap[k] + FEAS_TOL]
            static = _hosting_costs(app, j, self.inst.nodes)
            group.append(_Position(
                proc=mod.proc_req, mem=mod.mem_req, stor=mod.stor_req, static_cost=static,
                inbound=(app.input_traffic if j == 0 else app.inter_traffic[j - 1]),
                candidates=fits, min_cost=min((static[k] for k in fits), default=float("inf")),
                root=(app.exec_total, self.sensor_delay, zeros) if j == 0 else None,
                user=self.user_delay if j == app.n_modules - 1 else zeros,
            ))
        intra = 0.0
        for pos in reversed(group):
            intra += pos.min_cost
            pos.intra = intra
        return group

    def app_chains(self, positions: list[_Position],
                   limit: float) -> list[tuple[float, float, tuple[int, ...]]]:
        """One app's standalone-feasible chains as (cost, delay, node tuple),
        cheapest first, ties in lexicographic node order, from its module
        slots.  Capacity is checked against the app's own demands only,
        security follows the relaxation, and no chain's delay exceeds
        ``limit``."""
        t_rows, bw_rows = self.inst.links.delay, self.inst.links.bw_cost
        chains = [(0.0, 0.0, ())]  # (cost, delay, combo); the first module's root sets the delay
        for pos in positions:
            static, inbound, cands, user = pos.static_cost, pos.inbound, pos.candidates, pos.user
            grown = []
            for cost, delay, combo in chains:
                self.extensions_seen += len(cands)  # read the clock on passing a multiple of 4096
                if (self.deadline is not None and self.extensions_seen % 4096 < len(cands)
                        and time.monotonic() > self.deadline):
                    raise TimeoutError
                base, t, bw = pos.root or (delay, t_rows[combo[-1]], bw_rows[combo[-1]])
                grown += [(cost + static[k] + inbound * bw[k], d, combo + (k,)) for k in cands
                          if (d := base + t[k] + user[k]) <= limit]
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
        if check_cap:
            chains = [chain for chain in chains if self.fits(positions, chain[2], idle)]
        chains.sort(key=itemgetter(0))  # stable: ties keep the lexicographic build order
        return chains

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


def _finish_report(inst: Instance, relax: Relaxations, status: SolveStatus,
                   placement: Placement | None, stats: SearchStats) -> SolveReport:
    if placement is None:
        return SolveReport(status=status, relax=relax, search_stats=stats)
    delays = {a.id: eval_delay(inst, placement, a) for a in inst.apps}
    return SolveReport(status=status, relax=relax, placement=placement,
                       cost=eval_cost(inst, placement), per_app_delay=delays, search_stats=stats)


def solve_exact(inst: Instance, relax: Relaxations = Relaxations(),
                opts: SolveOptions = SolveOptions(), _domains: dict | None = None) -> SolveReport:
    """Minimum-cost feasible placement via branch-and-bound, or Infeasible.

    Deterministic: modules are branched in (app, chain) order and nodes tried
    in input order, so identical inputs produce identical reports.  The time
    limit covers preprocessing and search; hitting it returns the best
    incumbent found (if any) with status TIME_LIMIT.  ``_domains`` is the
    sweep's per-seed memo of ``_Problem``'s node arrays, per-app domains and
    step tries.
    """
    deadline = None if opts.time_limit is None else time.monotonic() + opts.time_limit
    stats = SearchStats()
    try:
        prob = _Problem(inst, relax, deadline, _domains)
    except TimeoutError:
        return SolveReport(status=SolveStatus.TIME_LIMIT, relax=relax, search_stats=stats)

    if not all(prob.app_combos):
        return SolveReport(status=SolveStatus.INFEASIBLE, relax=relax, search_stats=stats)

    greedy = prob.last.used is not None
    best_assignment = None  # the search's, once it beats greedy
    best_cost = CostBreakdown(*prob.last.sums).total if greedy else float("inf")

    positions = prob.positions
    qos_limits = prob.qos_limits
    tail_bound = prob.tail_bound
    proc_cap, mem_cap, stor_cap = prob.proc_cap, prob.mem_cap, prob.stor_cap
    t, bw = inst.links.delay, inst.links.bw_cost
    n_pos = len(positions)

    used_proc = [0.0] * prob.n_nodes
    used_mem = [0.0] * prob.n_nodes
    used_stor = [0.0] * prob.n_nodes
    current = [0] * n_pos
    delay_at = [0.0] * n_pos  # the app's delay up to and including position m

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
        base, t_row, bw_row = pos.root or (delay_at[m - 1], t[current[m - 1]], bw[current[m - 1]])
        static, inbound, user, qos_limit = pos.static_cost, pos.inbound, pos.user, qos_limits[m]
        for k in pos.candidates:
            if (used_proc[k] + pos.proc > proc_cap[k] + FEAS_TOL
                    or used_mem[k] + pos.mem > mem_cap[k] + FEAS_TOL
                    or used_stor[k] + pos.stor > stor_cap[k] + FEAS_TOL):
                stats.pruned_capacity += 1
                continue
            delay = base + t_row[k] + user[k]
            if delay > qos_limit:
                stats.pruned_qos += 1
                continue
            child_cost = prefix_cost + (static[k] + inbound * bw_row[k])
            if child_cost + tail_bound[m + 1] >= best_cost:
                stats.pruned_bound += 1
                continue
            stats.nodes_explored += 1
            used_proc[k] += pos.proc
            used_mem[k] += pos.mem
            used_stor[k] += pos.stor
            current[m] = k
            delay_at[m] = delay
            dfs(m + 1, child_cost)
            used_proc[k] -= pos.proc
            used_mem[k] -= pos.mem
            used_stor[k] -= pos.stor

    try:
        dfs(0, 0.0)
        status = SolveStatus.OPTIMAL if greedy or best_assignment is not None else SolveStatus.INFEASIBLE
    except TimeoutError:
        status = SolveStatus.TIME_LIMIT
    del dfs  # it refers to itself through its closure cell, a cycle only the GC would free
    if not greedy and best_assignment is None:
        return SolveReport(status=status, relax=relax, search_stats=stats)
    return prob.report(status, relax, stats, best_assignment)


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
    stats = SearchStats(nodes_explored=prob.last.tried)
    if prob.last.used is None:
        return SolveReport(status=SolveStatus.HEURISTIC_FAILED, relax=relax, search_stats=stats)
    return prob.report(SolveStatus.FEASIBLE, relax, stats)
