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

An app's slots and chains form its domain.  It holds no app index and no
threshold: the app's delay limit is applied as the app joins a prefix
(below), and the search reads it per position.  A library call builds
every domain afresh and enumerates it pruned at the app's limit.  A sweep
keeps each domain across the cells of one seed, keyed by all of the app
but its threshold, with every chain unpruned and its final delay; each
cell keeps the chains within its limit.  A chain's delay never falls as it grows, so
that filter gives the pruned list: the same floats in the same order.

Preprocessing and greedy run app by app into a ``_Prefix``: each app's
slots (each holding the app's ``min_cost`` sum from it to the last), its
chains within its limit and their minimum, the flattened positions with
their limits, and greedy's incumbent after the app (node indices,
per-node loads, the five cost sums of ``ilp._add_app_cost``, each app's
delays and the placement items) or the mark that greedy failed.  None of
it depends on a later app.  The completion bound is the only cross-app
suffix quantity; each solve computes it afresh.  A library call extends
one state in place and keeps nothing.  A sweep keeps the state of every
app prefix it builds, keyed by the relaxation and the identity of each
app in order, and a solve extends the longest stored prefix of its apps.
When the search finds nothing cheaper than greedy, the report is greedy's
state; a cheaper assignment is costed by the same per-app step.

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
class _Prefix:
    """Preprocessing and greedy over a run of apps, extended one app at a
    time; nothing here depends on a later app (see the module notes).
    Greedy's ``assignment`` is None once some app found no chain that fits;
    ``sums`` are the five cost terms in ``CostBreakdown``'s field order."""

    app_positions: list[list[_Position]] = field(default_factory=list)
    app_combos: list[list[tuple[float, tuple[int, ...]]]] = field(default_factory=list)
    app_min: list[float | None] = field(default_factory=list)  # None: unplaceable even alone
    positions: list[_Position] = field(default_factory=list)
    qos_limits: list[float] = field(default_factory=list)  # per position, its app's delay limit
    assignment: list[int] | None = field(default_factory=list)  # node indices
    sums: tuple[float, ...] = (0.0,) * 5
    delays: dict[str, tuple[float, float]] = field(default_factory=dict)  # app id -> (comm, exec)
    items: list[tuple[tuple[str, int], str]] = field(default_factory=list)  # ((app id, j), node id)
    used: tuple[list[float], ...] = ()  # greedy's per-node (proc, mem, stor) loads
    tried: int = 0  # chains greedy tried

    def copy(self) -> _Prefix:
        return _Prefix(self.app_positions.copy(), self.app_combos.copy(), self.app_min.copy(),
                       self.positions.copy(), self.qos_limits.copy(),
                       None if self.assignment is None else self.assignment.copy(), self.sums,
                       self.delays.copy(), self.items.copy(), tuple(load.copy() for load in self.used),
                       self.tried)

    def place(self, inst: Instance, node_ids: list[str], app: Application, hosts: tuple[int, ...]) -> None:
        """Add ``app``'s modules on node indices ``hosts`` to the assignment and its costing."""
        self.assignment += hosts
        self.sums = _add_app_cost(inst, self.sums, app, hosts)
        self.delays[app.id] = (_comm_delay(inst, hosts), app.exec_total)
        self.items += [((app.id, j), node_ids[k]) for j, k in enumerate(hosts)]

    def report(self, status: SolveStatus, relax: Relaxations, stats: SearchStats) -> SolveReport:
        return SolveReport(status=status, relax=relax, placement=Placement(dict(self.items)),
                           cost=CostBreakdown(*self.sums), per_app_delay=dict(self.delays),
                           search_stats=stats)


class _Problem:
    """Dense arrays, per-app chain lists, bounds and the greedy incumbent
    shared by the solvers.

    Raises ``TimeoutError`` when ``deadline`` (a ``time.monotonic()`` value)
    passes during the per-app enumeration.  ``domains``, a dict the caller
    owns, keeps the node arrays, each app's domain, each app object's chains
    within its limit and each app prefix's state (see the module notes) for
    later builds on the same infrastructure; a build that times out adds
    nothing to it.
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

        # The longest stored prefix of the apps, extended by the rest.
        key, start = (relax.drop_qos, relax.drop_security), 0
        for app in inst.apps if domains else ():
            longer = key + (id(app),)
            if longer not in domains:
                break
            key, start = longer, start + 1
        state = domains[key] if start else _Prefix(used=tuple([0.0] * self.n_nodes for _ in range(3)))
        for app in inst.apps[start:]:
            if domains is not None:  # a stored state stays as it is
                state = state.copy()
            self.extend(state, app, relax, ratings, domains, built)
            if domains is not None:
                key += (id(app),)
                built[key] = state
        if domains is not None:  # only a completed build adds to the memo
            domains.update(built)
        self.prefix = state
        self.app_positions, self.app_combos, self.app_min = state.app_positions, state.app_combos, state.app_min
        self.positions, self.qos_limits = state.positions, state.qos_limits

        # tail_bound[m]: lower bound on the cost of placing positions m.. end,
        # combining the per-module minima of the current app's remaining
        # modules with the standalone minima of every later app.
        self.tail_bound = [0.0] * (len(self.positions) + 1)
        if all(v is not None for v in self.app_min):
            m = len(self.positions)
            later = 0.0  # the standalone minima of the apps after app i
            for i in range(len(self.app_positions) - 1, -1, -1):
                for pos in reversed(self.app_positions[i]):
                    m -= 1
                    self.tail_bound[m] = pos.intra + later
                later += self.app_min[i]
                # At an app boundary the whole-chain standalone minimum
                # (link costs included) is valid and at least as tight.
                self.tail_bound[m] = max(self.tail_bound[m], later)

    def extend(self, state: _Prefix, app: Application, relax: Relaxations, ratings: list | None,
               domains: dict | None, built: dict) -> None:
        """Add ``app`` to ``state``: its domain, from ``domains`` or built
        into ``built``, and greedy's choice for it."""
        limit = float("inf") if relax.drop_qos else app.qos_threshold + FEAS_TOL
        key = (id(app), relax.drop_qos, relax.drop_security)  # the entry keeps the app alive
        entry = domains.get(key) if domains else None
        if entry is None:
            # All of the app but its id and threshold, hashed once per app object.
            shared = None if domains is None else (
                app.modules, app.input_traffic, app.inter_traffic, app.output_traffic,
                app.security_req, relax.drop_security)
            domain = domains.get(shared) if domains else None
            if domain is None:
                group = self.app_slots(app, ratings)
                domain = built[shared] = (group, self.app_chains(
                    group, limit if shared is None else float("inf")))
            entry = built[key] = (app, domain[0], [(cost, combo) for cost, delay, combo in domain[1]
                                                   if delay <= limit])
        _app, group, combos = entry
        state.app_positions.append(group)
        state.app_combos.append(combos)
        state.app_min.append(combos[0][0] if combos else None)
        state.positions += group
        state.qos_limits += [limit] * len(group)

        # Greedy: the cheapest chain that fits the capacity earlier apps left.
        if state.assignment is None:
            return
        state.tried += len(combos)
        chosen = next((combo for _cost, combo in combos if self.fits(group, combo, state.used)), None)
        if chosen is None:
            state.assignment = None
            return
        used_proc, used_mem, used_stor = state.used
        for pos, k in zip(group, chosen):
            used_proc[k] += pos.proc
            used_mem[k] += pos.mem
            used_stor[k] += pos.stor
        state.place(self.inst, self.node_ids, app, chosen)

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

    def costed(self, assignment: list[int]) -> _Prefix:
        """``assignment`` placed and costed app by app, as greedy's own is."""
        out, m = _Prefix(), 0
        for app, group in zip(self.inst.apps, self.app_positions):
            out.place(self.inst, self.node_ids, app, tuple(assignment[m:m + len(group)]))
            m += len(group)
        return out


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
    app-prefix states.
    """
    deadline = None if opts.time_limit is None else time.monotonic() + opts.time_limit
    stats = SearchStats()
    try:
        prob = _Problem(inst, relax, deadline, _domains)
    except TimeoutError:
        return SolveReport(status=SolveStatus.TIME_LIMIT, relax=relax, search_stats=stats)

    if any(v is None for v in prob.app_min):
        return SolveReport(status=SolveStatus.INFEASIBLE, relax=relax, search_stats=stats)

    greedy = prob.prefix
    best_assignment = greedy.assignment
    best_cost = float("inf") if best_assignment is None else CostBreakdown(*greedy.sums).total

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
        status = SolveStatus.INFEASIBLE if best_assignment is None else SolveStatus.OPTIMAL
    except TimeoutError:
        status = SolveStatus.TIME_LIMIT
    if best_assignment is None:
        return SolveReport(status=status, relax=relax, search_stats=stats)
    if best_assignment is not greedy.assignment:  # the search found something cheaper
        greedy = prob.costed(best_assignment)
    return greedy.report(status, relax, stats)


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
    stats = SearchStats(nodes_explored=prob.prefix.tried)
    if prob.prefix.assignment is None:
        return SolveReport(status=SolveStatus.HEURISTIC_FAILED, relax=relax, search_stats=stats)
    return prob.prefix.report(SolveStatus.FEASIBLE, relax, stats)
