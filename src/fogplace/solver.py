"""Exact and heuristic solvers for the module placement problem.

``solve_exact`` decides a timed solve (``time_limit`` set) by the root
proofs below, the last of them a chain-level branch and bound.  An untimed
solve runs the module DFS: a depth-first branch-and-bound over
module-to-node assignments in (app, chain-position) order.  The edge
variables of the full binary program are implied by consecutive
assignments, so both searches only branch on module hosts and derive link
cost and delay incrementally.

Security needs no prune: each module's candidate hosts are filtered by
rating before the search, so ``pruned_security`` is always 0 and stays
only as a fixed report and CSV column.  The module DFS prunes at a partial
assignment on:
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

Preprocessing finds each app's cheapest standalone-feasible chain
(``app_cheapest``): its cost is the app's standalone minimum for the bound,
and greedy takes it when it fits.  The app's chain list (``app_chains``) is
built on first read: by greedy when the cheapest chain does not fit (greedy
then takes the list's first chain that still fits, so greedy and exact
share one pass), by proof (2) or by the chain search.  The list grows as a
prefix tree, one position at a time, and a partial chain whose delay already
exceeds the app's limit is dropped with its whole subtree
(resource-constrained labelling).  ``time_limit`` bounds preprocessing and
search alike: both enumerations and the chain search count their work on
one counter, which reads the clock every 4096 chain extensions or chains
scanned.

An app's slots and chains form its domain; it holds no app index and no
threshold.  Preprocessing and greedy run app by app, each app a ``_Step``
joined onto the step of the apps before it.  A step holds its own app's
domain (its slots, each holding the sum of its app's cheapest host costs
from it to the last, its delay limit, its cheapest chain and its chain list
within that limit) and greedy's incumbent after it (node loads, the five
cost sums of ``ilp._add_app_cost``, each app's host chain and delays) or
the mark that greedy failed.  It holds no slot or limit of an earlier app:
the module DFS flattens the slots and takes each slot's limit from its app's
step.  No step depends on a later app or changes once built, but for a
library build's chain list, filled in on first read; each solve computes the
completion bound, the only cross-app suffix quantity, afresh.  A library
call searches each domain's cheapest chain pruned at the app's limit, lists
its chains only when read, and keeps nothing.  A sweep keeps, per seed, each
domain keyed by all of the app but its threshold, with every chain unpruned
and its final delay and the chains within each limit met (a chain's delay
never falls as it grows, so that filter gives the pruned list, float for
float, and its first chain is the cheapest), and per relaxation a trie of
steps, a step's children keyed by their app's identity.  A solve walks down
the trie as far as its apps go and joins each step it adds as soon as it is
built, so every entry that a build stores is complete.  The report is
greedy's when the search finds nothing cheaper; a cheaper assignment is
costed by the same per-app step.

The enumerations and the module DFS extend a chain onto host ``k`` by one
rule.  The position picks ``base, t, bw``: ``(exec_total, sensor_delay,
zeros)`` on an app's first module, else the chain's delay so far and the
predecessor host's link rows.  Then ``delay = base + t[k] + user[k]``, with
``user`` the user-attachment row on the last module and zeros elsewhere,
must not exceed the app's limit, and the step costs ``static[k] + inbound *
bw[k]``.  Every value is finite and nonnegative, so the zero rows add
exactly nothing.  One step, ``place``, puts a whole chain on the node loads,
adding its demands in chain order as ``check_feasibility`` does; greedy and
the chain search carry the loads it tested, the enumerations' capacity
filters read only its verdict, and only the module DFS loads module by module.

A timed solve runs three root proofs after preprocessing, each reading the
clock as it goes, (1) and (2) with counters of 0.  (1) Greedy's cost is at
the root bound, the completion bound of the whole instance, to 1e-9
relative: optimal.  (2) Greedy found nothing, and the modules that QoS and
security confine to some union S of per-position host supports need more
proc, mem or stor than S holds (a Hall-type condition, P. Hall 1935):
infeasible.  The unions can number 2**n_nodes, so (2) builds them mask by
mask and stops past ``MAX_UNIONS``, which every instance of up to 10 nodes
stays within; each S it tries is still a proof.  (3) The chain search
(``chain_search``), a complete branch and bound over the apps' chain lists.
So "optimal" means optimal to 1e-9 relative, and a timed placement can
differ from the untimed solve's, but only for one whose cost agrees to that
tolerance (an exact-cost tie, on every instance measured).  ``solve_exact``
forks once, after the build: a timed solve runs the proofs and builds none
of the module DFS's state (its flattened slots, per-slot limits and bounds,
load lists and closure); an untimed one runs ``module_dfs``, reads no clock
and skips the proofs, since the answer digests pin its search counters.
Either search leaves a cheaper assignment in ``_Problem.incumbent``, and a
timeout, in the build or the proofs, reports it, or greedy's when it is
None.

``solve_bruteforce`` checks and costs every complete assignment with the
declarative ``check_feasibility`` and ``eval_cost``, sharing no search code:
it is the verification oracle for both searches.  ``solve_greedy`` is the
exact solver's incumbent seed and a scalability baseline.
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
MAX_UNIONS = 1024  # root proof (2) stops adding node sets past this many


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
        limit = self.time_limit
        number = isinstance(limit, float) or (isinstance(limit, int) and not isinstance(limit, bool)
                                              and limit < 2 ** 1023)  # else the deadline overflows
        if limit is not None and not (number and limit > 0):  # rejects nan too
            raise ValueError(f"time_limit must be a positive number in the float range, got {limit!r}")


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
    root: tuple[float, list[float], list[float]] | None  # (exec_total, sensor_delay, zeros) if first
    user: list[float]  # user_delay on the last module, zeros elsewhere
    intra: float = 0.0  # the sum of the cheapest static costs from this slot to the app's last


@dataclass(slots=True)
class _Step:
    """One app's domain and greedy's incumbent after it, joined onto the step
    of the apps before it; it holds no slot or limit of theirs.  A
    relaxation's root step has no app (see the module notes).  Once a step
    is built only ``children`` (``id(app)`` -> step) changes, and ``combos``
    of a library build, which is None until first read; a child holds its
    app, so that id stays valid.  No step refers to its parent.  ``used`` is
    None once greedy found no chain that fits for some app; ``sums`` are the
    five cost terms in ``CostBreakdown``'s field order."""

    app: Application | None
    group: list[_Position]  # the app's slots
    limit: float  # its delay limit
    cheapest: tuple[float, tuple[int, ...]] | None  # its cheapest chain within the limit, if any
    combos: list[tuple[float, tuple[int, ...]]] | None  # all of them, cheapest first; see ``chains``
    used: tuple[tuple[float, ...], ...] | None  # greedy's per-node (proc, mem, stor) loads
    sums: tuple[float, ...]
    items: tuple[tuple[str, tuple[str, ...]], ...]  # greedy's (app id, its chain's node ids)
    delays: tuple[tuple[str, tuple[float, float]], ...]  # greedy's (app id, (comm, exec))
    children: dict[int, _Step] = field(default_factory=dict)


class _Problem:
    """Dense arrays, per-app cheapest chains and chain lists, bounds and the
    greedy incumbent shared by the solvers.

    Raises ``TimeoutError`` when ``deadline`` (a ``time.monotonic()`` value)
    passes while it searches or lists an app's chains, in the build or when
    a list is first read (``chains``), or in the root proofs; every loop
    reads the clock through ``check_clock``.  ``domains``, a dict the caller
    owns, keeps the node arrays, each app's domain and each relaxation's
    trie of steps (see the module notes) for later builds on the same
    infrastructure; every entry that a build stores is complete.  ``steps``
    holds one step per app and ``last`` the step of all the apps;
    ``incumbent`` is the search's best assignment, None for greedy's.
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
        if nodes is None:  # the node arrays, in node order
            nodes = (infra, *([getattr(n, name) for n in inst.nodes] for name in (
                "id", "proc_capacity", "mem_capacity", "stor_capacity", "sensor_delay", "user_delay")))
        if domains is not None:
            domains["nodes"] = nodes
        (_infra, self.node_ids, self.proc_cap, self.mem_cap, self.stor_cap,
         self.sensor_delay, self.user_delay) = nodes
        self.n_nodes = len(self.node_ids)
        self.idle = ((0.0,) * self.n_nodes,) * 3  # per-node (proc, mem, stor) loads before any app
        ratings = None if relax.drop_security else [inst.ratings[node_id] for node_id in self.node_ids]

        # Down the trie as far as the stored steps go, then new steps.
        key = (relax.drop_qos, relax.drop_security)
        root = _Step(None, [], float("inf"), None, [], self.idle, (0.0,) * 5, (), ())
        path = [root if domains is None else domains.setdefault(key, root)]
        for app in inst.apps:
            step = path[-1].children.get(id(app))
            if step is None:
                break
            path.append(step)
        for app in inst.apps[len(path) - 1:]:
            path.append(self.extend(path[-1], app, relax, ratings, domains))
            path[-2].children[id(app)] = path[-1]
        self.last = path[-1]
        self.steps = path[1:]
        self.app_positions = [step.group for step in self.steps]
        self.placeable = all(step.cheapest is not None for step in self.steps)
        self.incumbent: list[int] | None = None  # node indices

    def tail_bound(self) -> list[float]:
        """Per flattened slot, a lower bound on the cost of placing it and
        every later slot, then 0.0; all zeros unless the build is placeable.
        It combines the per-module minima of the slot's app from that slot
        on with the standalone minima of every later app."""
        if not self.placeable:
            return [0.0] * (sum(map(len, self.app_positions)) + 1)
        bound = [0.0]  # built from the last slot back
        later = 0.0  # the standalone minima of the apps after this one
        for step in reversed(self.steps):
            bound += [pos.intra + later for pos in reversed(step.group)]
            later += step.cheapest[0]
            # At an app boundary the whole-chain standalone minimum
            # (link costs included) is valid and at least as tight.
            bound[-1] = max(bound[-1], later)
        bound.reverse()
        return bound

    @property
    def app_combos(self) -> list[list[tuple[float, tuple[int, ...]]]]:
        """Every app's chain list (see ``chains``)."""
        return [self.chains(step) for step in self.steps]

    def chains(self, step: _Step) -> list[tuple[float, tuple[int, ...]]]:
        """``step``'s app's chains within its limit as (cost, combo),
        cheapest first; a library build lists them on first read."""
        if step.combos is None:
            step.combos = [(cost, combo) for cost, _delay, combo in self.app_chains(step.group, step.limit)]
        return step.combos

    def extend(self, prev: _Step, app: Application, relax: Relaxations, ratings: list | None,
               domains: dict | None) -> _Step:
        """``app``'s step after ``prev``: its domain, from ``domains`` or
        built and stored there, and greedy's choice for it."""
        limit = float("inf") if relax.drop_qos else app.qos_threshold + FEAS_TOL
        if domains is None:  # a library build: the cheapest chain now, the list on first read
            group = self.app_slots(app, ratings)
            cheapest = self.app_cheapest(group, limit)
            combos = None if cheapest is not None else []
        else:
            shared = (app.modules, app.input_traffic, app.inter_traffic, app.output_traffic,
                      app.security_req, relax.drop_security)  # all of the app but its id and threshold
            domain = domains.get(shared)
            if domain is None:
                group = self.app_slots(app, ratings)
                domain = domains[shared] = (group, self.app_chains(group, float("inf")), {})
            group, chains, by_limit = domain
            combos = by_limit.get(limit)
            if combos is None:
                combos = by_limit[limit] = [(cost, combo) for cost, delay, combo in chains if delay <= limit]
            cheapest = combos[0] if combos else None
        step = _Step(app, group, limit, cheapest, combos, prev.used, prev.sums, prev.items, prev.delays)

        # Greedy: the cheapest chain that fits the capacity earlier apps
        # left; the list is read only when the app's cheapest does not fit,
        # and then from its second chain, since the first is the cheapest.
        if step.used is not None:
            chosen = None if cheapest is None else cheapest[1]
            used = None if chosen is None else self.place(group, chosen, step.used)
            if used is None:
                for _cost, chosen in itertools.islice(self.chains(step), 1, None):
                    if (used := self.place(group, chosen, step.used)) is not None:
                        break
            step.used = used
            if used is not None:
                step.sums, step.items, step.delays = self.add_app(app, chosen, step.sums, step.items,
                                                                  step.delays)
        return step

    def add_app(self, app: Application, hosts: tuple[int, ...], sums: tuple[float, ...],
                items: tuple, delays: tuple) -> tuple[tuple, tuple, tuple]:
        """A costing's sums, placement items and delays with ``app``'s
        chain added on node indices ``hosts``."""
        return (_add_app_cost(self.inst, sums, app, hosts),
                items + ((app.id, tuple(self.node_ids[k] for k in hosts)),),
                delays + ((app.id, (_comm_delay(self.inst, hosts), app.exec_total)),))

    def report(self, status: SolveStatus, relax: Relaxations, stats: SearchStats) -> SolveReport:
        """The report of the search's incumbent, or greedy's if it found
        none, costed app by app as greedy's is."""
        sums, items, delays = self.last.sums, self.last.items, self.last.delays
        if self.incumbent is not None:
            sums, items, delays = self.costing(self.incumbent)
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
                proc=mod.proc_req, mem=mod.mem_req, stor=mod.stor_req, static_cost=static, candidates=fits,
                inbound=(app.input_traffic if j == 0 else app.inter_traffic[j - 1]),
                root=(app.exec_total, self.sensor_delay, zeros) if j == 0 else None,
                user=self.user_delay if j == app.n_modules - 1 else zeros,
            ))
        intra = 0.0
        for pos in reversed(group):
            intra += min((pos.static_cost[k] for k in pos.candidates), default=float("inf"))
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
                self.count_extensions(len(cands))
                base, t, bw = pos.root or (delay, t_rows[combo[-1]], bw_rows[combo[-1]])
                grown += [(cost + static[k] + inbound * bw[k], d, combo + (k,)) for k in cands
                          if (d := base + t[k] + user[k]) <= limit]
            chains = grown
        if self.may_overflow(positions):
            chains = [chain for chain in chains if self.place(positions, chain[2], self.idle) is not None]
        chains.sort(key=itemgetter(0))  # stable: ties keep the lexicographic build order
        return chains

    def app_cheapest(self, positions: list[_Position],
                     limit: float) -> tuple[float, tuple[int, ...]] | None:
        """The first chain of ``app_chains(positions, limit)`` as (cost,
        combo), or None if it lists none, by a depth-first search in
        lexicographic node order with ``app_chains``' extension rule and
        float sums.  A partial chain is dropped once its cost plus the later
        slots' cheapest host costs exceeds the cheapest chain found by more
        than 1e-9 relative, a slack for the bound's other summation order; ties
        keep the first chain found."""
        t_rows, bw_rows = self.inst.links.delay, self.inst.links.bw_cost
        n = len(positions)
        after = [pos.intra for pos in positions[1:]] + [0.0]  # per slot, the later slots' cheapest host costs
        check_cap = self.may_overflow(positions)
        best, best_cost, cut = None, float("inf"), float("inf")  # cut: best_cost plus the slack
        stack = [(0.0, 0.0, ())]  # (cost, delay, combo), a loop so that no closure cycle is left
        while stack:
            cost, delay, combo = stack.pop()
            j = len(combo)
            if j == n:
                if cost < best_cost and (not check_cap
                                         or self.place(positions, combo, self.idle) is not None):
                    best, best_cost, cut = (cost, combo), cost, cost + 1e-9 * max(1.0, cost)
                continue
            pos = positions[j]
            if cost + pos.intra > cut:  # the cut fell since this chain was pushed
                continue
            static, inbound, cands, user = pos.static_cost, pos.inbound, pos.candidates, pos.user
            rest = after[j]
            self.count_extensions(len(cands))
            base, t, bw = pos.root or (delay, t_rows[combo[-1]], bw_rows[combo[-1]])
            grown = [(c, d, combo + (k,)) for k in cands
                     if (d := base + t[k] + user[k]) <= limit
                     and (c := cost + static[k] + inbound * bw[k]) + rest <= cut]
            grown.reverse()  # popped in lexicographic order
            stack += grown
        return best

    def may_overflow(self, positions: list[_Position]) -> bool:
        """Whether some chain of modules ``positions`` can overload a node
        on its own.  Only modules sharing a node can overload it past the
        candidate filter, so if the whole chain fits on each candidate, all
        chains do."""
        proc = mem = stor = 0.0  # the whole chain's demands, added in chain order as ``place`` adds them
        for pos in positions:
            proc, mem, stor = proc + pos.proc, mem + pos.mem, stor + pos.stor
        return any(proc > self.proc_cap[k] + FEAS_TOL or mem > self.mem_cap[k] + FEAS_TOL
                   or stor > self.stor_cap[k] + FEAS_TOL
                   for k in set().union(*(pos.candidates for pos in positions)))

    def count_extensions(self, n: int) -> None:
        """Counts ``n`` chain extensions or scanned chains; on passing a
        multiple of 4096, reads the clock if there is a deadline."""
        self.extensions_seen += n
        if self.deadline is not None and self.extensions_seen % 4096 < n:
            self.check_clock()

    def check_clock(self) -> None:
        """Raises ``TimeoutError`` if the deadline has passed."""
        if time.monotonic() > self.deadline:
            raise TimeoutError

    def place(self, positions: list[_Position], combo: tuple[int, ...],
              used: tuple[tuple[float, ...], ...]) -> tuple[tuple[float, ...], ...] | None:
        """The per-node (proc, mem, stor) loads ``used`` with modules
        ``positions`` added on ``combo`` in chain order, or None if a node of
        ``combo`` then exceeds its capacity by more than ``FEAS_TOL``."""
        proc, mem, stor = (list(load) for load in used)
        for pos, k in zip(positions, combo):
            proc[k] += pos.proc
            mem[k] += pos.mem
            stor[k] += pos.stor
        if any(proc[k] > self.proc_cap[k] + FEAS_TOL or mem[k] > self.mem_cap[k] + FEAS_TOL
               or stor[k] > self.stor_cap[k] + FEAS_TOL for k in combo):
            return None
        return tuple(proc), tuple(mem), tuple(stor)

    def costing(self, assignment: list[int]) -> tuple[tuple, tuple, tuple]:
        """The sums, placement items (one chain per app) and delays of node
        indices ``assignment``, sliced into each app's chain and costed app by
        app as greedy's are."""
        sums, items, delays, m = (0.0,) * 5, (), (), 0
        for app, group in zip(self.inst.apps, self.app_positions):
            sums, items, delays = self.add_app(app, tuple(assignment[m:m + len(group)]),
                                               sums, items, delays)
            m += len(group)
        return sums, items, delays

    def root_proofs(self, greedy_cost: float, stats: SearchStats) -> SolveStatus:
        """The root proofs (1)-(3) of the module notes, for a build with a
        ``deadline``; the chain search leaves any cheaper assignment in
        ``incumbent``.  Raises ``TimeoutError`` once ``deadline`` passes."""
        self.check_clock()  # (1) greedy at the root bound
        if self.last.used is not None and greedy_cost <= self.tail_bound()[0] + 1e-9 * max(1.0, greedy_cost):
            return SolveStatus.OPTIMAL
        if self.last.used is None:  # (2) confined capacity
            demand: dict[int, list[float]] = {}  # support bit mask -> summed (proc, mem, stor)
            for group, combos in zip(self.app_positions, self.app_combos):
                self.check_clock()
                for j, pos in enumerate(group):
                    acc = demand.setdefault(sum(1 << k for k in {combo[j] for _c, combo in combos}),
                                            [0.0, 0.0, 0.0])
                    acc[0] += pos.proc
                    acc[1] += pos.mem
                    acc[2] += pos.stor
            unions = {0}  # at most twice MAX_UNIONS: any S is a sound proof, but not all are tried
            for mask in demand:
                self.check_clock()
                unions |= {union | mask for union in unions}
                if len(unions) > MAX_UNIONS:
                    break
            for union in unions:
                self.check_clock()
                inside = [k for k in range(self.n_nodes) if union >> k & 1]
                confined = [need for mask, need in demand.items() if not mask & ~union]
                if any(sum(need[r] for need in confined) > sum(cap[k] + FEAS_TOL for k in inside)
                       for r, cap in enumerate((self.proc_cap, self.mem_cap, self.stor_cap))):
                    return SolveStatus.INFEASIBLE
        return self.chain_search(greedy_cost, stats)

    def chain_search(self, incumbent: float, stats: SearchStats) -> SolveStatus:
        """Root proof (3): a complete branch and bound (Land & Doig 1960)
        over each app's chain list, apps in fail-first order, fewest chains
        first (Haralick & Elliott 1980), each list scanned cheapest first, so
        that its first band is the plateau of every app's cheapest chains.  A
        scan stops at the first chain whose cost, with the prefix and the
        later apps' minima, is within 1e-9 relative of the best cost found
        (``incumbent``, greedy's, to begin with); capacity is checked chain by
        chain.  Counts one node per app placed, one bound prune per scan it
        cuts and one capacity prune per chain that does not fit, and each
        scan's chains on ``count_extensions``.  Stores each better assignment
        in ``incumbent`` and returns OPTIMAL or INFEASIBLE; raises
        ``TimeoutError`` once ``deadline`` passes."""
        combos = self.app_combos
        order = sorted(range(len(combos)), key=lambda i: len(combos[i]))
        rest = [0.0] * (len(order) + 1)  # rest[d]: the minima of the apps from depth d on
        for d in reversed(range(len(order))):
            rest[d] = combos[order[d]][0][0] + rest[d + 1]
        best_cost = incumbent
        cut = float("inf") if incumbent == float("inf") else incumbent - 1e-9 * max(1.0, incumbent)
        hosts: list[tuple[int, ...]] = [()] * len(order)  # in app order
        stack = [(0, 0.0, self.idle)]  # per depth: next chain, prefix cost, loads
        while stack:  # a loop, not a recursive closure, so that no cycle is left for the GC
            d = len(stack) - 1
            start, prefix, used = stack[-1]
            i = order[d]
            chains, group = combos[i], self.app_positions[i]
            index, placed = start, None  # index: one past the last chain scanned
            while placed is None and index < len(chains):
                cost, combo = chains[index]
                index += 1
                if prefix + cost + rest[d + 1] >= cut:  # and so every later chain in the list
                    stats.pruned_bound += 1
                    break
                if (placed := self.place(group, combo, used)) is None:
                    stats.pruned_capacity += 1
            self.count_extensions(index - start)
            if placed is None:
                stack.pop()
                continue
            stats.nodes_explored += 1
            stack[-1] = (index, prefix, used)
            hosts[i] = combo
            if len(stack) < len(order):
                stack.append((0, prefix + cost, placed))
            else:
                self.incumbent = [k for chain in hosts for k in chain]
                best_cost = CostBreakdown(*self.costing(self.incumbent)[0]).total
                cut = best_cost - 1e-9 * max(1.0, best_cost)
        return SolveStatus.OPTIMAL if best_cost < float("inf") else SolveStatus.INFEASIBLE

    def module_dfs(self, incumbent: float, stats: SearchStats) -> SolveStatus:
        """The module DFS of the module notes, for an untimed build; leaves
        its result as ``chain_search`` does."""
        positions = [pos for group in self.app_positions for pos in group]
        limits = [step.limit for step in self.steps for _pos in step.group]  # per slot, its app's limit
        tail_bound = self.tail_bound()
        proc_cap, mem_cap, stor_cap = self.proc_cap, self.mem_cap, self.stor_cap
        t, bw = self.inst.links.delay, self.inst.links.bw_cost
        n_pos = len(positions)
        best_cost = incumbent

        used_proc = [0.0] * self.n_nodes
        used_mem = [0.0] * self.n_nodes
        used_stor = [0.0] * self.n_nodes
        current = [0] * n_pos
        delay_at = [0.0] * n_pos  # the app's delay up to and including position m

        def dfs(m: int, prefix_cost: float) -> None:
            nonlocal best_cost
            if m == n_pos:
                if prefix_cost < best_cost:
                    best_cost = prefix_cost
                    self.incumbent = current.copy()
                return
            pos = positions[m]
            base, t_row, bw_row = pos.root or (delay_at[m - 1], t[current[m - 1]], bw[current[m - 1]])
            static, inbound, user, qos_limit = pos.static_cost, pos.inbound, pos.user, limits[m]
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

        dfs(0, 0.0)
        del dfs  # it refers to itself through its closure cell, a cycle only the GC would free
        return SolveStatus.OPTIMAL if best_cost < float("inf") else SolveStatus.INFEASIBLE


def solve_exact(inst: Instance, relax: Relaxations = Relaxations(),
                opts: SolveOptions = SolveOptions(), _domains: dict | None = None) -> SolveReport:
    """Minimum-cost feasible placement via branch-and-bound, or Infeasible.

    Deterministic: apps, chains and nodes are tried in fixed orders, so
    identical inputs produce identical reports.  Preprocessing builds one
    step per app, its domain and greedy's incumbent after it, finding the
    app's cheapest chain first and listing its chains only when read.  A
    timed solve runs the root proofs of the module notes, the last a
    complete chain-level branch and bound, so a timed OPTIMAL is optimal to
    1e-9 relative, and builds none of the module DFS's state; an untimed
    one runs the module DFS and reads no clock.  The time limit covers
    preprocessing and search; hitting it returns the best incumbent found
    (if any) with status TIME_LIMIT.  ``_domains`` is the sweep's per-seed
    memo of ``_Problem``'s node arrays, per-app domains and step tries.
    """
    deadline = None if opts.time_limit is None else time.monotonic() + opts.time_limit
    stats = SearchStats()
    prob: _Problem | None = None
    try:
        prob = _Problem(inst, relax, deadline, _domains)
        if not prob.placeable:
            return SolveReport(status=SolveStatus.INFEASIBLE, relax=relax, search_stats=stats)
        greedy_cost = CostBreakdown(*prob.last.sums).total if prob.last.used is not None else float("inf")
        # The root proofs decide every timed solve; the module DFS runs untimed
        # ones, whose search counters the answer digests pin.
        search = prob.module_dfs if deadline is None else prob.root_proofs
        status = search(greedy_cost, stats)
    except TimeoutError:  # in the build or the root proofs
        status = SolveStatus.TIME_LIMIT
    if prob is None or (prob.last.used is None and prob.incumbent is None):
        return SolveReport(status=status, relax=relax, search_stats=stats)
    return prob.report(status, relax, stats)


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
    ends = itertools.accumulate(a.n_modules for a in inst.apps)
    spans = [(a.id, end - a.n_modules, end) for a, end in zip(inst.apps, ends)]
    node_ids = [n.id for n in inst.nodes]
    stats = SearchStats()
    best_cost = float("inf")
    best_placement: Placement | None = None
    for combo in itertools.product(node_ids, repeat=total_modules):
        stats.nodes_explored += 1
        placement = Placement({app_id: combo[start:end] for app_id, start, end in spans})
        if check_feasibility(inst, placement, relax):
            continue
        cost = eval_cost(inst, placement).total
        if cost < best_cost:
            best_cost = cost
            best_placement = placement
    if best_placement is None:
        return SolveReport(status=SolveStatus.INFEASIBLE, relax=relax, search_stats=stats)
    delays = {a.id: eval_delay(inst, best_placement, a) for a in inst.apps}
    return SolveReport(status=SolveStatus.OPTIMAL, relax=relax, placement=best_placement,
                       cost=eval_cost(inst, best_placement), per_app_delay=delays, search_stats=stats)


def solve_greedy(inst: Instance, relax: Relaxations = Relaxations()) -> SolveReport:
    """Place apps one at a time, each on its cheapest assignment that fits the
    capacity left by earlier apps; no backtracking across apps.

    Returns FEASIBLE on success (never claims optimality) and
    HEURISTIC_FAILED when some app cannot be placed - which, unlike
    INFEASIBLE from the exact solver, is not a proof.
    """
    prob = _Problem(inst, relax)
    stats = SearchStats()
    for step in prob.steps:  # every app greedy tried, through the first it could not place
        stats.nodes_explored += len(prob.chains(step))
        if step.used is None:
            break
    if prob.last.used is None:
        return SolveReport(status=SolveStatus.HEURISTIC_FAILED, relax=relax, search_stats=stats)
    return prob.report(SolveStatus.FEASIBLE, relax, stats)
