"""Binary program for the placement problem: variables, objective, constraints.

Decision variables are x (module on node) and z (internal chain edge on an
ordered physical node pair).  The quadratic coupling z = x_pred * x_succ is
linearized into three inequalities that are exact at binary points.

``build_model`` lists each index set once: (app, module), (app, edge) and
the ordered node pairs.  Each objective part and constraint family is one
pass over them, and drops zero coefficients the same way.

Constraint rows carry stable family tags, which name the LP rows.
Feasibility reports (``check_feasibility``) carry eq2-eq4, eq7, eq8 and eq9;
a placement stores only each app's host chain, so eq11-eq14 hold for it
by construction and name LP rows only:

    eq2/eq3/eq4   per-node processing / memory / storage capacity
    eq7           per-application end-to-end delay bound
    eq8           per-module minimum security rating
    eq9           each module placed on exactly one node
    eq11..eq13    edge-to-endpoint coupling (product linearization)
    eq14          each internal edge mapped to exactly one node pair

Capacity and delay bounds are non-strict: boundary-tight placements are
feasible.  All evaluation helpers here are pure.  The feasibility checks
are independent of the solver's incremental bookkeeping, so they double as
its checking oracle, and compare with the solver's limits (capacity or
threshold + ``FEAS_TOL``, delays summed by ``_app_delay``); the per-app
cost and delay steps are the ones the solver costs its reports with, so a
report equals ``eval_cost`` and ``eval_delay`` of its placement bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .model import Application, Instance, Placement, ResourceNode, placement_is_consistent

# A constraint holds while its side is at most bound + FEAS_TOL, the one float
# that solver pruning and the checking oracle both compare with.  Costs tie
# to REL_TOL relative: x beats y only below y - REL_TOL * max(1.0, y).
FEAS_TOL = 1e-9
REL_TOL = 1e-9


@dataclass(frozen=True)
class Relaxations:
    """Which constraint families to drop from the model."""

    drop_qos: bool = False
    drop_security: bool = False

    @property
    def tag(self) -> str:
        if self.drop_qos and self.drop_security:
            return "noqos"
        if self.drop_security:
            return "nosec"
        if self.drop_qos:
            return "noqosonly"
        return "full"


@dataclass(frozen=True)
class CostBreakdown:
    """The five objective components, in currency units."""

    processing: float
    storage: float
    sensor_comm: float
    inter_comm: float
    user_comm: float

    @property
    def total(self) -> float:
        return self.processing + self.storage + self.sensor_comm + self.inter_comm + self.user_comm

    def to_dict(self) -> dict[str, float]:
        """The five components in field order, then ``total``."""
        return {**vars(self), "total": self.total}


@dataclass(frozen=True)
class LinRow:
    """One linear constraint: coeffs . vars  (sense)  rhs."""

    name: str
    tag: str
    coeffs: dict[str, float]
    sense: str  # "<=", ">=" or "="
    rhs: float


@dataclass(frozen=True)
class IlpModel:
    variables: tuple[str, ...]
    objective: dict[str, float]  # nonzero coefficients only
    constraints: tuple[LinRow, ...]

    def rows_tagged(self, tag: str) -> list[LinRow]:
        return [r for r in self.constraints if r.tag == tag]


@dataclass(frozen=True)
class Violation:
    """A violated constraint row; slack is the positive violation magnitude."""

    tag: str
    indices: tuple
    slack: float
    detail: str


_CAPACITY = (("eq2", "proc_req", "proc_capacity"),
             ("eq3", "mem_req", "mem_capacity"),
             ("eq4", "stor_req", "stor_capacity"))


def _hosting_costs(app: Application, j: int, nodes: tuple[ResourceNode, ...]) -> list[float]:
    """Module j's objective coefficient on each node, link costs excluded."""
    mod, last = app.modules[j], app.n_modules - 1
    row = []
    for node in nodes:
        c = mod.exec_delay * node.proc_cost + mod.stor_req * node.stor_cost
        if j == 0:
            c += app.input_traffic * node.sensor_bw_cost
        if j == last:
            c += app.output_traffic * node.user_bw_cost
        row.append(c)
    return row


def x_name(i: int, j: int, k: int) -> str:
    return f"x_{i}_{j}_{k}"


def z_name(i: int, j: int, u: int, v: int) -> str:
    return f"z_{i}_{j}_{u}_{v}"


def build_model(inst: Instance, relax: Relaxations = Relaxations()) -> IlpModel:
    """Construct the full binary program for an instance.

    Variable and row order is deterministic: apps in input order, modules
    ascending, nodes in input order.  Raises ValueError if the security
    constraint is active while some node cannot be rated (``Instance.ratings``).
    """
    nodes, links = inst.nodes, inst.links
    ks = range(len(nodes))
    pairs = [(u, v) for u in ks for v in ks]
    mods = [(i, j, app, mod) for i, app in enumerate(inst.apps) for j, mod in enumerate(app.modules)]
    edges = [(i, j, app) for i, app in enumerate(inst.apps) for j in range(app.n_modules - 1)]

    def nonzero(terms) -> dict[str, float]:
        return {name: coeff for name, coeff in terms if coeff != 0.0}

    variables = [x_name(i, j, k) for i, j, _, _ in mods for k in ks]
    variables += [z_name(i, j, u, v) for i, j, _ in edges for u, v in pairs]
    objective = nonzero([(x_name(i, j, k), c) for i, j, app, _ in mods
                         for k, c in enumerate(_hosting_costs(app, j, nodes))]
                        + [(z_name(i, j, u, v), app.inter_traffic[j] * links.bw_cost[u][v])
                           for i, j, app in edges for u, v in pairs])

    rows = [LinRow(f"{tag}_node{k}", tag, nonzero((x_name(i, j, k), getattr(mod, req))
                                                  for i, j, _, mod in mods), "<=", getattr(node, cap))
            for tag, req, cap in _CAPACITY for k, node in enumerate(nodes)]

    if not relax.drop_qos:
        for i, app in enumerate(inst.apps):
            # Sensor delay on the first module, user delay on the last, then the
            # module's own, added in that order as ``_hosting_costs`` adds cost.
            last = app.n_modules - 1
            x_delay = [(x_name(i, j, k), (node.sensor_delay if j == 0 else 0.0)
                        + (node.user_delay if j == last else 0.0) + mod.exec_delay)
                       for j, mod in enumerate(app.modules) for k, node in enumerate(nodes)]
            z_delay = [(z_name(i, j, u, v), links.delay[u][v]) for j in range(last) for u, v in pairs]
            rows.append(LinRow(f"eq7_app{i}", "eq7", nonzero(x_delay + z_delay), "<=", app.qos_threshold))

    if not relax.drop_security:
        ratings = [float(int(inst.ratings[node.id])) for node in nodes]
        rows += [LinRow(f"eq8_app{i}_mod{j}", "eq8", {x_name(i, j, k): ratings[k] for k in ks},
                        ">=", float(int(app.security_req))) for i, j, app, _ in mods]

    rows += [LinRow(f"eq9_app{i}_mod{j}", "eq9", {x_name(i, j, k): 1.0 for k in ks}, "=", 1.0)
             for i, j, _, _ in mods]

    for i, j, _ in edges:
        for u, v in pairs:
            zn, xu, xv = z_name(i, j, u, v), x_name(i, j, u), x_name(i, j + 1, v)
            suffix = f"app{i}_edge{j}_u{u}_v{v}"
            rows += [LinRow(f"eq11_{suffix}", "eq11", {zn: 1.0, xu: -1.0}, "<=", 0.0),
                     LinRow(f"eq12_{suffix}", "eq12", {zn: 1.0, xv: -1.0}, "<=", 0.0),
                     LinRow(f"eq13_{suffix}", "eq13", {zn: 1.0, xu: -1.0, xv: -1.0}, ">=", -1.0)]
        rows.append(LinRow(f"eq14_app{i}_edge{j}", "eq14", {z_name(i, j, u, v): 1.0 for u, v in pairs},
                           "=", 1.0))

    declared = set(variables)
    for row in rows:
        undeclared = set(row.coeffs) - declared
        if undeclared:
            raise AssertionError(f"row {row.name} references undeclared variables {sorted(undeclared)}")

    return IlpModel(variables=tuple(variables), objective=objective, constraints=tuple(rows))


def placement_to_vector(inst: Instance, p: Placement) -> dict[str, float]:
    """Encode a consistent placement as a 0/1 assignment of model variables."""
    vec: dict[str, float] = {}
    for i, app in enumerate(inst.apps):
        hosts = [inst.node_index[h] for h in p.hosts(app)]
        for j, k in enumerate(hosts):
            vec[x_name(i, j, k)] = 1.0
        for j, (u, v) in enumerate(zip(hosts, hosts[1:])):
            vec[z_name(i, j, u, v)] = 1.0
    return vec


def objective_value(model: IlpModel, vec: dict[str, float]) -> float:
    return sum(coeff * vec.get(name, 0.0) for name, coeff in model.objective.items())


def _add_app_cost(inst: Instance, sums: tuple[float, ...], app: Application,
                  hosts: Sequence[int]) -> tuple[float, ...]:
    """``sums``, the five terms in ``CostBreakdown``'s field order, plus the
    terms of ``app`` with module j on node index ``hosts[j]``.

    Each term is a left fold over the apps in order, so the sums after k
    apps are ``eval_cost`` of those k apps; the solver folds it app by app.
    """
    processing, storage, sensor, inter, user = sums
    nodes, bw = inst.nodes, inst.links.bw_cost
    sensor += app.input_traffic * nodes[hosts[0]].sensor_bw_cost
    user += app.output_traffic * nodes[hosts[-1]].user_bw_cost
    for mod, k in zip(app.modules, hosts):
        processing += mod.exec_delay * nodes[k].proc_cost
        storage += mod.stor_req * nodes[k].stor_cost
    for traffic, u, v in zip(app.inter_traffic, hosts, hosts[1:]):
        inter += traffic * bw[u][v]
    return processing, storage, sensor, inter, user


def _comm_delay(inst: Instance, hosts: Sequence[int]) -> float:
    """An app's communication delay with module j on node index ``hosts[j]``."""
    comm = inst.nodes[hosts[0]].sensor_delay + inst.nodes[hosts[-1]].user_delay
    for u, v in zip(hosts, hosts[1:]):
        comm += inst.links.delay[u][v]
    return comm


def _app_delay(inst: Instance, app: Application, hosts: Sequence[int]) -> float:
    """An app's delay with module j on node index ``hosts[j]``, summed as the
    solver extends a chain: execution, sensor attachment, links, user."""
    delay = app.exec_total + inst.nodes[hosts[0]].sensor_delay
    for u, v in zip(hosts, hosts[1:]):
        delay += inst.links.delay[u][v]
    return delay + inst.nodes[hosts[-1]].user_delay


def eval_cost(inst: Instance, p: Placement) -> CostBreakdown:
    """Cost of a consistent placement, split into the five objective terms."""
    if not placement_is_consistent(inst, p):
        raise ValueError("placement is not consistent with the instance")
    sums = (0.0,) * 5
    for app in inst.apps:
        sums = _add_app_cost(inst, sums, app, [inst.node_index[h] for h in p.hosts(app)])
    return CostBreakdown(*sums)


def eval_delay(inst: Instance, p: Placement, app: Application) -> tuple[float, float]:
    """(communication delay, execution delay) of one application under p.

    Raises ValueError when the app's chain is not whole or p refers to app
    or node ids absent from inst.
    """
    placement_is_consistent(inst, p)  # raises on unknown ids
    return _comm_delay(inst, [inst.node_index[h] for h in p.hosts(app)]), app.exec_total


def check_feasibility(inst: Instance, p: Placement, relax: Relaxations = Relaxations()) -> list[Violation]:
    """Every active-constraint violation of a placement (empty = feasible).

    Works on incomplete placements too: an app's chain may stop short, or be
    missing, and its unplaced tail modules show up as eq9 rows and get no
    eq7 check.  Raises ValueError, as ``eval_cost`` does, when p refers to
    app or node ids absent from inst or gives an app more hosts than modules.
    """
    placement_is_consistent(inst, p)  # raises on unknown ids
    chains = [p.assign.get(a.id, ()) for a in inst.apps]
    for a, chain in zip(inst.apps, chains):
        if len(chain) > a.n_modules:
            raise ValueError(f"placement gives app {a.id} {len(chain)} hosts for {a.n_modules} modules")
    out: list[Violation] = []

    for tag, req_field, cap_field in _CAPACITY:
        used: dict[str, float] = {n.id: 0.0 for n in inst.nodes}
        for a, chain in zip(inst.apps, chains):
            for mod, node_id in zip(a.modules, chain):
                used[node_id] += getattr(mod, req_field)
        for node in inst.nodes:
            cap = getattr(node, cap_field)
            if used[node.id] > cap + FEAS_TOL:
                out.append(Violation(
                    tag=tag, indices=(node.id,), slack=used[node.id] - cap,
                    detail=f"node {node.id}: {req_field} load {used[node.id]} exceeds capacity {cap}",
                ))

    for a, chain in zip(inst.apps, chains):
        for j in range(len(chain), a.n_modules):
            out.append(Violation(
                tag="eq9", indices=(a.id, j), slack=1.0,
                detail=f"app {a.id} module {j} is unplaced",
            ))

    if not relax.drop_qos:
        for a, chain in zip(inst.apps, chains):
            if len(chain) < a.n_modules:
                continue  # reported as eq9 above
            total = _app_delay(inst, a, [inst.node_index[h] for h in chain])
            if total > a.qos_threshold + FEAS_TOL:
                out.append(Violation(
                    tag="eq7", indices=(a.id,), slack=total - a.qos_threshold,
                    detail=f"app {a.id}: end-to-end delay {total} exceeds threshold {a.qos_threshold}",
                ))

    if not relax.drop_security:
        ratings = inst.ratings
        for a, chain in zip(inst.apps, chains):
            for j, node_id in enumerate(chain):
                rating = ratings[node_id]
                short = int(a.security_req) - int(rating)
                if short > 0:
                    out.append(Violation(
                        tag="eq8", indices=(a.id, j, node_id), slack=float(short),
                        detail=(f"app {a.id} module {j}: node {node_id} rated {rating.label}, "
                                f"requires {a.security_req.label}"),
                    ))

    return out


def export_lp(model: IlpModel) -> str:
    """Render the model in LP interchange text format.

    Emits the objective, all constraint rows under their family-tagged
    names, and one Binary declaration per variable.  Output is byte-stable
    for a given model: term order follows the model's deterministic
    variable order.
    """
    var_order = {name: pos for pos, name in enumerate(model.variables)}

    def expression(coeffs: dict[str, float], limit: int = 200) -> str:
        # Terms in variable order.  LP readers cap line length, so a long
        # expression continues on indented lines.  An empty one reads
        # "0 <first variable>", or "0" when the model has no variables.
        terms = sorted((var_order[name], name, c) for name, c in coeffs.items())
        if not terms:
            return "0 " + model.variables[0] if model.variables else "0"
        parts = [("- " if c < 0 else "+ " if pos else "") + f"{abs(c)!r} {name}"
                 for pos, (_, name, c) in enumerate(terms)]
        out = parts[:1]
        for part in parts[1:]:
            if len(out[-1]) + len(part) + 1 > limit:
                out.append("   " + part)
            else:
                out[-1] += " " + part
        return "\n".join(out)

    lines = ["\\ module placement model", "Minimize", " obj: " + expression(model.objective), "Subject To"]
    lines += [f" {row.name}: {expression(row.coeffs)} {row.sense} {row.rhs!r}" for row in model.constraints]
    lines += ["Binary", *(f" {name}" for name in model.variables), "End"]
    return "\n".join(lines) + "\n"

