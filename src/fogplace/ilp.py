"""Binary program for the placement problem: variables, objective, constraints.

Decision variables are x (module on node) and z (internal chain edge on an
ordered physical node pair).  The quadratic coupling z = x_pred * x_succ is
linearized into three inequalities that are exact at binary points.

Constraint rows carry stable family tags, which name the LP rows.
Feasibility reports (``check_feasibility``) carry eq2-eq4, eq7, eq8 and eq9;
a placement stores only module hosts, so eq11-eq14 hold for it by
construction and name LP rows only:

    eq2/eq3/eq4   per-node processing / memory / storage capacity
    eq7           per-application end-to-end delay bound
    eq8           per-module minimum security rating
    eq9           each module placed on exactly one node
    eq11..eq13    edge-to-endpoint coupling (product linearization)
    eq14          each internal edge mapped to exactly one node pair

Capacity and delay bounds are non-strict: boundary-tight placements are
feasible.  All evaluation helpers here are pure and independent of the
solver's incremental bookkeeping, so they double as its checking oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Application, Instance, Placement, ResourceNode, placement_is_consistent

# Absolute slack below which a constraint is considered satisfied; shared by
# every feasibility decision in the package so that solver pruning and the
# checking oracle agree.
FEAS_TOL = 1e-9


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
    nodes = inst.nodes
    n_nodes = len(nodes)
    ratings = None if relax.drop_security else inst.ratings

    variables: list[str] = []
    objective: dict[str, float] = {}
    for i, app in enumerate(inst.apps):
        for j in range(app.n_modules):
            for k, coeff in enumerate(_hosting_costs(app, j, nodes)):
                name = x_name(i, j, k)
                variables.append(name)
                if coeff != 0.0:
                    objective[name] = coeff
    for i, app in enumerate(inst.apps):
        for j in range(app.n_modules - 1):
            for u in range(n_nodes):
                for v in range(n_nodes):
                    name = z_name(i, j, u, v)
                    variables.append(name)
                    coeff = app.inter_traffic[j] * inst.links.bw_cost[u][v]
                    if coeff != 0.0:
                        objective[name] = coeff

    rows: list[LinRow] = []

    for tag, req_field, cap_field in _CAPACITY:
        for k, node in enumerate(nodes):
            coeffs = {}
            for i, app in enumerate(inst.apps):
                for j, mod in enumerate(app.modules):
                    req = getattr(mod, req_field)
                    if req != 0.0:
                        coeffs[x_name(i, j, k)] = req
            rows.append(LinRow(
                name=f"{tag}_node{k}", tag=tag, coeffs=coeffs,
                sense="<=", rhs=getattr(node, cap_field),
            ))

    if not relax.drop_qos:
        for i, app in enumerate(inst.apps):
            last = app.n_modules - 1
            coeffs: dict[str, float] = {}
            for k, node in enumerate(nodes):
                c = node.sensor_delay
                if last == 0:
                    c += node.user_delay
                if c != 0.0:
                    coeffs[x_name(i, 0, k)] = c
            if last > 0:
                for k, node in enumerate(nodes):
                    if node.user_delay != 0.0:
                        coeffs[x_name(i, last, k)] = node.user_delay
            for j, mod in enumerate(app.modules):
                if mod.exec_delay != 0.0:
                    for k in range(len(nodes)):
                        name = x_name(i, j, k)
                        coeffs[name] = coeffs.get(name, 0.0) + mod.exec_delay
            for j in range(app.n_modules - 1):
                for u in range(n_nodes):
                    for v in range(n_nodes):
                        t = inst.links.delay[u][v]
                        if t != 0.0:
                            coeffs[z_name(i, j, u, v)] = t
            rows.append(LinRow(
                name=f"eq7_app{i}", tag="eq7", coeffs=coeffs,
                sense="<=", rhs=app.qos_threshold,
            ))

    if ratings is not None:
        for i, app in enumerate(inst.apps):
            for j in range(app.n_modules):
                coeffs = {x_name(i, j, k): float(int(ratings[node.id]))
                          for k, node in enumerate(nodes)}
                rows.append(LinRow(
                    name=f"eq8_app{i}_mod{j}", tag="eq8", coeffs=coeffs,
                    sense=">=", rhs=float(int(app.security_req)),
                ))

    for i, app in enumerate(inst.apps):
        for j in range(app.n_modules):
            rows.append(LinRow(
                name=f"eq9_app{i}_mod{j}", tag="eq9",
                coeffs={x_name(i, j, k): 1.0 for k in range(n_nodes)},
                sense="=", rhs=1.0,
            ))

    for i, app in enumerate(inst.apps):
        for j in range(app.n_modules - 1):
            for u in range(n_nodes):
                for v in range(n_nodes):
                    zn = z_name(i, j, u, v)
                    xu = x_name(i, j, u)
                    xv = x_name(i, j + 1, v)
                    suffix = f"app{i}_edge{j}_u{u}_v{v}"
                    rows.append(LinRow(
                        name=f"eq11_{suffix}", tag="eq11",
                        coeffs={zn: 1.0, xu: -1.0}, sense="<=", rhs=0.0,
                    ))
                    rows.append(LinRow(
                        name=f"eq12_{suffix}", tag="eq12",
                        coeffs={zn: 1.0, xv: -1.0}, sense="<=", rhs=0.0,
                    ))
                    rows.append(LinRow(
                        name=f"eq13_{suffix}", tag="eq13",
                        coeffs={zn: 1.0, xu: -1.0, xv: -1.0}, sense=">=", rhs=-1.0,
                    ))
            rows.append(LinRow(
                name=f"eq14_app{i}_edge{j}", tag="eq14",
                coeffs={z_name(i, j, u, v): 1.0
                        for u in range(n_nodes) for v in range(n_nodes)},
                sense="=", rhs=1.0,
            ))

    declared = set(variables)
    for row in rows:
        undeclared = set(row.coeffs) - declared
        if undeclared:
            raise AssertionError(f"row {row.name} references undeclared variables {sorted(undeclared)}")

    return IlpModel(variables=tuple(variables), objective=objective, constraints=tuple(rows))


def placement_to_vector(inst: Instance, p: Placement) -> dict[str, float]:
    """Encode a consistent placement as a 0/1 assignment of model variables."""
    node_pos = {n.id: k for k, n in enumerate(inst.nodes)}
    vec: dict[str, float] = {}
    for i, app in enumerate(inst.apps):
        hosts = [node_pos[h] for h in p.hosts(app)]
        for j, k in enumerate(hosts):
            vec[x_name(i, j, k)] = 1.0
        for j, (u, v) in enumerate(zip(hosts, hosts[1:])):
            vec[z_name(i, j, u, v)] = 1.0
    return vec


def objective_value(model: IlpModel, vec: dict[str, float]) -> float:
    return sum(coeff * vec.get(name, 0.0) for name, coeff in model.objective.items())


def eval_cost(inst: Instance, p: Placement) -> CostBreakdown:
    """Cost of a consistent placement, split into the five objective terms."""
    if not placement_is_consistent(inst, p):
        raise ValueError("placement is not consistent with the instance")
    processing = storage = sensor = inter = user = 0.0
    nodes, bw = inst.nodes, inst.links.bw_cost
    for app in inst.apps:
        hosts = [inst.node_index[h] for h in p.hosts(app)]
        sensor += app.input_traffic * nodes[hosts[0]].sensor_bw_cost
        user += app.output_traffic * nodes[hosts[-1]].user_bw_cost
        for mod, k in zip(app.modules, hosts):
            processing += mod.exec_delay * nodes[k].proc_cost
            storage += mod.stor_req * nodes[k].stor_cost
        for traffic, u, v in zip(app.inter_traffic, hosts, hosts[1:]):
            inter += traffic * bw[u][v]
    return CostBreakdown(processing=processing, storage=storage,
                         sensor_comm=sensor, inter_comm=inter, user_comm=user)


def eval_delay(inst: Instance, p: Placement, app: Application) -> tuple[float, float]:
    """(communication delay, execution delay) of one application under p.

    Raises ValueError when some module of the app is not placed.
    """
    hosts = [inst.node_index[h] for h in p.hosts(app)]
    comm = inst.nodes[hosts[0]].sensor_delay + inst.nodes[hosts[-1]].user_delay
    for u, v in zip(hosts, hosts[1:]):
        comm += inst.links.delay[u][v]
    return comm, app.exec_total


def check_feasibility(inst: Instance, p: Placement, relax: Relaxations = Relaxations()) -> list[Violation]:
    """Every active-constraint violation of a placement (empty = feasible).

    Works on incomplete placements too: missing assignments show up as eq9
    rows, and an app with a missing module gets no eq7 check.
    """
    out: list[Violation] = []

    for tag, req_field, cap_field in _CAPACITY:
        used: dict[str, float] = {n.id: 0.0 for n in inst.nodes}
        for a in inst.apps:
            for j, mod in enumerate(a.modules):
                node_id = p.assign.get((a.id, j))
                if node_id is not None:
                    used[node_id] += getattr(mod, req_field)
        for node in inst.nodes:
            cap = getattr(node, cap_field)
            over = used[node.id] - cap
            if over > FEAS_TOL:
                out.append(Violation(
                    tag=tag, indices=(node.id,), slack=over,
                    detail=f"node {node.id}: {req_field} load {used[node.id]} exceeds capacity {cap}",
                ))

    for a in inst.apps:
        for j in range(a.n_modules):
            if (a.id, j) not in p.assign:
                out.append(Violation(
                    tag="eq9", indices=(a.id, j), slack=1.0,
                    detail=f"app {a.id} module {j} is unplaced",
                ))

    if not relax.drop_qos:
        for a in inst.apps:
            try:
                comm, exe = eval_delay(inst, p, a)
            except ValueError:
                continue  # reported as eq9 above
            total = comm + exe
            over = total - a.qos_threshold
            if over > FEAS_TOL:
                out.append(Violation(
                    tag="eq7", indices=(a.id,), slack=over,
                    detail=f"app {a.id}: end-to-end delay {total} exceeds threshold {a.qos_threshold}",
                ))

    if not relax.drop_security:
        ratings = inst.ratings
        for a in inst.apps:
            for j in range(a.n_modules):
                node_id = p.assign.get((a.id, j))
                if node_id is None:
                    continue
                rating = ratings[node_id]
                short = int(a.security_req) - int(rating)
                if short > 0:
                    out.append(Violation(
                        tag="eq8", indices=(a.id, j, node_id), slack=float(short),
                        detail=(f"app {a.id} module {j}: node {node_id} rated {rating.label}, "
                                f"requires {a.security_req.label}"),
                    ))

    return out


def _format_coeff(value: float, first: bool) -> str:
    if value < 0:
        sign = "- "
    else:
        sign = "" if first else "+ "
    mag = abs(value)
    return f"{sign}{mag!r}"


def export_lp(model: IlpModel) -> str:
    """Render the model in LP interchange text format.

    Emits the objective, all constraint rows under their family-tagged
    names, and one Binary declaration per variable.  Output is byte-stable
    for a given model: term order follows the model's deterministic
    variable order.
    """
    var_order = {name: pos for pos, name in enumerate(model.variables)}
    lines: list[str] = ["\\ module placement model", "Minimize"]

    obj_terms = [(var_order[name], name, coeff) for name, coeff in model.objective.items()]
    obj_terms.sort()
    if obj_terms:
        parts = [_format_coeff(c, idx == 0) + " " + n for idx, (_, n, c) in enumerate(obj_terms)]
    else:
        parts = ["0 " + model.variables[0]] if model.variables else ["0"]
    lines.append(" obj: " + _wrap_terms(parts))

    lines.append("Subject To")
    for row in model.constraints:
        terms = sorted((var_order[n], n, c) for n, c in row.coeffs.items())
        parts = [_format_coeff(c, idx == 0) + " " + n for idx, (_, n, c) in enumerate(terms)]
        body = _wrap_terms(parts) if parts else "0 " + model.variables[0]
        lines.append(f" {row.name}: {body} {row.sense} {row.rhs!r}")

    lines.append("Binary")
    for name in model.variables:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _wrap_terms(parts: list[str], limit: int = 200) -> str:
    # LP readers cap line length; continue long expressions on indented lines.
    lines: list[str] = []
    current = ""
    for part in parts:
        if current and len(current) + len(part) + 1 > limit:
            lines.append(current)
            current = "   " + part
        else:
            current = part if not current else current + " " + part
    lines.append(current)
    return "\n".join(lines)
