"""Independent checks of solver answers: HiGHS on the full binary program.

The matrices come straight from ``build_model``'s ``IlpModel`` and go to
``scipy.optimize.milp``.  scipy is imported on first use only, so timed
passes never pay for it.
"""

from __future__ import annotations

COST_RTOL = 1e-6  # HiGHS against the in-house optimum
REF_RTOL = 1e-9  # a run against the recorded answers


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def highs_verdict(inst, relax, time_limit: float = 10.0) -> tuple[str, float | None]:
    """("optimal", cost), ("infeasible", None) or ("unknown", None) on a HiGHS time-out."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    from fogplace import build_model

    model = build_model(inst, relax)
    index = {name: i for i, name in enumerate(model.variables)}
    c = np.zeros(len(index))
    for name, coeff in model.objective.items():
        c[index[name]] = coeff
    rows, cols, vals, lo, hi = [], [], [], [], []
    for r, row in enumerate(model.constraints):
        for name, coeff in row.coeffs.items():
            rows.append(r)
            cols.append(index[name])
            vals.append(coeff)
        lo.append(-np.inf if row.sense == "<=" else row.rhs)
        hi.append(np.inf if row.sense == ">=" else row.rhs)
    a = csr_matrix((vals, (rows, cols)), shape=(len(model.constraints), len(index)))
    res = milp(c, constraints=LinearConstraint(a, lo, hi), integrality=np.ones(len(index)),
               bounds=Bounds(0, 1), options={"time_limit": time_limit, "mip_rel_gap": 1e-9})
    if res.status == 0:
        return "optimal", float(res.fun)
    if res.status == 2:
        return "infeasible", None
    return "unknown", None


def check_answer(status: str, cost: float | None, true_status: str, true_cost: float | None,
                 rtol: float) -> str | None:
    """Compare one solve with the true verdict; None when they agree.

    A decided solve must match the verdict.  A time-limited incumbent may be
    any feasible placement, so its cost only has to reach the optimum; an
    incumbent on an infeasible instance is always wrong.  An "unknown" verdict
    (neither HiGHS nor the exact solver finished) checks nothing.
    """
    if true_status == "unknown":
        return None
    if status in ("optimal", "infeasible"):
        if status != true_status:
            return f"status {status}, expected {true_status}"
        if status == "optimal" and not close(cost, true_cost, rtol):
            return f"cost {cost!r}, expected {true_cost!r}"
        return None
    if status == "time_limit":
        if cost is None:
            return None
        if true_status == "infeasible":
            return f"incumbent of cost {cost!r} on an infeasible instance"
        # The optimum of a time-limited instance may come from HiGHS, so allow its tolerance.
        if cost < true_cost - COST_RTOL * max(1.0, abs(true_cost)):
            return f"incumbent cost {cost!r} below the optimum {true_cost!r}"
        return None
    return f"unexpected status {status}"
