"""Record the expected answer of every op of the default seed in reference.json.

Run from the repository root after a change that is meant to alter answers:

    python3 benchmarks/make_reference.py

Each solve is checked once with HiGHS on the full binary program; the script
stops without writing if the in-house answer and HiGHS disagree.  Instances
that hit the packing time limit are recorded with HiGHS's verdict, so runs can
check that a time-limited incumbent is feasible and no cheaper than the optimum.
An instance that neither the exact solver nor HiGHS (within ``HIGHS_LIMIT``)
decides is recorded as "unknown".  With that limit the script takes about
15 minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import sys
import time

import run
from oracle import COST_RTOL, check_answer, highs_verdict

HIGHS_LIMIT = 600.0


def _agree(key: str, status: str, cost: float | None, inst, relax) -> list:
    """The answer to record for one op: [status, cost], HiGHS-checked."""
    start = time.perf_counter()
    true_status, true_cost = highs_verdict(inst, relax, time_limit=HIGHS_LIMIT)
    if time.perf_counter() - start > 5.0:
        print(f"{key}: HiGHS took {time.perf_counter() - start:.1f} s", flush=True)
    if true_status == "unknown":
        if status in run.ANSWERED:
            sys.exit(f"{key}: HiGHS did not finish")
        print(f"{key}: neither the exact solver nor HiGHS finished; recorded as unknown", flush=True)
        return ["unknown", None]
    problem = check_answer(status, cost, true_status, true_cost, COST_RTOL)
    if problem is not None:
        sys.exit(f"{key}: disagrees with HiGHS: {problem}")
    if status in run.ANSWERED:
        return [status, cost]
    print(f"{key}: time limit; HiGHS verdict {true_status} {true_cost}", flush=True)
    return [true_status, true_cost]


def _answers(workload, ops) -> dict:
    return {op.key: _agree(op.key, op.status, op.cost, *workload.instance_of(op.key)) for op in ops}


def main() -> int:
    run._load_package()
    seed = run.DEFAULT_SEED
    reference = {}

    desk = run.DeskSweep(seed, small=False)
    ops = desk.run_pass()
    reference["desk_sweep"] = {"csv_sha256": desk.digests, "ops": _answers(desk, ops)}

    cli = run.CliSolve(seed, small=False)
    ops = [cli.run_op(i, in_process=True) for i in range(len(cli.ops))]
    reference["cli_solve"] = {"ops": _answers(cli, [op for op in ops if op.status != "rated"])}

    packing = run.PackingSearch(seed, small=False)
    ops = [packing.run_op(i, in_process=True) for i in range(len(packing.ops))]
    reference["packing_search"] = {"time_limit_s": run.PACKING_TIME_LIMIT, "ops": _answers(packing, ops)}

    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
