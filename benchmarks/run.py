"""fogplace benchmark runner: three closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload desk_sweep --seed 0 --seconds 30 --trace 0

Every workload is a closed loop: one caller in this process, with at most one
``fogplace.cli`` subprocess at a time.  The package is loaded from ``src/``
(``PYTHONPATH=src``); nothing under ``src/`` is changed.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
environment.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, replace
from importlib import metadata
from pathlib import Path

from oracle import COST_RTOL, REF_RTOL, check_answer, highs_verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED_CONFIG = ROOT / "configs" / "default.json"
WORK = HERE / "_work"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("desk_sweep", "cli_solve", "packing_search")
DEFAULT_SEED = 0  # the seed whose every answer is recorded in reference.json
MIN_OPS = 100  # so that op_p90_ms has at least ten samples beyond it
SETUP_REPEATS = 3
HIGHS_SAMPLE = 3  # ops per run checked with HiGHS on seeds without recorded answers

DESK_PRESETS = ("fig4", "fig5", "fig7")
DESK_SEEDS = 20  # scenario seeds per preset, as in the paper's study
CLI_SEEDS = 2  # shipped-config instances per app count (1..7 apps)
PACKING_FOG = (2, 3, 4, 6)
PACKING_APPS = (7, 10, 14, 20)
PACKING_QOS = (1.5, 3.0)
PACKING_SEEDS = 30  # per cell: enough instances that the mix of cliff cases is stable across seeds
PACKING_TIME_LIMIT = 0.1  # seconds per solve

ANSWERED = ("optimal", "infeasible", "rated")  # anything but a time-limited solve
EXIT_FOR_STATUS = {"optimal": 0, "infeasible": 3, "time_limit": 4}
SHIPPED_RATINGS = {"cloud": "medium", "fog1": "low", "fog2": "high"}


@dataclass
class Op:
    key: str
    status: str
    cost: float | None
    ms: float
    error: str | None = None
    report: object = None  # in-process SolveReport, until the op is checked


def _load_package():
    """Import fogplace from this checkout's src/, never from elsewhere."""
    if not (SRC / "fogplace" / "__init__.py").is_file() or not SHIPPED_CONFIG.is_file():
        sys.exit(f"error: {SRC / 'fogplace'} or {SHIPPED_CONFIG} is missing; "
                 "run from the root of a fogplace checkout")
    sys.path.insert(0, str(SRC))
    import fogplace

    if Path(fogplace.__file__).resolve().parent != (SRC / "fogplace").resolve():
        sys.exit(f"error: imported fogplace from {fogplace.__file__}, not from {SRC}")


def _child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _import_package_in_child() -> None:
    subprocess.run([sys.executable, "-c", "import fogplace"], env=_child_env(), cwd=ROOT,
                   check=True, timeout=60)


class Workload:
    """Inputs built at set-up, the ops over them, and the checks of each op."""

    name = ""
    whole_passes = False  # ops come a pass at a time from run_pass(), else one at a time from run_op()
    highs_checks_all = False  # without recorded answers, HiGHS checks every key, not a sample
    answers: dict | None = None

    def expect(self, reference: dict | None) -> None:
        self.answers = None if reference is None else reference["ops"]

    def check(self, op: Op) -> None:
        """Checks that need no recorded answer; sets ``op.error``."""


# --------------------------------------------------------------------- desk_sweep

class DeskSweep(Workload):
    """Paper replication: run_sweep + to_csv + check_trends over fig4, fig5, fig7."""

    name = "desk_sweep"
    whole_passes = True

    def __init__(self, seed: int, small: bool):
        from fogplace import experiment

        self.full = not small
        self.seeds = list(range(seed * DESK_SEEDS, seed * DESK_SEEDS + (DESK_SEEDS if self.full else 2)))
        self.grids = [(name, experiment.preset_grid(name)) for name in DESK_PRESETS]
        self.labels = {f"{name}/{experiment.cell_label(cell, s)}": (cell, s)
                       for name, grid in self.grids for cell in grid.cells for s in self.seeds}
        self.digests: dict[str, str] | None = None  # CSV sha256 every pass must reproduce

    def expect(self, reference: dict | None) -> None:
        super().expect(reference)
        if reference is not None and self.full:
            self.digests = reference["csv_sha256"]

    def keys(self) -> list[str]:
        return sorted(self.labels)

    def warm_up(self) -> None:
        from fogplace import experiment

        experiment.run_sweep(experiment.preset_grid("fig5"), self.seeds[:1])

    def run_pass(self) -> list[Op]:
        from fogplace import experiment

        ops: list[Op] = []
        digests = {}
        for name, grid in self.grids:
            rows = experiment.run_sweep(grid, self.seeds)
            csv_text = experiment.to_csv(rows)
            trends = experiment.check_trends(rows)
            digests[name] = hashlib.sha256(csv_text.encode("utf-8")).hexdigest()
            keys = [f"{name}/{experiment.cell_label(cell, s)}" for cell in grid.cells for s in self.seeds]
            # Per-seed orderings hold by construction; the seed-mean ones are config-sensitive.
            broken = [c.name for c in trends.checks[:3] if c.applicable and not c.passed]
            for key, row in zip(keys, rows):
                error = f"trend checks failed: {broken}" if broken else None
                if row.status.startswith("error"):
                    error = row.status
                ops.append(Op(key, row.status, row.cost_total, row.solve_ms or 0.0, error))
        if self.digests is None:
            self.digests = digests
        for op in ops:
            name = op.key.split("/", 1)[0]
            if op.error is None and digests[name] != self.digests[name]:
                op.error = f"{name} CSV sha256 {digests[name]}, expected {self.digests[name]}"
        return ops

    def instance_of(self, key: str):
        from fogplace import ScenarioConfig, generate_instance

        cell, s = self.labels[key]
        cfg = replace(ScenarioConfig(), n_apps=cell.n_apps, max_qos=cell.max_qos, alpha=cell.alpha, seed=s)
        return generate_instance(cfg), cell.relax


# ---------------------------------------------------------------------- cli_solve

class CliSolve(Workload):
    """User-facing latency: `solve` then `rate` per instance file, each a fresh
    `python -m fogplace.cli` process."""

    name = "cli_solve"
    highs_checks_all = True  # the instances are small

    def __init__(self, seed: int, small: bool):
        from fogplace import save_instance, scenario

        shipped = scenario.config_from_dict(json.loads(SHIPPED_CONFIG.read_text(encoding="utf-8")))
        self.dir = WORK / f"cli_solve-seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, Path] = {}
        apps = range(1, 8) if not small else (1, 7)
        for n_apps in apps:
            for s in range(seed * CLI_SEEDS, seed * CLI_SEEDS + (CLI_SEEDS if not small else 1)):
                key = f"n{n_apps}_s{s}"
                cfg = replace(shipped, n_apps=n_apps, seed=s)
                path = self.dir / f"{key}.json"
                save_instance(scenario.generate_instance(cfg), path)
                self.files[key] = path
        self.ops = [(cmd, key) for key in self.files for cmd in ("solve", "rate")]

    def keys(self) -> list[str]:
        return [f"solve/{key}" for key in self.files]

    def warm_up(self) -> None:
        self._run_cli(["rate", str(next(iter(self.files.values())))], in_process=False)

    def instance_of(self, op_key: str):
        from fogplace import Relaxations, load_instance, rate_infrastructure

        key = op_key.split("/", 1)[1]
        return rate_infrastructure(load_instance(self.files[key])), Relaxations()

    def _run_cli(self, argv: list[str], in_process: bool) -> tuple[int, str]:
        if in_process:
            from fogplace import cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-m", "fogplace.cli", *argv], env=_child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout

    def run_op(self, index: int, in_process: bool) -> Op:
        cmd, key = self.ops[index % len(self.ops)]
        report_path = self.dir / f"{key}.report.json"
        argv = [cmd, str(self.files[key])]
        if cmd == "solve":
            argv += ["--out", str(report_path)]
            report_path.unlink(missing_ok=True)
        start = time.perf_counter()
        code, stdout = self._run_cli(argv, in_process)
        ms = (time.perf_counter() - start) * 1000.0
        if cmd == "rate":
            ratings = {}
            for line in stdout.splitlines()[1:]:
                fields = line.split()
                ratings[fields[0]] = fields[-1]
            error = None if code == 0 and ratings == SHIPPED_RATINGS else f"exit {code}, ratings {ratings}"
            return Op(f"rate/{key}", "rated", None, ms, error)
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            return Op(f"solve/{key}", "error", None, ms, f"exit {code}, no report ({exc})")
        status = report["status"]
        cost = report["cost"]["total"] if "cost" in report else None
        error = None
        if EXIT_FOR_STATUS.get(status) != code or f"status: {status}" not in stdout:
            error = f"exit {code} and stdout disagree with report status {status}"
        return Op(f"solve/{key}", status, cost, ms, error)


# ----------------------------------------------------------------- packing_search

class PackingSearch(Workload):
    """Branch-and-bound under a per-solve time limit on random fog positions."""

    name = "packing_search"

    def __init__(self, seed: int, small: bool):
        from fogplace import ScenarioConfig, SolveOptions, scenario

        self.opts = SolveOptions(time_limit=PACKING_TIME_LIMIT)
        cells = [(f, n, q) for f in PACKING_FOG for n in PACKING_APPS for q in PACKING_QOS]
        # Every cell draws its own scenario seeds.  Shared seeds would share fog
        # positions and app prefixes across cells, and so whether they hit the cliff.
        base = seed * len(cells) * PACKING_SEEDS
        self.instances = {}
        for c, (n_fog, n_apps, q) in enumerate(cells):
            first = base + c * PACKING_SEEDS
            for s in range(first, first + (PACKING_SEEDS if not small else 1)):
                cfg = ScenarioConfig(n_fog=n_fog, n_apps=n_apps, max_qos=q, seed=s,
                                     fog_positions=None, tx_ranges=None)
                self.instances[f"f{n_fog}_n{n_apps}_q{q!r}_s{s}"] = scenario.generate_instance(cfg)
        self.ops = sorted(self.instances)
        random.Random(seed).shuffle(self.ops)
        if small:
            self.ops = self.ops[:6]

    def keys(self) -> list[str]:
        return sorted(self.ops)

    def warm_up(self) -> None:
        self.run_op(0, in_process=True)

    def instance_of(self, key: str):
        from fogplace import Relaxations

        return self.instances[key], Relaxations()

    def run_op(self, index: int, in_process: bool) -> Op:
        from fogplace import Relaxations, solver

        key = self.ops[index % len(self.ops)]
        start = time.perf_counter()
        report = solver.solve_exact(self.instances[key], Relaxations(), self.opts)
        ms = (time.perf_counter() - start) * 1000.0
        return Op(key, report.status.value, None if report.cost is None else report.cost.total, ms,
                  report=report)

    def check(self, op: Op) -> None:
        from fogplace import Relaxations, check_feasibility, eval_cost

        placement = op.report.placement
        if placement is None:
            return
        inst = self.instances[op.key]
        violations = check_feasibility(inst, placement, Relaxations())
        if violations:
            op.error = f"infeasible placement: {violations[0].detail}"
        elif abs(eval_cost(inst, placement).total - op.cost) > REF_RTOL * max(1.0, op.cost):
            op.error = "reported cost differs from the placement's cost"


WORKLOAD_CLASSES = {cls.name: cls for cls in (DeskSweep, CliSolve, PackingSearch)}


# ------------------------------------------------------------------- measurement

class Tally:
    """What a run keeps of its ops: latencies and counts, not the ops, so that
    the runner's memory does not grow with the program's throughput."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.keys = set(workload.keys())
        self.sample = self.keys
        if not workload.highs_checks_all:
            self.sample = set(random.Random(seed).sample(sorted(self.keys), min(HIGHS_SAMPLE, len(self.keys))))
        self.held: dict[str, Op] = {}  # first op of each sampled key, for HiGHS after the run
        self.ms = array("d")
        self.answered = 0
        self.failed = 0
        self.errors: list[str] = []
        self.check_s = 0.0  # time spent checking, left out of the measured wall time

    def add(self, ops: list[Op]) -> None:
        start = time.perf_counter()
        answers = self.workload.answers
        for op in ops:
            if op.error is None:
                self.workload.check(op)
            op.report = None
            if op.error is None and op.key in self.keys:
                if answers is not None:
                    op.error = (check_answer(op.status, op.cost, *answers[op.key], REF_RTOL)
                                if op.key in answers else "no recorded answer")
                elif op.key in self.sample:
                    self.held.setdefault(op.key, op)
            self.ms.append(op.ms)
            self.answered += op.status in ANSWERED
            if op.error is not None:
                self._fail(op.key, op.error)
        self.check_s += time.perf_counter() - start

    def _fail(self, key: str, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{key}: {error}")

    def check_held_with_highs(self) -> None:
        """HiGHS stands in for recorded answers on seeds that have none."""
        for key, op in sorted(self.held.items()):
            error = check_answer(op.status, op.cost, *highs_verdict(*self.workload.instance_of(key)), COST_RTOL)
            if error is not None:
                self._fail(key, error)


def run_ops(workload: Workload, tally: Tally, seconds: float, min_ops: int, in_process: bool,
            one_pass: bool, tracer=None) -> tuple[int, float]:
    """Closed loop: issue the next op when the previous one returns.

    Returns the ops done and the wall time they took, checks left out.
    """
    start, checked = time.perf_counter(), tally.check_s
    prefix = tracer.op if tracer is not None else ""
    done = i = 0
    while True:
        if workload.whole_passes:
            ops = workload.run_pass()
        else:
            if tracer is not None:
                tracer.op = f"{prefix}/op{i}"
            ops = [workload.run_op(i, in_process)]
        i += 1
        done += len(ops)
        tally.add(ops)
        wall = time.perf_counter() - start - (tally.check_s - checked)
        if one_pass and (workload.whole_passes or i == len(workload.ops)):
            return done, wall
        if not one_pass and wall >= seconds and done >= min_ops:
            return done, wall


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure_untraced(name: str, seed: int, seconds: float, small: bool,
                     reference: dict | None) -> tuple[dict, Tally]:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _import_package_in_child()
        workload = WORKLOAD_CLASSES[name](seed, small)
        workload.warm_up()
        setups.append(time.perf_counter() - start)
    workload.expect(reference)
    tally = Tally(workload, seed)
    done, wall = run_ops(workload, tally, seconds, 1 if small else MIN_OPS, in_process=False,
                         one_pass=small)
    peak = _peak_rss_mb(children=(name == "cli_solve"))
    ms = tally.ms
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (done / wall, "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "decided_share": (tally.answered / len(ms), "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }
    return metrics, tally


def _import_times() -> tuple[float, float]:
    """Cumulative import seconds of numpy and fogplace, from ``-X importtime``."""
    numpy_s, fogplace_s = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import fogplace.cli"],
                              env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        numpy_s.append(cumulative.get("numpy", 0.0))
        fogplace_s.append(cumulative["fogplace"])
    return statistics.median(numpy_s), statistics.median(fogplace_s)


def measure_traced(name: str, seed: int, seconds: float, small: bool,
                   reference: dict | None) -> tuple[dict, Tally, list]:
    """Alternate untraced and traced passes over the same ops until ``seconds`` elapse.

    Ops run in process, so the CLI is driven through ``fogplace.cli.main``.
    """
    from spans import Tracer, layer_summary

    tracer = Tracer()
    start = time.perf_counter()
    with tracer.installed():
        tracer.op = "setup"
        workload = WORKLOAD_CLASSES[name](seed, small)
    setup_wall = time.perf_counter() - start
    setup_summary = layer_summary(tracer.spans)
    workload.warm_up()
    workload.expect(reference)
    tally = Tally(workload, seed)
    numpy_s, fogplace_s = _import_times()

    untraced_ms, traced_ms, summaries = [], [], []
    start = time.perf_counter()
    while not summaries or time.perf_counter() - start < seconds:
        done, wall = run_ops(workload, tally, 0, 0, in_process=True, one_pass=True)
        untraced_ms.append(wall * 1000.0 / done)
        first_span = len(tracer.spans)
        tracer.op = f"pass{len(summaries)}"
        with tracer.installed():
            done, wall = run_ops(workload, tally, 0, 0, in_process=True, one_pass=True, tracer=tracer)
        traced_ms.append(wall * 1000.0 / done)
        summary = layer_summary(tracer.spans, first_span)
        summary["trace.spans"] = len(tracer.spans) - first_span
        summary["trace.wall_s"] = setup_wall + wall
        # Busy time as a share of the traced set-up and pass: a layer a workload
        # never calls then reads 0 without being a time that never changes.
        for key in [k for k in summary if k.endswith(".busy_s")]:
            summary[key.replace(".busy_s", ".busy_share")] = (summary.pop(key) + setup_summary[key]) / summary["trace.wall_s"]
        summaries.append(summary)

    metrics = {"import.numpy_s": (numpy_s, "s"), "import.fogplace_s": (fogplace_s, "s")}
    for key, value in summaries[0].items():
        if key.endswith((".busy_share", ".wall_s")):
            value = statistics.median(s[key] for s in summaries)
        if key.endswith(".calls"):
            value += setup_summary[key]
        metrics[key] = (value, _per_layer_unit(key))
    metrics["trace.overhead_ms"] = (statistics.median(traced_ms) - statistics.median(untraced_ms), "ms")
    return metrics, tally, tracer.to_json()


def _per_layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("builds_per_solve"):
        return "builds/solve"
    if key.endswith("_share"):
        return "ratio"
    return "count"


def environment(traced: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "fogplace").glob("*.py"))
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "tracing": traced,
        "src_fogplace_lines": lines,
        "packing_time_limit_s": PACKING_TIME_LIMIT,
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Measure one workload and check every op; returns the full result."""
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    spans = None
    if trace:
        metrics, tally, spans = measure_traced(name, seed, seconds, small, reference)
    else:
        metrics, tally = measure_untraced(name, seed, seconds, small, reference)
    tally.check_held_with_highs()
    attempted = len(tally.ms)
    if not trace:
        metrics["verified_share"] = (1.0 - tally.failed / attempted, "ratio")
    return {
        "environment": environment(trace),
        "workload": name,
        "seed": seed,
        "problems": tally.errors,
        "spans": spans,
        "result": {
            "correct": tally.failed == 0,
            "attempted": attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    _load_package()
    out = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = out.pop("spans")
    if spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    (OUT / f"{stem}.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    for problem in out["problems"]:
        print(f"verification: {problem}", file=sys.stderr)
    print(json.dumps({"environment": out["environment"], "samples": out["result"]["attempted"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
