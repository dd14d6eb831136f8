"""Seeded end-to-end and per-layer benchmark of fuvalkit.

    python3 perfbench/run.py --workload fit --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 28 --trace 1

Run from the repository root; the package is imported from `src/` of the
same checkout. The workload's inputs are generated from `--seed`. A run
solves the oracle references, then for about `--seconds` runs one untimed
warm-up batch and repeats timed batches of the workload's operations,
interleaved with SETUP_REPS fresh set-ups (parse plus first objective; the
median is `setup_s`), and finally checks every operation's output.

`--trace 0` prints the end-to-end metrics, measured with no instrumentation.
`--trace 1` alternates untraced and traced batches and prints the per-layer
metrics (medians over traced batches) plus the tracing overhead; the spans go
to `.perfbench-out/spans-<workload>.jsonl`.

The last stdout line is one JSON object: `correct` is false when an output
contradicts its check; `failed` counts operations that raised, failed a
check, or (for `reference`) did not converge, out of `attempted`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench-out"
NAMES = ("fit", "grid", "reference", "fit-hd")
SETUP_REPS = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# "-computed" marks a size derived from array or pickle lengths, not measured
PER_LAYER = {
    "dataio.parse_libsvm.s": "s",
    "dataio.input_mb": "MB-computed",
    "problems.loss_value.calls": "count",
    "problems.loss_value.self_s": "s",
    "problems.loss_grad_coef.calls": "count",
    "problems.loss_grad_coef.self_s": "s",
    "optimizers.run.calls": "count",
    "optimizers.run.steps": "count",
    "optimizers.run.self_s": "s",
    "optimizers.run.self_us_per_step": "us",
    "problems.objective.calls": "count",
    "problems.objective.self_s": "s",
    "problems.objective_grad.calls": "count",
    "problems.objective_grad.self_s": "s",
    "problems.per_sample_values.calls": "count",
    "problems.per_sample_values.self_s": "s",
    "problems.dense_data.first_s": "s",
    "problems.dense_cache_mb": "MB-computed",
    "problems.sample_constants.calls": "count",
    "problems.sample_constants.self_s": "s",
    "optimizers.resolve_scaling.calls": "count",
    "optimizers.resolve_scaling.self_s": "s",
    "optimizers.initial_slack.self_s": "s",
    "bench.reference_solve.calls": "count",
    "bench.reference_solve.s": "s",
    "bench.reference_solve.grad_evals": "count",
    "bench.reference_solve.func_evals": "count",
    "bench.reference_solve.converged": "count",
    "bench.reference_solve.func_evals_per_grad_eval": "ratio",
    "bench.grid_search.s": "s",
    "bench.grid_search.cells": "count",
    "bench.grid_search.cell_s": "s",
    "bench.grid_search.diverged_cells": "count",
    "bench.grid_search.dispatch_share": "ratio",
    "bench.grid_search.ipc_mb": "MB-computed",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.absent": "count",
}

# per-batch layers read as call count and self time
CALL_LAYERS = (
    "problems.loss_value",
    "problems.loss_grad_coef",
    "problems.objective",
    "problems.objective_grad",
    "problems.per_sample_values",
    "problems.sample_constants",
    "optimizers.resolve_scaling",
)


def import_package():
    """Import fuvalkit from this checkout's src/, or exit without a result."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import fuvalkit
    except ImportError as exc:
        sys.exit(f"error: cannot import fuvalkit from {src}: {exc}")
    if not Path(fuvalkit.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: fuvalkit was imported from {fuvalkit.__file__}, not {src}")


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process, or of its largest child if higher."""
    kib = max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


@dataclass
class Batch:
    results: dict
    wall: float
    cpu: float
    steps: int
    layers: dict | None = None  # per-layer metrics, traced batches only
    warm_up: bool = False  # checked, but not timed


def run_batch(wl, tracer) -> Batch:
    ops = wl.ops()
    results = {}
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    for op, fn in ops.items():
        with tracer.span("op." + op):
            try:
                results[op] = fn()
            except Exception as exc:  # a failed operation is a result
                results[op] = exc
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    return Batch(results, wall, cpu, wl.steps(results))


def layer_metrics(tracer, wl, batch: Batch) -> dict:
    from workloads import GRID_JOBS, run_steps

    m = {}
    for name in CALL_LAYERS:
        stat = tracer.stat(name)
        m[name + ".calls"], m[name + ".self_s"] = stat.calls, stat.self_time
    run = tracer.stat("optimizers.run")
    steps = run_steps(batch.results)  # pool workers' steps are not traced
    m["optimizers.run.calls"] = run.calls
    m["optimizers.run.steps"] = steps
    m["optimizers.run.self_s"] = run.self_time
    m["optimizers.run.self_us_per_step"] = 1e6 * run.self_time / steps if steps else 0.0
    m["optimizers.initial_slack.self_s"] = tracer.stat("optimizers.initial_slack").self_time

    solve = tracer.stat("bench.reference_solve")
    grads = tracer.nested.get(("bench.reference_solve", "problems.objective_grad"), 0)
    funcs = tracer.nested.get(("bench.reference_solve", "problems.objective"), 0)
    m["bench.reference_solve.calls"] = solve.calls
    m["bench.reference_solve.s"] = solve.total
    m["bench.reference_solve.grad_evals"] = grads
    m["bench.reference_solve.func_evals"] = funcs
    m["bench.reference_solve.func_evals_per_grad_eval"] = funcs / grads if grads else 0.0
    m["bench.reference_solve.converged"] = 0

    grid_s = tracer.stat("bench.grid_search").total
    m["bench.grid_search.s"] = grid_s
    for key in ("cells", "cell_s", "diverged_cells", "ipc_mb"):
        m["bench.grid_search." + key] = 0
    m.update(wl.extra_layers(batch.results))
    cell_s = m["bench.grid_search.cell_s"]
    m["bench.grid_search.dispatch_share"] = 1.0 - cell_s / (GRID_JOBS * grid_s) if grid_s else 0.0
    return m


@dataclass
class SetUp:
    seconds: float
    parse_s: float  # traced set-ups only
    dense_first_s: float


def set_up(wl, tracer, trace: bool) -> SetUp:
    """A fresh set-up; its problems serve the following batches."""
    wl.release()
    gc.collect()
    tracer.reset()
    with tracer.tracing() if trace else contextlib.nullcontext():
        t0 = time.perf_counter()
        wl.setup()
        seconds = time.perf_counter() - t0
    return SetUp(seconds, tracer.stat("dataio.parse_libsvm").total, tracer.stat("problems.dense_data").total)


def measure(wl, tracer, seconds: float, trace: bool) -> tuple[list[SetUp], list[Batch]]:
    """A warm-up batch, then rounds of one untraced batch (plus one traced
    batch when tracing) until the next round would end after `seconds`. The
    first call of an operation can take over 1.5 times as long as the later
    ones, so the warm-up batch is checked but not timed. The SETUP_REPS
    set-ups are spread evenly over the same time, so that both see the same
    machine load; a fixed count keeps the allocator churn, and so peak RSS,
    fixed."""
    setups = [set_up(wl, tracer, trace)]
    start = time.perf_counter()
    batches, rounds = [run_batch(wl, tracer)], []
    batches[0].warm_up = True
    while True:
        t_round = time.perf_counter()
        batches.append(run_batch(wl, tracer))
        if trace:
            tracer.reset()
            with tracer.tracing():
                batch = run_batch(wl, tracer)
            batch.layers = layer_metrics(tracer, wl, batch)
            batches.append(batch)
        if len(setups) < SETUP_REPS and time.perf_counter() - start >= len(setups) * seconds / SETUP_REPS:
            setups.append(set_up(wl, tracer, trace))
        rounds.append(time.perf_counter() - t_round)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break
    while len(setups) < SETUP_REPS:
        setups.append(set_up(wl, tracer, trace))
    return setups, batches


def check(wl, batches: list[Batch]) -> tuple[bool, int, int, list[str]]:
    """Check the first output of each operation against its oracle or replay;
    later batches must reproduce it."""
    from workloads import Verdict

    def full_check(op, result) -> Verdict:
        if isinstance(result, Exception):
            return Verdict(False, True, "raised " + "".join(traceback.format_exception_only(result)).strip())
        try:
            return wl.check(op, result)
        except Exception as exc:  # a check that cannot run fails the operation
            return Verdict(False, True, f"check raised {exc!r}")

    first = batches[0].results
    verdicts = {op: full_check(op, res) for op, res in first.items()}
    correct, attempted, failed = True, 0, 0
    for batch in batches:
        for op, res in batch.results.items():
            verdict = verdicts[op]
            if batch is not batches[0]:
                if isinstance(res, Exception) or isinstance(first[op], Exception):
                    verdict = full_check(op, res)
                elif not wl.same(res, first[op]):
                    verdict = Verdict.wrong("output differs from the first batch")
            attempted += 1
            failed += not verdict.ok
            correct &= verdict.correct
    notes = [f"{op}: {'ok' if v.ok else 'FAILED'} {v.note}" for op, v in verdicts.items()]
    return correct, attempted, failed, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import_package()
    from machine import machine_record
    from tracing import Tracer
    from workloads import WORKLOADS

    machine = machine_record(ROOT)
    print("machine " + json.dumps(machine))
    tracer = Tracer()
    wl = WORKLOADS[name](seed)
    wl.prepare()
    setups, batches = measure(wl, tracer, seconds, trace)
    rss = peak_rss_mb()
    correct, attempted, failed, notes = check(wl, batches)

    med = statistics.median
    plain = [b for b in batches if b.layers is None and not b.warm_up]
    if not trace:
        values = {
            "setup_s": med([u.seconds for u in setups]),
            "wall_s": med([b.wall for b in plain]),
            "cpu_s": med([b.cpu for b in plain]),
            "steps_per_s": med([b.steps / b.wall for b in plain]),
            "peak_rss_mb": rss,
        }
        units = END_TO_END
    else:
        traced = [b for b in batches if b.layers is not None]
        values = {key: med([b.layers[key] for b in traced]) for key in traced[0].layers}
        values["dataio.parse_libsvm.s"] = med([u.parse_s for u in setups])
        values["problems.dense_data.first_s"] = med([u.dense_first_s for u in setups])
        values["dataio.input_mb"] = wl.input_mb
        values["problems.dense_cache_mb"] = sum(
            a.nbytes for p in wl.problems for a in (getattr(p, "_dense_xy", None) or ())
        ) / 2**20
        untraced_wall = med([b.wall for b in plain])
        values["trace.overhead_s"] = med([b.wall for b in traced]) - untraced_wall
        values["trace.overhead_share"] = values["trace.overhead_s"] / untraced_wall
        values["trace.absent"] = len(tracer.absent)
        units = PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        header = {"workload": name, "seed": seed, "absent": tracer.absent, "machine": machine}
        tracer.write(str(OUT_DIR / f"spans-{name}.jsonl"), header)

    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    print(f"workload {name} seed {seed} trace {int(trace)}: {len(batches)} batches, "
          f"{len(setups)} set-ups")
    print("  set-ups s: " + " ".join(f"{u.seconds:.3f}" for u in setups))
    print("  batches wall s (w: warm-up, *: traced): "
          + " ".join(f"{b.wall:.3f}{'w' if b.warm_up else '*' if b.layers else ''}" for b in batches))
    for note in notes:
        print("  check " + note)
    if tracer.absent:
        print("  absent (not traced): " + ", ".join(tracer.absent))
    for key, m in metrics.items():
        print(f"  {key:48s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':48s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_all(seed: int, seconds: float, trace: bool):
    """Each workload in its own process, so peak RSS stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = m
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        run_all(args.seed, args.seconds, bool(args.trace))
    else:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
