"""Time-to-answer benchmark for the nonclassical-mc CLI.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
The load is a closed loop: this process starts one fresh ``runner.py``
process per workload invocation and waits for it before starting the next.
Each runner calls ``nonclassical_mc.cli.main(argv)`` once; the engine's pool
uses its default worker count (all CPUs).

--trace 0 repeats the workload for --seconds (at least MIN_INVOCATIONS
times) with tracing off, checks every output, and reports the end-to-end
metrics as medians with quartiles and the sample count.

--trace 1 makes invocations with one CLI seed: one untraced on all workers,
one untraced on one worker and two traced on one worker, then rounds of
those three kinds while --seconds lasts. It reports the per-layer metrics
(medians over the traced invocations), checks that their counts repeat
exactly between the traced invocations, and runs the layer
micro-benchmarks once.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Workloads, their
reasons and the layer-to-end-to-end map are in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "nonclassical_mc"
WORK = ROOT / ".bench_build"
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_INVOCATIONS = 3
WORKERS_ENV = "NONCLASSICAL_MC_WORKERS"


class BenchError(RuntimeError):
    """The benchmark itself cannot run here (no result is printed)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def metric_units(kind: str) -> dict:
    """{name: unit} of the end_to_end or per_layer metrics in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in load_spec()[kind]}


def invocation_seeds(seed: int):
    rnd = random.Random(seed)
    while True:
        yield rnd.randrange(1, 2**31)


class Invoker:
    """Starts runner processes, one at a time, inside the run's time limit."""

    def __init__(self):
        self.started = time.perf_counter()
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def __call__(self, workload, cli_seed: int, workers: int | None = None,
                 trace: bool = False, micro_seed: int | None = None) -> dict:
        out = Path(tempfile.mkdtemp(dir=self.work))
        spec = {
            "argv": workload.argv(cli_seed, str(out)),
            "law": workload.law,
            "sigma_s": workload.sigma_s,
            "trace": trace,
            "micro_seed": micro_seed,
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        env.pop(WORKERS_ENV, None)
        if workers is not None:
            env[WORKERS_ENV] = str(workers)
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        if left <= 0.0:
            raise BenchError("run time limit reached")
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "runner.py"), "--spec", json.dumps(spec)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"invocation exceeded the run time limit: {spec['argv']}") from None
        finally:
            try:  # also reaps pool workers a crashed runner left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"ok": False, "problems": [f"runner exited {proc.returncode}: {stderr.strip()[-500:]}"]}
        record = json.loads(lines[-1])
        if Path(record["package_file"]).resolve().parent != PACKAGE.resolve():
            raise BenchError(f"imported the package from {record['package_file']}, not {PACKAGE}")
        record["problems"] = workload.check(record, out)
        record["ok"] = not record["problems"]
        return record


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_untraced(workload, seed: int, seconds: float, invoke) -> tuple[list, dict]:
    records = []
    seeds = invocation_seeds(seed)
    stop = time.perf_counter() + seconds
    while len(records) < MIN_INVOCATIONS or time.perf_counter() < stop:
        records.append(invoke(workload, next(seeds)))
    timed = [r for r in records if "wall_s" in r]
    if not timed:
        raise BenchError("no invocation produced a timing record")
    metrics = {name: quartiles([r[name] for r in timed]) + (len(timed),)
               for name in metric_units("end_to_end")}
    return records, metrics


def run_traced(workload, seed: int, seconds: float, invoke) -> tuple[list, dict, list]:
    cli_seed = next(invocation_seeds(seed))
    stop = time.perf_counter() + seconds
    untraced_all = [invoke(workload, cli_seed)]
    untraced_one = [invoke(workload, cli_seed, workers=1)]
    traced = [invoke(workload, cli_seed, workers=1, trace=True, micro_seed=seed),
              invoke(workload, cli_seed, workers=1, trace=True)]
    while time.perf_counter() < stop:
        untraced_all.append(invoke(workload, cli_seed))
        untraced_one.append(invoke(workload, cli_seed, workers=1))
        traced.append(invoke(workload, cli_seed, workers=1, trace=True))
    records = untraced_all + untraced_one + traced
    traced = [r for r in traced if "layers" in r]
    if not traced:
        raise BenchError("no traced invocation produced a record")
    problems = []
    first = traced[0]["layers"]
    counts = [name for name, value in first.items() if isinstance(value, int)]
    for rec in traced[1:]:
        for name in counts:  # rng.variates, sampler.samples, engine.collisions, ...
            if rec["layers"][name] != first[name]:
                problems.append(f"{name} differs between traced invocations: "
                                f"{first[name]} vs {rec['layers'][name]}")
    if not all(rec["nesting_ok"] for rec in traced):
        problems.append("rng/sampler time is not contained in engine time")

    def median(key, pool):
        values = [r[key] for r in pool if key in r]
        return statistics.median(values) if values else 0.0

    layers = {name: first[name] if name in counts
              else statistics.median(rec["layers"][name] for rec in traced)
              for name in first}
    layers["kernels.make_model_s"] = median("make_model_s", traced)
    layers["sampler.table_s"] = median("table_s", traced)
    micro = next((r["micro"] for r in traced if "micro" in r), None)
    if micro is None:
        raise BenchError("the traced invocation with the micro-benchmarks failed")
    layers.update(micro)
    wall_all = median("wall_s", untraced_all)
    wall_one = median("wall_s", untraced_one)
    workers = workload.workers()
    ran_engine = layers["engine.histories"] > 0
    layers["engine.scaling_efficiency"] = (
        wall_one / (workers * wall_all) if ran_engine and wall_all > 0.0 else 0.0)
    layers["trace.overhead"] = median("wall_s", traced) / wall_one if wall_one > 0.0 else 0.0
    missing = sorted({m for rec in traced for m in rec["missing_sites"]})
    if missing:
        print(f"warning: not traced, these read 0: {'; '.join(missing)}")
    return records, layers, problems


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(workload, seed: int, records: list) -> dict:
    versions = next((r["versions"] for r in records if "versions" in r), {})
    return {
        "workload": workload.name,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "workers": workload.workers(),
        **versions,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def bench_one(workload, seed: int, seconds: float, trace: bool, invoke) -> tuple[dict, bool, int, int]:
    """Run one workload; print its report; return (metrics, correct, attempted, failed)."""
    print(f"== {workload.name}: {' '.join(workload.argv('<seed>', '<out>'))}")
    if trace:
        units = metric_units("per_layer")
        records, layers, problems = run_traced(workload, seed, seconds, invoke)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        print(f"{'per-layer metric':36s} {'unit':>8s} {'value':>14s}   (median of traced invocations)")
        for name, m in metrics.items():
            print(f"{name:36s} {m['unit']:>8s} {m['value']:14.6g}")
    else:
        records, stats = run_untraced(workload, seed, seconds, invoke)
        problems = []
        units = metric_units("end_to_end")
        metrics = {name: {"value": stats[name][1], "unit": unit} for name, unit in units.items()}
        print(f"{'end-to-end metric':20s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'n':>4s}")
        for name, unit in units.items():
            q1, med, q3, n = stats[name]
            print(f"{name:20s} {unit:>6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {n:4d}")
        if workload.histories:
            per_s = sorted(workload.histories / r["wall_s"] for r in records if "wall_s" in r)
            q1, med, q3 = quartiles(per_s)
            print(f"{'histories_per_s':20s} {'1/s':>6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(per_s):4d}")
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    for r in records:
        for p in r["problems"]:
            print(f"check failed: {p}")
    for p in problems:
        print(f"self-check failed: {p}")
    print(f"failed_fraction = {failed}/{attempted} = {failed / attempted:.6g}")
    workload.summarize(records)
    print("provenance " + json.dumps(provenance(workload, seed, records)))
    return metrics, failed == 0 and not problems, attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    invoke = Invoker()
    try:
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in names:
            invoke.started = time.perf_counter()  # the time limit holds per workload
            metrics, correct, attempted, failed = bench_one(
                WORKLOADS[name], args.seed, seconds, bool(args.trace), invoke)
            prefix = f"{name}." if len(names) > 1 else ""
            result["metrics"].update({prefix + k: v for k, v in metrics.items()})
            result["correct"] &= correct
            result["attempted"] += attempted
            result["failed"] += failed
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        invoke.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
