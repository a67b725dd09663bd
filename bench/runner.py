"""One workload invocation in a fresh process; prints one JSON record.

    python3 bench/runner.py --spec '<json>'

The spec names the CLI argv, the workload's path-length law and medium,
whether to trace, and the micro-benchmark seed (null: no micro-benchmarks). The record holds:

* set-up: the time to import the package, call ``make_model`` for the law
  and make the first ``sample_path`` call (which builds the lazy sp3 table);
* the wall time and exit code of one ``cli.main(argv)`` call, with the CPU
  time and peak RSS of this process and its pool children;
* when traced, the per-layer metrics and micro-benchmark rates.

A fresh process per invocation is what a CLI user pays for, and it keeps
peak RSS and CPU time per invocation. Run by ``bench/run.py``, which sets
PYTHONPATH to the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

MICRO_SIZE = 1 << 16  # elements per micro-benchmark array
MICRO_BUDGET_S = 0.25  # seconds per micro-benchmark
LAWS = ("classical", "diffusion", "sp2", "sp3")


def _rusage():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0  # Linux reports KiB


def _median_rate(fn, items: int) -> float:
    """Median items/s over repeated calls of fn, for about MICRO_BUDGET_S."""
    fn()  # warm caches and lazy state
    rates = []
    stop = time.perf_counter() + MICRO_BUDGET_S
    while len(rates) < 5 or time.perf_counter() < stop:
        start = time.perf_counter()
        fn()
        rates.append(items / (time.perf_counter() - start))
    rates.sort()
    return rates[len(rates) // 2]


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def micro_benchmarks(seed: int) -> dict:
    """Layer rates on fixed arrays of MICRO_SIZE elements drawn from seed."""
    import numpy as np

    from nonclassical_mc import kernels, rng, sampler

    gen = np.random.default_rng([seed, 0x5EED])
    counters = gen.integers(0, 1 << 40, MICRO_SIZE, dtype=np.uint64)
    keys = gen.integers(0, 1 << 40, MICRO_SIZE, dtype=np.uint64)
    xi = gen.random(MICRO_SIZE)
    out = {"rng.blocks_per_s": _median_rate(
        lambda: rng.philox4x64_block(counters, np.uint64(seed), keys), MICRO_SIZE)}
    xs = kernels.CrossSectionSpec(1.0, 0.5)
    for law in LAWS:
        model = kernels.make_model(law, xs)
        out[f"sampler.{law}.samples_per_s"] = _median_rate(
            lambda: sampler.sample_path(model, xi), MICRO_SIZE)
    return out


def main() -> int:
    spec = json.loads(sys.argv[sys.argv.index("--spec") + 1])
    clock = time.perf_counter
    t0 = clock()
    import nonclassical_mc
    from nonclassical_mc import cli, kernels, sampler

    t1 = clock()
    model = kernels.make_model(spec["law"], kernels.CrossSectionSpec(1.0, spec["sigma_s"]))
    t2 = clock()
    sampler.sample_path(model, 0.5)
    t3 = clock()
    import numpy
    import scipy

    record = {
        "package_file": nonclassical_mc.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "package": nonclassical_mc.__version__},
        "setup_s": t3 - t0,
        "make_model_s": t2 - t1,
    }
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        # the first sp3 sample builds the 2,048-knot quantile table
        if spec["law"] == "sp3":
            record["table_s"] = t3 - t2
        else:
            sp3 = kernels.make_model("sp3", model.xs)
            record["table_s"] = _timed(sampler.sample_path, sp3, 0.5)
        tracer = Tracer()
        tracer.install()
    cpu0, _ = _rusage()
    start = clock()
    with contextlib.redirect_stdout(io.StringIO()):  # stdout carries only the record
        code = cli.main(spec["argv"])
    record["wall_s"] = clock() - start
    cpu1, rss = _rusage()
    record.update(exit_code=code, cpu_s=cpu1 - cpu0, peak_rss_mb=rss)
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        record["nesting_ok"] = tracer.nesting_ok()
        record["missing_sites"] = sorted(tracer.missing)
        if spec["micro_seed"] is not None:
            record["micro"] = micro_benchmarks(spec["micro_seed"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
