"""Outside-in per-layer tracing of one CLI invocation.

The tracer replaces the module-level names that the package's callers look
up at call time (``engine.uniforms_at``, ``engine.sample_path``,
``cli.simulate``, ...) with wrappers that add wall time and counts, and puts
the originals back afterwards. Nothing in the package changes. Each wrapper
times only the call it wraps; its own bookkeeping falls outside that span,
so it lands in the caller's self time, which ``trace.overhead`` bounds.

The wrappers only see calls made in the process that installed them, so a
traced invocation runs with NONCLASSICAL_MC_WORKERS=1 (no pool).
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Accumulated busy time and counts per wrapped call site."""

    # (module, attribute) pairs looked up at call time by the package
    SITES = (
        ("engine", "uniforms_at"),
        ("engine", "sample_path"),
        ("cli", "simulate"),
        ("cli", "solve_integral_equation"),
        ("cli", "shell_average_from_function"),
        ("reference", "collision_matrix"),
        ("reference", "RadialSolution.shell_averages"),
        ("cli", "main"),
    )

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.values = {}
        self.missing = set()
        self._saved = []
        self._in_engine = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for module_name, attr in self.SITES:
            try:
                owner = importlib.import_module(f"nonclassical_mc.{module_name}")
            except ImportError:
                owner = None
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
                continue
            hook = getattr(self, "_after_" + name, None)
            setattr(owner, name, self._wrap(f"{module_name}.{attr}", original, hook))
            self._saved.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, key, original, hook):
        clock = time.perf_counter
        engine = key == "cli.simulate"

        def wrapper(*args, **kwargs):
            if engine:
                self._in_engine += 1
            elif key.startswith("engine.") and not self._in_engine:
                self.counts["outside_engine"] += 1
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                self.busy[key] += clock() - start
                self.calls[key] += 1
                if engine:
                    self._in_engine -= 1
            if hook is not None:
                try:
                    hook(args, out)
                except (AttributeError, IndexError, TypeError) as exc:
                    # a changed call signature or result type: the site's
                    # counts go missing, the invocation itself goes on
                    self.missing.add(f"{key} counters ({exc!r})")
            return out

        return wrapper

    # -- per-site counters (run after the timed span) --------------------

    def _after_uniforms_at(self, args, out):
        self.counts["variates"] += int(np.size(out))

    def _after_sample_path(self, args, out):
        self.counts["samples"] += int(np.size(out))
        self.counts["zero_length"] += int(np.count_nonzero(np.asarray(out) == 0.0))

    def _after_simulate(self, args, result):
        self.counts["histories"] += int(result.histories)
        self.counts["collisions"] += int(round(result.collisions_per_history * result.histories))
        self.counts["faults"] += int(result.faults)
        self.counts["capped"] += int(result.capped)

    def _after_solve_integral_equation(self, args, solution):
        xs = args[1]
        self.counts["iterations"] += int(solution.iterations)
        self.counts["nodes"] = int(solution.grid.nodes.size)
        self.values["residual"] = float(solution.residual)
        self.values["mass_error"] = abs((1.0 - xs.c) * solution.volume_integral() - 1.0)

    # -- layer metrics ----------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (0 where unused)."""
        b, n, k = self.busy, self.calls, self.counts

        def rate(num, den):
            return num / den if den > 0.0 else 0.0

        rng_s = b["engine.uniforms_at"]
        smp_s = b["engine.sample_path"]
        eng_s = b["cli.simulate"]
        solve_s = b["cli.solve_integral_equation"]
        matrix_s = b["reference.collision_matrix"]
        shell_s = b["cli.shell_average_from_function"] + b["reference.RadialSolution.shell_averages"]
        return {
            "rng.calls": n["engine.uniforms_at"],
            "rng.variates": k["variates"],
            "rng.busy_s": rng_s,
            "rng.variates_per_s": rate(k["variates"], rng_s),
            "rng.share": rate(rng_s, eng_s),
            "sampler.calls": n["engine.sample_path"],
            "sampler.samples": k["samples"],
            "sampler.busy_s": smp_s,
            "sampler.samples_per_s": rate(k["samples"], smp_s),
            "sampler.zero_length_fraction": rate(k["zero_length"], k["samples"]),
            "engine.busy_s": eng_s,
            "engine.self_s": eng_s - rng_s - smp_s if eng_s > 0.0 else 0.0,
            "engine.histories": k["histories"],
            "engine.collisions": k["collisions"],
            "engine.collisions_per_s_per_core": rate(k["collisions"], eng_s),
            "engine.lockstep_steps": n["engine.sample_path"],
            "engine.lanes_per_step": rate(k["samples"], n["engine.sample_path"]),
            "engine.faults": k["faults"],
            "engine.capped": k["capped"],
            "reference.matrix_s": matrix_s,
            "reference.solve_s": solve_s - matrix_s,
            "reference.iterations": k["iterations"],
            "reference.residual": self.values.get("residual", 0.0),
            "reference.nodes": k["nodes"],
            "reference.mass_error": self.values.get("mass_error", 0.0),
            "reference.shell_average_s": shell_s,
            "cli.self_s": b["cli.main"] - eng_s - solve_s - shell_s,
        }

    def nesting_ok(self) -> bool:
        """rng and sampler spans all lie inside engine spans, so
        rng.busy_s + sampler.busy_s + engine.self_s == engine.busy_s holds
        as a decomposition of engine time, not just as arithmetic."""
        m = self.layer_metrics()
        parts = m["rng.busy_s"] + m["sampler.busy_s"] + m["engine.self_s"]
        return (self.counts["outside_engine"] == 0 and m["engine.self_s"] >= 0.0
                and math.isclose(parts, m["engine.busy_s"], rel_tol=1e-9, abs_tol=1e-12))
