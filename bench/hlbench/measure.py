"""The run loop: set-up, whole timed passes, off-clock checks, statistics.

Every workload is a closed loop with one client: the next op starts
when the previous one has returned.  A run sets up several times and
reports the median, makes one warm-up pass, then makes whole passes over
the workload's inputs until `seconds` have elapsed (and at least
MIN_PASSES of them).  Each op's result is kept for the length of its pass
and compared with the reference after the pass clock has stopped.

Times are scaled to a reference machine speed.  The host's CPU speed
swings by up to 1.8x within a minute (a 2-core VM sharing its host), and
a minute-scale swing cannot be averaged out within one run.  So the loop
stops every CAL_INTERVAL_S or so, between ops, to time a fixed
calibration computation (the benchmark's own reference evaluator on
fixed formulas; it never calls the package), and multiplies the times
measured since the last stop by CAL_REF_S / (the calibration's time).
On that VM, stretches whose raw times differed by 1.8x then agreed
within 5%.  Raw wall-clock figures are printed beside the scaled ones.

Every pass runs the same inputs in the same order, so each input is
timed once per pass; its latency is the median of its scaled times.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from array import array
from types import SimpleNamespace

from . import inputs as gen
from . import reference as ref
from .spans import Tracer

MODULES = ("formula", "worlds", "quantum", "semantics", "proof", "cli")
SETUP_REPS = 7
MIN_PASSES = 4
TAIL_RUNGS = (50, 75, 90, 95, 99, 99.5, 99.9)
TAIL_BY_INPUT = 40  # inputs a pass needs for the tail to be taken over inputs
MAX_PRINTED_MISMATCHES = 40
CAL_INTERVAL_S = 0.1
CAL_REF_S = 0.0015  # calibration time that defines the reference speed

# per-layer metrics of a traced run: these four for each of Layers.NAMES,
# then the run's own, then each workload's EXTRA_METRICS
SPAN_STATS = {"calls": "count", "busy_s": "s", "p50_ms": "ms", "fail": "count"}
RUN_METRICS = {"bench.op_self_share": "1", "trace.overhead": "1", "bench.fail_ratio": "1"}
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def package_modules() -> SimpleNamespace:
    """The package modules, imported if they are not yet."""
    return SimpleNamespace(**{m: importlib.import_module(f"hardylogic.{m}") for m in MODULES})


def import_package() -> SimpleNamespace:
    """Import `hardylogic` afresh, so that each set-up pays the module execution."""
    for name in [n for n in sys.modules if n == "hardylogic" or n.startswith("hardylogic.")]:
        del sys.modules[name]
    return package_modules()


def _model_from_text(worlds, text):
    return worlds.model_from_dict(json.loads(text))


def _report_json(report):
    return json.dumps(report.to_dict())


class Layers:
    """The public calls the workloads make, each named <module>.<function>.

    Without a tracer the attributes are the package functions themselves.
    `model_from_dict` takes model JSON text (it includes `json.loads`), and
    `report_json` is `AuditReport.to_dict` plus `json.dumps`.
    """

    NAMES = (
        "quantum.find_hardy",
        "quantum.verify_hardy",
        "quantum.export_table",
        "worlds.model_from_dict",
        "worlds.build_model",
        "formula.parse",
        "semantics.holds_globally",
        "semantics.eval_at",
        "semantics.check_theorem",
        "proof.audit",
        "proof.report_json",
    )

    def __init__(self, hl: SimpleNamespace, tracer: Tracer | None = None):
        self.hl = hl
        self.tracer = tracer
        for name in self.NAMES:
            module, function = name.split(".")
            if function == "model_from_dict":
                fn = functools.partial(_model_from_text, hl.worlds)
            elif function == "report_json":
                fn = _report_json
            else:
                fn = getattr(getattr(hl, module), function)
            setattr(self, function, fn if tracer is None else tracer.wrap(name, fn))

    def call(self, name: str, fn, *args):
        """Call `fn`, inside a span called `name` when tracing."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.wrap(name, fn)(*args)


class Raised:
    """Stands in for the result of an op that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


# ---------------------------------------------------------------------------
# Statistics

def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_rung(samples: int) -> float:
    """Highest rung that leaves at least ten of `samples` beyond it."""
    return max(p for p in TAIL_RUNGS if samples * (100 - p) / 100 >= 10 or p == TAIL_RUNGS[0])


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


class Calibration:
    """A fixed computation whose time tracks the host's current speed."""

    def __init__(self):
        rng = random.Random("calibration")
        self.model = ref.RefModel(ref.possible_worlds(gen.random_table(rng)))
        spines = [(), ("cf",), ("strict",), ("strict", "cf")] * 8
        self.formulas = [gen.shaped_formula(rng, s, gen.CHOICES_R) for s in spines]
        self.last = self.measure()
        self.factors: list[float] = []

    def measure(self) -> float:
        t0 = time.perf_counter()
        for f in self.formulas:
            self.model.truth_set(f)
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor to reference speed for the time since the previous call."""
        now = self.measure()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        return factor

    def typical(self) -> float:
        """The run's median factor, for times not bracketed one by one."""
        return statistics.median(self.factors)


# ---------------------------------------------------------------------------

class Run:
    """One measured run of one workload."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.samples = {False: [], True: []}  # per pass, scaled op times, by traced
        self.throughput = {False: [], True: []}  # raw wall-clock, per pass, by traced
        self.calibration = Calibration()
        self.passes = 0
        self.op_ids = 0

    def execute(self) -> None:
        t_begin = time.perf_counter()
        self.setup_times = []  # scaled
        self.raw_setup_times = []
        self.calibration.scale()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            hl = import_package()
            L = Layers(hl, self.tracer)
            self.w.setup(L)
            self.raw_setup_times.append(time.perf_counter() - t0)
            self.setup_times.append(self.raw_setup_times[-1] * self.calibration.scale())
        self.plain = Layers(hl)
        self.traced = L if self.trace else None
        self.first_op_s = time.perf_counter() - t_begin

        self._pass(0, traced=False, timed=False)  # warm-up, checked but not timed
        deadline = time.perf_counter() + self.seconds
        k = 1
        while k <= MIN_PASSES or time.perf_counter() < deadline:
            # a traced run alternates untraced and traced passes, so one run
            # gives both throughputs and so the tracing overhead
            traced = self.trace and k % 2 == 0
            self._pass(k, traced=traced, timed=True)
            if traced:
                self.w.after_traced_pass(self)
            k += 1
        self.passes = k - 1

    def _pass(self, k: int, traced: bool, timed: bool) -> None:
        inputs = self.w.inputs(k)
        n = len(inputs)
        results = [None] * n
        lat = array("d", bytes(8 * n))
        clock = time.perf_counter
        gc.collect()
        self.calibration.scale()
        wall = 0.0
        start = 0
        while start < n:
            t_chunk = clock()
            end = self._time_ops(inputs, results, lat, start, traced, t_chunk + CAL_INTERVAL_S)
            wall += clock() - t_chunk
            factor = self.calibration.scale()
            for i in range(start, end):
                lat[i] *= factor
            start = end
        self.op_ids += n
        if timed:
            self.throughput[traced].append(n / wall)
            self.samples[traced].append(lat)
        for i, (x, result) in enumerate(zip(inputs, results)):
            self.record(f"pass {k} op {i}", self.w.check(k, i, x, result))

    def _time_ops(self, inputs, results, lat, start, traced, until) -> int:
        """Run ops from `start` until the time `until` has passed; return where it stopped."""
        op = self.w.op
        clock = time.perf_counter
        i = start
        if traced:
            L, tracer, op_name = self.traced, self.tracer, f"op.{self.w.name}"
            while i < len(inputs):
                span = tracer.begin_op(op_name, self.op_ids + i)
                t0 = clock()
                try:
                    results[i] = op(L, inputs[i])
                except Exception as exc:  # an op that raises is a failed op
                    results[i] = Raised(exc)
                t1 = clock()
                lat[i] = t1 - t0
                tracer.end_op(span, not isinstance(results[i], Raised))
                i += 1
                if t1 >= until:
                    break
        else:
            L = self.plain
            while i < len(inputs):
                t0 = clock()
                try:
                    results[i] = op(L, inputs[i])
                except Exception as exc:  # an op that raises is a failed op
                    results[i] = Raised(exc)
                t1 = clock()
                lat[i] = t1 - t0
                i += 1
                if t1 >= until:
                    break
        return i

    def record(self, where: str, problem: str | None) -> None:
        """Count one checked op; print its mismatch, if any."""
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if len(self.mismatches) < MAX_PRINTED_MISMATCHES:
            self.mismatches.append(f"{self.w.name} {where}: {problem}")

    # -- results ------------------------------------------------------------

    def typical(self, traced: bool) -> list[float]:
        """Each input's median scaled time over the timed passes."""
        passes = self.samples[traced]
        return [statistics.median(p[i] for p in passes) for i in range(len(passes[0]))]

    def tail_samples(self) -> list[float]:
        """What the tail percentile is taken over, ascending.

        With at least TAIL_BY_INPUT inputs a pass, the inputs' median
        times, so that ten different inputs lie beyond the percentile;
        with fewer, every timed op of the untraced passes.
        """
        if self.w.ops_per_pass >= TAIL_BY_INPUT:
            return sorted(self.typical(False))
        return sorted(t for p in self.samples[False] for t in p)

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        lat = self.typical(False)
        per_input = self.w.ops_per_pass >= TAIL_BY_INPUT
        self.tail_pct = tail_rung(self.w.ops_per_pass * (1 if per_input else MIN_PASSES))
        values = {
            "setup_s": statistics.median(self.setup_times),
            "ops_per_s": len(lat) / sum(lat),
            "op_ms.p50": 1000 * statistics.median(lat),
            "op_ms.tail": 1000 * percentile(self.tail_samples(), self.tail_pct),
            "peak_rss_mb": peak_rss_mb(children=self.w.in_children),
        }
        return {name: (values[name], unit) for name, unit in END_TO_END.items()}

    def per_layer(self) -> dict[str, tuple[float, str]]:
        factor = self.calibration.typical()
        summary = {
            name: {key: v * factor if key.endswith(("_s", "_ms")) else v for key, v in s.items()}
            for name, s in self.tracer.summary().items()
        }
        out = {}
        for name in Layers.NAMES:
            s = summary.get(name, {})
            for stat, unit in SPAN_STATS.items():
                out[f"{name}.{stat}"] = (s.get(stat, 0), unit)
        op = summary.get(f"op.{self.w.name}")
        values = {
            "bench.op_self_share": op["busy_s"] / op["total_s"] if op else 0.0,
            "trace.overhead": sum(self.typical(True)) / sum(self.typical(False)) - 1,
            "bench.fail_ratio": self.failed / self.attempted,
        }
        out.update({name: (values[name], unit) for name, unit in RUN_METRICS.items()})
        out.update(self.w.extras(self, summary))
        return out
