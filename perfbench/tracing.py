"""Traced pass: spans and counters recorded from outside the program.

Each layer's public entry point is wrapped by replacing the attribute its
caller looks up (for example `experiments.build_threshold_schedule`, which
experiments imported by name).  Wrappers are thread-safe, because Monte
Carlo chunks run on worker threads, and `Tracer.restore` puts every
original attribute back and verifies it, so untraced passes never pay for
a wrapper.  Spans live in memory and are written out when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# span name -> (module, attribute the caller looks up); a dotted attribute
# patches a class member
SPANS = {
    "experiments.run": ("cli", "run_experiment"),
    "thresholds.build": ("experiments", "build_threshold_schedule"),
    "thresholds.calibrate": ("thresholds", "calibrate_delta_ladder"),
    "transfer.push": ("thresholds", "push_density"),
    "transfer.decay": ("experiments", "loss_of_memory_distance"),
    "io.cache_load": ("io", "DiskCache.load_trajectory"),
    "io.cache_store": ("io", "DiskCache.store_trajectory"),
    "io.write_csv": ("experiments", "write_csv"),
    "io.write_json": ("experiments", "write_json"),
    "montecarlo.pn": ("experiments", "estimate_Pn"),
    "montecarlo.dprime": ("experiments", "dprime_sum"),
    "montecarlo.d0": ("experiments", "d0_mixing_gap"),
    "montecarlo.exceedances": ("experiments", "estimate_exceedances"),
    "maps.orbit": ("experiments", "sequential_orbit"),
    "recurrence.en_eps": ("experiments", "measure_En_eps"),
    "recurrence.ej": ("experiments", "measure_Ej"),
    "recurrence.local": ("experiments", "local_recurrence_at"),
}

# hot inner calls: counted (and for the map step timed), never spanned
COUNTERS = {
    "maps.step": ("montecarlo", "apply_map_batch"),
    "transfer.pf_apply": ("transfer", "pf_apply"),
    "mesh.interval_mass": ("mesh", "Density.interval_mass"),
}

MC_SPANS = ("montecarlo.pn", "montecarlo.dprime", "montecarlo.d0",
            "montecarlo.exceedances")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    experiment: str | None
    thread: int
    info: dict


def _target(modules: dict, where: tuple):
    module, attr = where
    owner = modules[module]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def map_steps(name: str, call: inspect.BoundArguments) -> int:
    """Map applications per sample an estimator call performs (nominal, no early exit)."""
    args = call.arguments
    ts = args["ts"]
    if name in ("montecarlo.pn", "montecarlo.dprime"):
        return ts.n - 1
    if name == "montecarlo.exceedances":
        return max(int(i) for i in args["indices"])
    i, t, ell = args["i"], args["t"], args["ell"]
    return i + t + ell - 1 if ell > 0 else i


LAYER_MODULES = ("cli", "experiments", "thresholds", "transfer", "io", "montecarlo", "mesh")


def program_modules() -> dict:
    """The imported seqevl modules whose attributes the tracer patches."""
    return {name: sys.modules[f"seqevl.{name}"] for name in LAYER_MODULES}


class Tracer:
    def __init__(self):
        self.modules = program_modules()
        self.spans: list[Span] = []
        self.counts = defaultdict(int)
        self.totals = defaultdict(float)
        self.experiment: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, original):
        tracer = self
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                span = Span(len(tracer.spans), name, 0.0, 0.0,
                            stack[-1].id if stack else None, tracer.experiment,
                            threading.get_ident(), {})
                tracer.spans.append(span)
            if name in MC_SPANS:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                span.info["sample_steps"] = (call.arguments["n_samples"]
                                             * map_steps(name, call))
            elif name == "thresholds.calibrate":
                span.info["steps"] = len(args[0] if args else kwargs["densities"])
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name == "io.cache_load":
                span.info["hit"] = result is not None
            return result

        return wrapper

    def _counter_wrapper(self, name: str, original):
        tracer = self
        if name == "maps.step":
            def wrapper(alpha, x, *args, **kwargs):
                start = time.perf_counter()
                out = original(alpha, x, *args, **kwargs)
                spent = time.perf_counter() - start
                with tracer._lock:
                    tracer.counts["maps.step_calls"] += 1
                    tracer.counts["maps.points_stepped"] += x.size
                    tracer.totals["maps.step_s"] += spent
                return out
            return wrapper

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            inner = stack[-1].name if stack else ""
            with tracer._lock:
                tracer.counts[name + "_calls"] += 1
                if inner == "transfer.push":
                    tracer.counts[name + "_calls_in_push"] += 1
            return original(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        try:
            for table, make in ((SPANS, self._span_wrapper),
                                (COUNTERS, self._counter_wrapper)):
                for name, where in table.items():
                    owner, attr = _target(self.modules, where)
                    original = owner.__dict__[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, make(name, original))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every patched attribute and verify that it is back."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if owner.__dict__.get(attr) is not original:
                raise RuntimeError(f"failed to restore {owner.__name__}.{attr}")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by direct children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = _union((max(c.start, s.start), min(c.end, s.end))
                         for c in children[s.id] if c.end > s.start and c.start < s.end)
        out[s.id] = (s.end - s.start) - covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, kinds_seconds: dict, traced_wall: float,
                  untraced_wall: float, cache_bytes: int) -> dict:
    """Per-layer metrics of one traced pass as {name: (value, unit)}."""
    spans = tracer.spans
    selfs = self_times(spans)
    dur = defaultdict(float)
    num = defaultdict(int)
    for s in spans:
        dur[s.name] += s.end - s.start
        num[s.name] += 1
    count = tracer.counts
    steps = sum(s.info.get("steps", 0) for s in spans)
    sample_steps = sum(s.info.get("sample_steps", 0) for s in spans)
    mc_s = sum(dur[n] for n in MC_SPANS)
    push_self = sum(selfs[s.id] for s in spans if s.name == "transfer.push")
    push_steps = count["transfer.pf_apply_calls_in_push"]
    hits = sum(1 for s in spans if s.name == "io.cache_load" and s.info["hit"])
    loads = num["io.cache_load"]
    below = [(s.start, s.end) for s in spans if s.name != "experiments.run"]
    uncovered = max(0.0, traced_wall - _union(below))
    rec_s = dur["recurrence.en_eps"] + dur["recurrence.ej"] + dur["recurrence.local"]
    m = {f"experiments.{kind}_s": (sec, "s") for kind, sec in kinds_seconds.items()}
    m.update({
        "thresholds.build_s": (dur["thresholds.build"], "s"),
        "thresholds.calibrate_s": (dur["thresholds.calibrate"], "s"),
        "thresholds.calibrated_steps": (steps, "count"),
        "thresholds.calibrate_ms_per_step": (_ratio(1e3 * dur["thresholds.calibrate"], steps), "ms"),
        "mesh.interval_mass_calls": (count["mesh.interval_mass_calls"], "count"),
        "transfer.push_s": (dur["transfer.push"], "s"),
        "transfer.push_self_s": (push_self, "s"),
        "transfer.push_steps": (push_steps, "count"),
        "transfer.push_ms_per_step": (_ratio(1e3 * push_self, push_steps), "ms"),
        "transfer.pf_apply_calls": (count["transfer.pf_apply_calls"], "count"),
        "transfer.decay_s": (dur["transfer.decay"], "s"),
        "io.cache_hits": (hits, "count"),
        "io.cache_misses": (loads - hits, "count"),
        "io.cache_load_s": (dur["io.cache_load"], "s"),
        "io.cache_store_s": (dur["io.cache_store"], "s"),
        "io.cache_bytes": (cache_bytes, "B"),
        "io.write_s": (dur["io.write_csv"] + dur["io.write_json"], "s"),
        "montecarlo.s": (mc_s, "s"),
        "montecarlo.pn_s": (dur["montecarlo.pn"], "s"),
        "montecarlo.dprime_s": (dur["montecarlo.dprime"], "s"),
        "montecarlo.d0_s": (dur["montecarlo.d0"], "s"),
        "montecarlo.exceedances_s": (dur["montecarlo.exceedances"], "s"),
        "montecarlo.sample_steps": (sample_steps, "count"),
        "montecarlo.ns_per_sample_step": (_ratio(1e9 * mc_s, sample_steps), "ns"),
        "maps.step_calls": (count["maps.step_calls"], "count"),
        "maps.points_stepped": (count["maps.points_stepped"], "count"),
        "maps.step_s": (tracer.totals["maps.step_s"], "s"),
        "maps.ns_per_point": (_ratio(1e9 * tracer.totals["maps.step_s"],
                                     count["maps.points_stepped"]), "ns"),
        "maps.useful_frac": (_ratio(count["maps.points_stepped"], sample_steps), "fraction"),
        "maps.orbit_s": (dur["maps.orbit"], "s"),
        "recurrence.s": (rec_s, "s"),
        "recurrence.calls": (num["recurrence.en_eps"] + num["recurrence.ej"]
                             + num["recurrence.local"], "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.uncovered_s": (uncovered, "s"),
        "trace.uncovered_frac": (_ratio(uncovered, traced_wall), "fraction"),
    })
    return m
