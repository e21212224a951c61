"""Span and counter recording around seqchaos's public entry points.

:func:`install` replaces module attributes (including names re-bound by
``from ... import``) and the ``series``/``coordinates`` methods of the
observable and point classes with wrappers that record a span per call
and count the work at that boundary.  The wrappers call the original
function with the same arguments and return its result unchanged, so
traced runs must write the same artifact bytes as untraced ones.

Spans are kept in memory as ``[name, start_ns, end_ns, parent]`` and
written out by the caller.  A span's self time is its duration minus the
durations of its direct children.  Calls made inside pool worker
processes are not recorded: their time shows as the self time of the
``pool.parallel_map`` span that waits for them.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from time import perf_counter_ns

import numpy as np

from seqchaos import averaging, chaos, cli, observables, pinsker, pool, prf, seqgen, systems

# Span names; each owns one ``<name>.self_s`` metric.  Their self times
# plus ``unattributed_s`` add up to the traced wall time.
SPANS = (
    "cli.run_config",
    "seqgen.times_array",
    "seqgen.close_pair_profile",
    "prf.prf64_np",
    "systems.rotation_orbit_fractions",
    "systems.coordinates",
    "observables.series",
    "averaging.ergodic_average",
    "chaos.distance_series",
    "chaos.tuple_distance_averages",
    "chaos.build_scrambled_family",
    "chaos.verify_scrambled",
    "pinsker",
    "pool.parallel_map",
    "reporting.write",
)


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.saw_prf: set[int] = set()  # open distance_series spans that evaluated the PRF
        self.times_cache = None  # the lru_cache behind seqgen.times_array

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` runs before the span opens and its value
        is passed on as ``after(state, args, kwargs, result, span_index)``,
        which runs once the span has closed.
        """
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != rec.pid:
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before else None
            index = len(rec.spans)
            span = [name, 0, 0, rec.stack[-1] if rec.stack else -1]
            rec.spans.append(span)
            rec.stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                rec.stack.pop()
            if after:
                after(state, args, kwargs, result, index)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: 0.0 for name in SPANS}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            out[name] += (end - start - inner) / 1e9
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0) / 1e9


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def install(rec: Recorder) -> None:
    """Wrap every traced entry point; the process stays traced until exit."""
    counts = rec.counts

    def add(key, amount):
        def after(state, args, kwargs, result, index):
            counts[key] += amount(args, kwargs, result)
        return after

    def outermost(key, amount):
        # nested calls (a ShiftedPoint reading its base, a ProductOf
        # evaluating its factors) would count the same work twice
        def before(args, kwargs):
            return rec.parent_name()

        def after(parent, args, kwargs, result, index):
            if parent != rec.spans[index][0]:
                counts[key] += amount(args, kwargs, result)
        return before, after

    # seqgen.times_array: terms are generated only on a cache miss
    cached = seqgen.times_array

    def misses_before(args, kwargs):
        return cached.cache_info().misses

    def times_after(misses, args, kwargs, result, index):
        if cached.cache_info().misses > misses:
            counts["seqgen.times_array.terms"] += len(result)

    rec.times_cache = cached
    times_array = rec.wrap("seqgen.times_array", cached, misses_before, times_after)
    for mod in (seqgen, averaging, chaos):
        mod.times_array = times_array

    seqgen.close_pair_profile = rec.wrap(
        "seqgen.close_pair_profile", seqgen.close_pair_profile,
        after=add("seqgen.close_pair_profile.terms",
                  lambda a, k, r: max(_arg(a, k, 2, "checkpoints"))),
    )

    def prf_after(state, args, kwargs, result, index):
        counts["prf.prf64_np.evals"] += int(np.size(_arg(args, kwargs, 1, "counters")))
        rec.saw_prf.update(i for i in rec.stack if rec.spans[i][0] == "chaos.distance_series")

    prf64_np = rec.wrap("prf.prf64_np", prf.prf64_np, after=prf_after)
    prf.prf64_np = prf64_np
    systems.prf64_np = prf64_np

    systems.rotation_orbit_fractions = rec.wrap(
        "systems.rotation_orbit_fractions", systems.rotation_orbit_fractions,
        after=add("systems.rotation_orbit_fractions.points",
                  lambda a, k, r: len(_arg(a, k, 2, "times"))),
    )

    before, after = outermost(
        "systems.coordinates.indices", lambda a, k, r: int(np.size(_arg(a, k, 1, "indices")))
    )
    for cls in (systems.SymbolicPoint, *_subclasses(systems.SymbolicPoint)):
        if "coordinates" in vars(cls):
            cls.coordinates = rec.wrap("systems.coordinates", cls.coordinates, before, after)

    before, after = outermost(
        "observables.series.values", lambda a, k, r: len(_arg(a, k, 3, "times"))
    )
    for cls in (observables.Observable, *_subclasses(observables.Observable)):
        if "series" in vars(cls):
            cls.series = rec.wrap("observables.series", cls.series, before, after)

    ergodic_average = rec.wrap(
        "averaging.ergodic_average", averaging.ergodic_average,
        after=add("averaging.ergodic_average.terms", lambda a, k, r: _arg(a, k, 4, "n_terms")),
    )
    averaging.ergodic_average = ergodic_average
    pinsker.ergodic_average = ergodic_average

    def distance_after(state, args, kwargs, result, index):
        counts["chaos.distance_series.pair_terms"] += len(_arg(args, kwargs, 3, "times"))
        counts["chaos.distance_series.calls"] += 1
        if index in rec.saw_prf:
            rec.saw_prf.discard(index)
            counts["chaos.distance_series.window_calls"] += 1

    chaos.distance_series = rec.wrap("chaos.distance_series", chaos.distance_series,
                                     after=distance_after)
    for name in ("tuple_distance_averages", "build_scrambled_family", "verify_scrambled"):
        setattr(chaos, name, rec.wrap(f"chaos.{name}", getattr(chaos, name)))

    for name in ("fiber_constancy_report", "kolmogorov_limit_check",
                 "lacunary_dispersion_contrast", "lacunary_contrast_report"):
        setattr(pinsker, name, rec.wrap("pinsker", getattr(pinsker, name)))

    def pool_after(state, args, kwargs, result, index):
        counts["pool.parallel_map.items"] += len(_arg(args, kwargs, 1, "items"))
        workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
        counts["pool.workers"] = max(counts["pool.workers"], workers)

    parallel_map = rec.wrap("pool.parallel_map", pool.parallel_map, after=pool_after)
    for mod in (pool, averaging, chaos, pinsker):
        mod.parallel_map = parallel_map

    def written(state, args, kwargs, result, index):
        counts["reporting.write.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    cli.write_json = rec.wrap("reporting.write", cli.write_json, after=written)
    cli.write_csv = rec.wrap("reporting.write", cli.write_csv, after=written)

    cli.run_config = rec.wrap("cli.run_config", cli.run_config)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def finish(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Timings of one traced pass of ``wall_s`` seconds; fills the cache counts."""
    info = rec.times_cache.cache_info()
    rec.counts["seqgen.times_array.hits"] = info.hits
    rec.counts["seqgen.times_array.misses"] = info.misses
    timings = {f"{name}.self_s": s for name, s in rec.self_times().items()}
    timings["unattributed_s"] = wall_s - rec.root_seconds()
    timings["pool.parallel_map.s"] = sum(
        (end - start) / 1e9 for name, start, end, _ in rec.spans if name == "pool.parallel_map"
    )
    return timings
