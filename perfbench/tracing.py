"""Per-layer spans and counters, recorded from outside the program.

The modules of ``qvirial`` are the layers.  ``Recorder.install`` replaces each
layer's public functions at the names their callers look them up by (for
example ``qvirial.thermo.compose``, which ``virial_coefficients`` calls, and
``qvirial.cli.virial_coefficients``, which the subcommands call) with wrappers
that record a span: name, start, end, parent span and job.  Ring operations of
the ``exact`` layer are too many and too small for spans and are counted only.
Spans stay in memory and are written once, by ``Recorder.write``.

Self time of a span is its duration minus the durations of its direct child
spans.  ``<layer>.self_s`` sums the self time of the layer's spans;
``<span>_s`` sums the durations of a span name's outermost occurrences
(children included) and ``<span>_calls`` counts every occurrence.

One rule covers every metric.  A count (calls, ring operations, output bytes)
is a count of events and reads 0 when none happened.  A time, a ratio or a
maximum is defined only over at least one event: a span time or layer self
time whose spans never fired, the sweep overlap of a run without sweeps, and
ring sizes when no surd value came back are absent from the metrics, not 0.
"""

from __future__ import annotations

import importlib
import json
import time

LAYERS = ("cli", "thermo", "series", "structfn", "exact", "perturb")

# (module:attribute, span name).  One span name may cover several lookup
# names, e.g. particle_series as called by cmd_series and inside thermo.
SPANS = (
    ("qvirial.cli:main", "cli.main"),
    ("qvirial.cli:parse_descriptor", "structfn.parse"),
    ("qvirial.cli:eval_eps", "structfn.expand"),
    ("qvirial.cli:monomial_expansion", "structfn.expand"),
    ("qvirial.series:eval_structure", "structfn.eval"),
    ("qvirial.thermo:eval_structure", "structfn.eval"),
    ("qvirial.cli:virial_coefficients", "thermo.virial"),
    ("qvirial.cli:particle_series", "thermo.particle"),
    ("qvirial.thermo:particle_series", "thermo.particle"),
    ("qvirial.cli:pressure_series", "thermo.pressure"),
    ("qvirial.cli:fugacity_of_density", "thermo.fugacity"),
    ("qvirial.cli:closed_form_virial", "thermo.closed_form"),
    ("qvirial.cli:second_virial_deviation", "thermo.deviation"),
    ("qvirial.thermo:compose", "series.compose"),
    ("qvirial.thermo:revert", "series.revert"),
    ("qvirial.thermo:jackson_apply", "series.jackson"),
    ("qvirial.thermo:euler_inverse", "series.euler_inverse"),
    ("qvirial.series:PowerSeries.__mul__", "series.mul"),
    ("qvirial.cli:to_decimal", "exact.to_decimal"),
    ("qvirial.exact:SurdRational.render", "exact.render"),
    ("qvirial.exact:TruncPoly.render", "exact.render"),
    ("qvirial.cli:hamiltonian_split", "perturb.split"),
    ("qvirial.cli:two_param_split", "perturb.split"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, name in SPANS))

COUNTERS = (
    ("qvirial.exact:SurdRational.__mul__", "exact.surd_mul_calls"),
    ("qvirial.exact:SurdRational.__rmul__", "exact.surd_mul_calls"),
    ("qvirial.exact:SurdRational.__add__", "exact.surd_add_calls"),
    ("qvirial.exact:SurdRational.__radd__", "exact.surd_add_calls"),
    ("qvirial.exact:TruncPoly.__mul__", "exact.truncpoly_mul_calls"),
    ("qvirial.exact:TruncPoly.__rmul__", "exact.truncpoly_mul_calls"),
)
COUNTER_NAMES = tuple(dict.fromkeys(name for _, name in COUNTERS))

SIZE_NAMES = ("exact.max_radicands", "exact.max_num_bits", "exact.max_den_bits")


# Metrics that are absent on some workload, because the spans or values they
# are taken over never occur there.  They are printed where present and kept in
# the span file, but BENCHMARK.json declares only metrics that every workload
# measures.
SOMETIMES_ABSENT = (
    "structfn.expand_s", "thermo.pressure_s", "thermo.fugacity_s", "thermo.closed_form_s",
    "thermo.deviation_s", "exact.render_s", "perturb.split_s", "perturb.self_s",
    "cli.sweep_overlap",
) + SIZE_NAMES


def metric_units(declared_only: bool = True) -> dict[str, str]:
    """Per-layer metrics with their units: the ones declared in BENCHMARK.json,
    or with declared_only=False every one a traced run may report."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update({name: "count" for name in COUNTER_NAMES})
    units.update({"exact.max_radicands": "count", "exact.max_num_bits": "bits", "exact.max_den_bits": "bits"})
    units.update({"cli.output_bytes": "bytes", "cli.sweep_overlap": "1", "trace.overhead_ratio": "1"})
    if declared_only:
        for name in SOMETIMES_ABSENT:
            del units[name]
    return units


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Recorder:
    """Holds spans, counters and the values thermo returned, for one process."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, job]
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.job = -1
        self._stack: list[tuple[int, str]] = []
        self._returned: list = []

    def install(self) -> None:
        for target, name in SPANS:
            owner, attr = _resolve(target)
            setattr(owner, attr, self._spanned(getattr(owner, attr), name))
        for target, name in COUNTERS:
            owner, attr = _resolve(target)
            setattr(owner, attr, self._counted(getattr(owner, attr), name))

    def _spanned(self, fn, name: str):
        spans, stack, returned = self.spans, self._stack, self._returned
        keep_result = name.startswith("thermo.")

        def wrapper(*args, **kwargs):
            parent, parent_name = stack[-1] if stack else (-1, "")
            index = len(spans)
            spans.append(None)
            stack.append((index, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, self.job]
            if keep_result and not parent_name.startswith("thermo."):
                returned.append(result)  # scanned for ring sizes in write()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def ring_sizes(self) -> dict[str, int]:
        """Largest radicand count and numerator/denominator bits over every
        coefficient that thermo returned to its callers; empty if none was a
        surd value."""
        from qvirial.exact import SurdRational, TruncPoly
        from qvirial.series import PowerSeries
        from qvirial.thermo import VirialTable

        sizes: dict[str, int] = {}
        for value in self._returned:
            if isinstance(value, VirialTable):
                items = value.values
            elif isinstance(value, PowerSeries):
                items = value.coeffs
            else:
                items = (value,)
            for item in items:
                if isinstance(item, TruncPoly):
                    surds = item.coeffs.values()
                elif isinstance(item, SurdRational):
                    surds = (item,)
                else:
                    continue
                for surd in surds:
                    terms = surd.terms
                    found = {
                        "exact.max_radicands": len(terms),
                        "exact.max_num_bits": max((abs(c.numerator).bit_length() for c in terms.values()), default=0),
                        "exact.max_den_bits": max((c.denominator.bit_length() for c in terms.values()), default=0),
                    }
                    for name, size in found.items():
                        sizes[name] = max(sizes.get(name, 0), size)
        return sizes

    def write(self, path: str, jobs: list[dict]) -> dict:
        """Write every span to `path` as JSON and return the per-layer metrics."""
        metrics = layer_metrics(self.spans, jobs)
        metrics.update(self.counts)
        metrics.update(self.ring_sizes())
        absent = [name for name in SPAN_NAMES if not metrics[f"{name}_calls"]]
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "job"],
                "jobs": [job["argv"] for job in jobs],
                "spans": [[n, s - origin, e - origin, p, j] for n, s, e, p, j in self.spans],
                "counts": self.counts,
                "absent": absent,
            }, handle)
        return {"metrics": metrics}


def layer_metrics(spans: list, jobs: list[dict]) -> dict[str, float]:
    """Self times, per-span totals and call counts, sweep overlap and output
    size.  Times and the overlap are left out where no span fired."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    metrics: dict[str, float] = {f"{name}_calls": 0 for name in SPAN_NAMES}
    virial_in_sweeps = sweep_wall = 0.0
    for index, (name, start, end, parent, job) in enumerate(spans):
        duration = end - start
        layer_self = f"{name.split('.')[0]}.self_s"
        metrics[layer_self] = metrics.get(layer_self, 0.0) + duration - child_time[index]
        metrics[f"{name}_calls"] += 1
        if not _has_ancestor(spans, index, name):
            metrics[f"{name}_s"] = metrics.get(f"{name}_s", 0.0) + duration
        if jobs[job]["argv"][0] == "sweep":
            if name == "cli.main":
                sweep_wall += duration
            elif name == "thermo.virial":
                virial_in_sweeps += duration

    if sweep_wall:
        metrics["cli.sweep_overlap"] = virial_in_sweeps / sweep_wall
    metrics["cli.output_bytes"] = sum(len(job["stdout"].encode("utf-8")) for job in jobs)
    return metrics


def _has_ancestor(spans: list, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
