"""Per-layer tracing installed from outside the program.

The layers are pwnorm's modules.  ``install`` replaces each boundary
function below, at its module attribute and at every name another pwnorm
module imported it under, by a wrapper that records a span (layer, op,
parent span, start, end) and adds the boundary's work counts.  A call
that re-enters a layer already open on the stack (recursion, or a
family restricting its children) stays inside the outer span.  Weight
evaluation is only counted, at the outermost ``value_at`` of each
evaluation, because a span per point would swamp the layers around it.

Spans stay in memory until ``write`` saves them at the end of the run.
A boundary missing from the program is skipped, and a count that cannot
be read off a changed signature stays 0, so the trace keeps running
when internals move.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable

Hook = Callable[[tuple, dict, object], tuple[int, ...]]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# (module, function or Class.method, layer, counts calls,
#  work counts, hook(args, kwargs, result) -> one value per work count)
BOUNDARIES: list[tuple[str, str, str, bool, tuple[str, ...], Hook | None]] = [
    ("config", "parse_config", "config.parse_build", True, (), None),
    ("config", "build_space", "config.parse_build", False, (), None),
    ("cli", "main", "cli.main", True, (), None),
    ("cli", "read_vector", "cli.read_vector", True, ("lines",),
     lambda a, k, r: (len(r.entries) + len(r.blocks),)),
    ("vectors", "SparseVector.support", "vectors.support", True, ("points",),
     lambda a, k, r: (len(r),)),
    ("families", "restrict_family", "families.restrict_family", True, ("points", "pairs"),
     lambda a, k, r: (len(r[0].support), len(r))),
    ("families", "glue_restrictions", "families.glue_restrictions", True, (), None),
    ("partitions", "restrict_pair", "partitions.restrict_pair", True, ("points",),
     lambda a, k, r: (len(r.support),)),
    ("partitions", "RestrictedPair.restrict_to", "partitions.restrict_to", True, (), None),
    ("norms", "family_norm", "norms.family_norm", True, ("members",),
     lambda a, k, r: (r.candidates_evaluated,)),
    ("norms", "pair_norm", "norms.pair_norm", True, ("points",),
     lambda a, k, r: (len(_arg(a, k, 1, "rp").support),)),
    ("norms", "member_norm_intensional", "norms.member_norm_intensional", True, (), None),
    ("envelope", "envelope_norm_exact", "envelope.envelope_norm_exact", True, ("assignments",),
     lambda a, k, r: (r[0].candidates_evaluated,)),
    ("envelope", "assignment_pair", "envelope.assignment_pair", True, (), None),
    ("envelope", "has_envelope_property", "envelope.has_envelope_property", True,
     ("refinements",), lambda a, k, r: (r.checked,)),
    ("envelope", "distortion_certificate", "envelope.distortion_certificate", True, (), None),
    ("envelope", "xp_envelope_subset", "envelope.xp_envelope_subset", True, ("candidates",),
     lambda a, k, r: (r.candidates_evaluated,)),
    ("experiments", "yn_sums", "experiments.yn_sums", True, ("points",),
     lambda a, k, r: (_arg(a, k, 0, "x").support_size,)),
    ("experiments", "rosenthal_mc", "experiments.rosenthal_mc", True, ("samples",),
     lambda a, k, r: (r.samples,)),
]

# per-unit costs: (metric, layer, work count, seconds -> unit factor, unit);
# the time is the layer's whole span, children included
PER_UNIT = [
    ("cli.read_vector.us_per_line", "cli.read_vector", "lines", 1e6, "us"),
    ("families.restrict_family.us_per_point", "families.restrict_family", "points", 1e6, "us"),
    ("partitions.restrict_pair.us_per_point", "partitions.restrict_pair", "points", 1e6, "us"),
    ("norms.pair_norm.us_per_point", "norms.pair_norm", "points", 1e6, "us"),
    ("envelope.envelope_norm_exact.ns_per_assignment", "envelope.envelope_norm_exact",
     "assignments", 1e9, "ns"),
    ("envelope.xp_envelope_subset.ns_per_candidate", "envelope.xp_envelope_subset",
     "candidates", 1e9, "ns"),
    ("experiments.rosenthal_mc.ns_per_sample", "experiments.rosenthal_mc", "samples", 1e9, "ns"),
]


def _layers() -> list[str]:
    return list(dict.fromkeys(layer for _, _, layer, *_ in BOUNDARIES))


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in _layers():
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        for _, _, name, _, counts, _ in BOUNDARIES:
            if name == layer:
                units.update((f"{layer}.{count}", "count") for count in counts)
    units["weights.value_at.calls"] = "count"
    units["weights.value_at.per_point"] = "calls/point"
    units["envelope.finalists_per_search"] = "count"
    for metric, _, _, _, unit in PER_UNIT:
        units[metric] = unit
    return units


class Tracer:
    """Spans and counts of one traced run."""

    def __init__(self) -> None:
        self.layers = _layers()
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self._open = [0] * len(self.layers)
        self._stack: list[int] = []
        self.span_layer = array("l")
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._in_weight = False
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, layer, count_calls, count_names, hook):
        lid = self._layer_id[layer]
        counts = self.counts
        calls_key = f"{layer}.calls"
        count_keys = [f"{layer}.{name}" for name in count_names]

        def traced(*args, **kwargs):
            if self._open[lid]:
                return fn(*args, **kwargs)
            i = len(self.span_start)
            self.span_layer.append(lid)
            self.span_op.append(self.op)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(i)
            self._open[lid] = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._open[lid] = 0
                self._stack.pop()
                self.span_start[i] = t0
                self.span_end[i] = t1
            if count_calls:
                counts[calls_key] += 1
            if hook is not None:
                try:
                    for key, n in zip(count_keys, hook(args, kwargs, result)):
                        counts[key] += n
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            return result

        return traced

    def _count_wrapper(self, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self._in_weight:
                return fn(*args, **kwargs)
            counts["weights.value_at.calls"] += 1
            self._in_weight = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_weight = False

        return counted

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every boundary of the imported pwnorm modules."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "pwnorm" or name.startswith("pwnorm.")
        }
        for module, attr, layer, count_calls, count_names, hook in BOUNDARIES:
            mod = mods.get(f"pwnorm.{module}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    fn = vars(cls)[meth]
                    wrapper = self._span_wrapper(fn, layer, count_calls, count_names, hook)
                    self._replace(cls, meth, wrapper)
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrapper = self._span_wrapper(fn, layer, count_calls, count_names, hook)
            for m in mods.values():
                for name in [k for k, v in vars(m).items() if v is fn]:
                    self._replace(m, name, wrapper)
        weights = mods.get("pwnorm.weights")
        base = getattr(weights, "Weight", None)
        todo = [base] if base is not None else []
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if "value_at" in vars(cls):
                self._replace(cls, "value_at", self._count_wrapper(vars(cls)["value_at"]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- results -----------------------------------------------------------

    def _times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Whole-span and self seconds per layer."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            if self.span_parent[i] >= 0:
                child[self.span_parent[i]] += dur[i]
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in range(n):
            layer = self.layers[self.span_layer[i]]
            total[layer] += dur[i]
            own[layer] += dur[i] - child[i]
        return total, own

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as amounts per round of the workload's batch."""
        total, own = self._times()
        c = self.counts
        units = metric_units()
        derived = {"weights.value_at.per_point", "envelope.finalists_per_search"}
        derived.update(metric for metric, *_ in PER_UNIT)
        values: dict[str, float] = {}
        for name in units:
            if name.endswith(".self_s"):
                values[name] = own[name[: -len(".self_s")]] / rounds
            elif name not in derived:
                values[name] = c.get(name, 0) / rounds
        restricted = c.get("partitions.restrict_pair.points", 0)
        values["weights.value_at.per_point"] = (
            c.get("weights.value_at.calls", 0) / restricted if restricted else 0.0
        )
        searches = c.get("envelope.envelope_norm_exact.calls", 0)
        values["envelope.finalists_per_search"] = (
            c.get("envelope.assignment_pair.calls", 0) / searches if searches else 0.0
        )
        for metric, layer, count, scale, _ in PER_UNIT:
            work = c.get(f"{layer}.{count}", 0)
            values[metric] = total[layer] * scale / work if work else 0.0
        return {name: (values[name], units[name]) for name in units}

    def write(self, path, meta: dict) -> None:
        """Save every span (times in ns from the first span) and the counts."""
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        doc = dict(meta)
        doc["layers"] = self.layers
        doc["counts"] = dict(self.counts)
        doc["spans"] = {
            "layer": self.span_layer.tolist(),
            "op": self.span_op.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [round((t - t0) * 1e9) for t in self.span_start],
            "end_ns": [round((t - t0) * 1e9) for t in self.span_end],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
