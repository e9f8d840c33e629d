"""Spans around the public entry points of each ``chipfire`` layer.

The tracer patches functions, methods, classmethods and ``cached_property``
objects of the loaded ``chipfire`` modules for the duration of one op and
restores them afterwards; the program itself is not edited. Each wrapped
call becomes a span with a bucket such as ``lattice.distributive``; a
bucket's self time is the time of its spans minus their child spans, so the
self times of all buckets add up to the time spent inside ``cli.main``.

Hot O(1) accessors (``out_degree``, ``le``, ``join``, ``upper_covers``, ...)
are deliberately not wrapped: their cost is charged to the caller.
``cached_property`` detectors are timed on first access only, because later
reads never call the function.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "formats", "multigraph", "engine", "lattice", "transforms", "coloured")


def _steps(counts, args, result):
    counts["engine.firings"] += result.steps


def _space(prefix, states, moves):
    def count(counts, args, result):
        counts[f"{prefix}.{states}"] += len(result)
        counts[f"{prefix}.{moves}"] += len(result.covers)
    return count


def _lattice_size(counts, args, result):
    n = args[0].n
    counts["lattice.elements"] += n
    counts["lattice.table_cells"] += n * n


def _bytes(counts, args, result):
    counts["formats.bytes_out"] += len(result.encode("utf-8"))


def _one(name):
    def count(counts, args, result):
        counts[name] += 1
    return count


# (module, owner class or None, attribute names, bucket, counter)
TARGETS = (
    ("cli", None, ("main",), "cli.self", None),
    ("formats", None, ("parse_game", "parse_game_file", "parse_lattice", "parse_lattice_file"),
     "formats.parse", None),
    ("formats", None, ("serialize_game", "serialize_lattice", "space_to_dot", "lattice_to_dot",
                       "coloured_game_to_dot"), "formats.emit", _bytes),
    ("multigraph", "Multigraph", ("__post_init__", "from_edges", "induced_subgraph", "_index",
                                  "_out_adj", "_out_degrees", "_in_degrees", "_reverse_adj"),
     "multigraph.build", None),
    ("multigraph", "Multigraph", ("drain_set", "sink_reachable_from_all", "sinks"),
     "multigraph.drain", None),
    ("multigraph", "ColouredMultigraph", ("__post_init__", "from_edges", "colours",
                                          "_restrictions"), "multigraph.build", None),
    ("engine", "Cfg", ("run_to_fixpoint",), "engine.fixpoint", _steps),
    ("engine", "Cfg", ("is_simple",), "engine.fixpoint", None),
    ("engine", "Cfg", ("enumerate_space",), "engine.enumerate",
     _space("engine", "states", "transitions")),
    ("engine", "ConfigSpace", ("_lattice", "_index", "top", "join_of"), "engine.space_view", None),
    ("lattice", "Poset", ("from_covers",), "lattice.build", None),
    ("lattice", "Lattice", ("__init__",), "lattice.build", _lattice_size),
    ("lattice", "Lattice", ("chain", "boolean"), "lattice.build", None),
    ("lattice", "Poset", ("_cover_matrix", "cover_pairs", "_upper_covers", "_lower_covers",
                          "minimal_elements", "maximal_elements"), "lattice.covers", None),
    ("lattice", "Poset", ("topo_order", "restrict", "_down_masks", "ideal_masks", "ideals"),
     "lattice.order", None),
    ("lattice", "Lattice", ("restrict", "meet_irreducible_poset", "join_irreducible_poset",
                            "interval", "ideal_quotient"), "lattice.order", None),
    ("lattice", None, ("ideal_lattice",), "lattice.order", None),
    ("lattice", "Lattice", ("J", "M", "_mx_masks", "ji_below", "mi_above", "le_by_coding"),
     "lattice.irreducibles", None),
    ("lattice", "Lattice", ("_rank_info",), "lattice.ranked", None),
    ("lattice", "Lattice", ("distributivity_witness", "is_distributive"),
     "lattice.distributive", None),
    ("lattice", "Lattice", ("_hypercube_witness", "_cover_step_witness", "uld_detectors",
                            "is_uld"), "lattice.uld", None),
    ("lattice", "Lattice", ("edge_labels", "arrow_relations", "arrow_partition"),
     "lattice.arrows", None),
    ("lattice", None, ("arrow_witness_report",), "lattice.arrows", None),
    ("lattice", None, ("find_isomorphism",), "lattice.iso", _one("lattice.iso_calls")),
    ("lattice", None, ("is_isomorphic", "_refine_pair", "_base_invariants"), "lattice.iso", None),
    ("transforms", None, ("simplify",), "transforms.simplify", None),
    ("transforms", None, ("split_vertex",), "transforms.simplify", _one("transforms.splits")),
    ("transforms", None, ("cfg_from_distributive", "coloured_from_uld", "coloured_ideal_game",
                          "interval_cfg", "_ideal_game_parts"), "transforms.synth", None),
    ("coloured", "ColouredCfg", ("__post_init__",), "coloured.build", None),
    ("coloured", "ColouredCfg", ("enumerate_space",), "coloured.enumerate",
     _space("coloured", "states", "openings")),
    ("coloured", "ColouredCfg", ("open_vertex",), "coloured.stabilize", None),
    ("coloured", None, ("from_classical",), "coloured.build", None),
)

BUCKETS = tuple(dict.fromkeys(t[3] for t in TARGETS))
COUNTERS = (
    "engine.firings", "engine.states", "engine.transitions", "lattice.elements",
    "lattice.table_cells", "lattice.iso_calls", "transforms.splits", "coloured.states",
    "coloured.openings", "formats.bytes_out",
)


class Tracer:
    """Collects spans while installed; ``install`` / ``uninstall`` bracket one op."""

    def __init__(self):
        self.spans = []  # (op, span id, parent id, bucket, start, end, self time)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.errors = Counter()
        self.op = 0
        self._stack = []  # open spans: [span id, layer, child time]
        self._next_id = 0
        self._patches = []

    def _wrap(self, fn, bucket, count):
        layer = bucket.split(".", 1)[0]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            tracer._next_id += 1
            span = [tracer._next_id, layer, 0.0]
            parent = stack[-1] if stack else None
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[1] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                own = took - span[2]
                if parent is not None:
                    parent[2] += took
                tracer.self_time[bucket] += own
                tracer.spans.append(
                    (tracer.op, span[0], parent[0] if parent else 0, bucket, start, end, own)
                )
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return traced

    def install(self):
        """Patch every target in the loaded ``chipfire`` modules."""
        for module_name, owner, names, bucket, count in TARGETS:
            module = sys.modules[f"chipfire.{module_name}"]
            for name in names:
                if owner is None:
                    self._patch_function(module, name, bucket, count)
                else:
                    self._patch_member(getattr(module, owner), name, bucket, count)

    def _patch_function(self, module, name, bucket, count):
        original = getattr(module, name)
        traced = self._wrap(original, bucket, count)
        # the function may also be bound by name in other chipfire modules
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "chipfire" or mod_name.startswith("chipfire."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, traced)

    def _patch_member(self, cls, name, bucket, count):
        original = cls.__dict__[name]
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(self._wrap(original.func, bucket, count))
            replacement.__set_name__(cls, name)
        elif isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, bucket, count))
        elif isinstance(original, property):
            replacement = property(self._wrap(original.fget, bucket, count))
        else:
            replacement = self._wrap(original, bucket, count)
        self._patches.append((cls, name, original))
        setattr(cls, name, replacement)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def layer_self_time(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for bucket, seconds in self.self_time.items():
            out[bucket.split(".", 1)[0]] += seconds
        return out

    def write_spans(self, path: str):
        """Write every span as one JSON line (gzip)."""
        keys = ("op", "span", "parent", "name", "start", "end", "self")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}."""
    st, c = tracer.self_time, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{bucket}_s": (st.get(bucket, 0.0), "s") for bucket in BUCKETS}
    m.update({name: (c.get(name, 0), "count") for name in COUNTERS})
    m["engine.us_per_firing"] = (ratio(st["engine.fixpoint"] * 1e6, c["engine.firings"]), "us")
    m["engine.states_per_s"] = (ratio(c["engine.states"], st["engine.enumerate"]), "1/s")
    m["engine.new_state_ratio"] = (ratio(c["engine.states"], c["engine.transitions"]), "ratio")
    m["lattice.build_ns_per_cell"] = (ratio(st["lattice.build"] * 1e9, c["lattice.table_cells"]), "ns")
    m["coloured.states_per_s"] = (ratio(c["coloured.states"], st["coloured.enumerate"]), "1/s")
    layers = tracer.layer_self_time()
    for layer, seconds in layers.items():
        m[f"{layer}.self_s"] = (seconds, "s")
        m[f"{layer}.share"] = (ratio(seconds, traced_wall), "ratio")
        m[f"{layer}.errors"] = (tracer.errors.get(layer, 0), "count")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.unattributed_ratio"] = (ratio(traced_wall - sum(layers.values()), traced_wall), "ratio")
    m["trace.overhead_ratio"] = (ratio(traced_wall, untraced_wall), "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
