"""Outside-in layer tracing.

Every layer is timed from outside, by replacing the module globals through
which the program calls it with a wrapper that records a span. No program
file changes. A hooked name that no longer exists is reported as absent
instead of failing the run, so the tracer survives refactors that rename
or delete a layer's entry point.

A span is ``[name, start, end, parent, item]``: the parent is the index of
the enclosing span (-1 at the top), the item is the episode or formula id
the harness set when the call started. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = []
        self.item = None
        self._stack = []
        self._restore = []
        self.final_nodes = {}  # item -> product node count after its last expand

    def hook(self, module, attr, name, before=None, after=None):
        """Wrap `module.attr` so each call records a span named `name`.

        `before(args)` runs ahead of the call and its value is handed to
        `after(tracer, result, args, state)`, which runs once the span has
        closed; neither is inside the timed interval.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            state = before(args) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after:
                after(self, result, args, state)
            return result

        traced.__wrapped__ = fn
        setattr(module, attr, traced)
        self._restore.append((module, attr, fn))

    def unhook(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def span_self_ms(self) -> list:
        """Self time of each span, in milliseconds."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        return [(span[2] - span[1] - child[i]) * 1000.0 for i, span in enumerate(self.spans)]

    def calls(self) -> defaultdict:
        out = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def write(self, path):
        """Dump every span as one JSON line: name, start and end in seconds
        from the first span, parent index and item id."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, item]) + "\n")


# --- counters read at the layer boundary -------------------------------------


def _count(key, value):
    def after(tracer, result, args, state):
        tracer.counts[key] += value(result, args)

    return after


def _expand_before(args):
    nodes = getattr(args[0], "nodes", None)
    return nodes, len(nodes) if nodes is not None else 0


def _expand_after(tracer, result, args, state):
    """Nodes the call materialized: all of them when it replaced the node
    set, only the growth when it extended the set in place."""
    old, old_len = state
    nodes = getattr(args[0], "nodes", None)
    if nodes is None:
        return
    tracer.counts["product.expand.nodes_materialized"] += len(nodes) - old_len if nodes is old else len(nodes)
    tracer.final_nodes[tracer.item] = len(nodes)


def _sense_revealed(result, args):
    return len(result) - len(args[3]) if len(args) > 3 else 0


def _both(*afters):
    def after(tracer, result, args, state):
        for fn in afters:
            fn(tracer, result, args, state)

    return after


_frontier_cells = _count("env.frontiers.cells", lambda r, a: len(r))

# (module key, attribute, span name, before, after); the module keys are the
# attributes of `workloads.Program`. Where several program modules call the
# same layer function, each call site is wrapped under the one span name.
HOOKS = (
    ("parser", "parse_formula", "scltl.parse", None, None),
    ("compiler", "compile_dfa", "scltl.compile", None,
     _both(_count("scltl.compile.letters", lambda r, a: 2 ** len(r.alphabet.names)),
           _count("scltl.compile.states_out", lambda r, a: len(r.states)))),
    ("compiler", "progress", "scltl.progress", None, None),
    ("planner", "pruned_distances", "scltl.pruned_distances", None, None),
    ("dfa", "pruned_distances", "scltl.pruned_distances", None, None),
    ("commit", "commit_states", "commit.commit_states", None,
     _count("commit.commits", lambda r, a: len(r.commit_set))),
    ("commit", "self_product", "commit.self_product", None,
     _count("commit.self_product.pairs", lambda r, a: len(r.states))),
    ("env", "random_map", "env.random_map", None, None),
    ("planner", "sense", "env.sense", None, _count("env.sense.cells_revealed", _sense_revealed)),
    ("planner", "frontiers", "env.frontiers", None, _frontier_cells),
    ("baseline", "frontiers", "env.frontiers", None, _frontier_cells),
    ("planner", "info_gain", "env.info_gain", None, None),
    ("planner", "is_frontier", "env.is_frontier", None, None),
    ("planner", "expand", "product.expand", _expand_before, _expand_after),
    ("planner", "accepting_reachable", "product.accepting_reachable", None, None),
    ("baseline", "accepting_reachable", "product.accepting_reachable", None, None),
    ("planner", "min_weight_paths", "product.min_weight_paths", None,
     _count("product.min_weight_paths.nodes_settled", lambda r, a: len(r[0]))),
    ("planner", "run_episode", "planner.run_episode", None, None),
    ("planner", "frontier_value", "planner.frontier_value", None, None),
    ("baseline", "run_baseline", "baseline.run_baseline", None, None),
    ("baseline", "_grid_shortest_paths", "baseline.grid_search", None, None),
)


def install(tracer: Tracer, program, hooks=HOOKS):
    for module_key, attr, name, before, after in hooks:
        tracer.hook(getattr(program, module_key), attr, name, before=before, after=after)


# Span names whose self time is reported; the prefix names the layer.
TIMED = (
    "scltl.parse", "scltl.compile", "scltl.progress", "scltl.pruned_distances",
    "commit.commit_states", "commit.self_product",
    "env.random_map", "env.sense", "env.frontiers", "env.info_gain", "env.is_frontier",
    "product.expand", "product.accepting_reachable", "product.min_weight_paths",
    "planner.run_episode", "planner.frontier_value",
    "baseline.run_baseline", "baseline.grid_search",
)
EPISODE_ROOTS = ("planner.run_episode", "baseline.run_baseline")
COUNTED_CALLS = (
    "scltl.progress", "env.sense", "env.frontiers", "env.info_gain", "env.is_frontier",
    "product.expand", "product.accepting_reachable", "product.min_weight_paths",
    "planner.run_episode", "planner.frontier_value", "baseline.run_baseline", "baseline.grid_search",
)
COUNTERS = (
    "scltl.compile.letters", "scltl.compile.states_out", "commit.self_product.pairs", "commit.commits",
    "env.sense.cells_revealed", "env.frontiers.cells", "product.expand.nodes_materialized",
    "product.min_weight_paths.nodes_settled",
)


def layer_metrics(tracer: Tracer, traced_ms: float, item_ms: float, steps: int, iterations: int) -> tuple:
    """Per-layer metrics of one traced pass, plus the same self times in ms.

    `traced_ms` is the wall time of the traced pass (task set-up and items),
    `item_ms` the part spent inside items, `steps` the executed moves of all
    episodes and `iterations` the planning iterations of `ours`. Self times
    are reported as a percentage of `traced_ms`, so that a layer a workload
    never calls reads 0 like its call count.
    """
    self_ms = defaultdict(float)
    below_roots = 0.0  # self time inside items, outside the episode loops
    for span, ms in zip(tracer.spans, tracer.span_self_ms()):
        self_ms[span[0]] += ms
        if span[4] is not None and span[0] not in EPISODE_ROOTS:
            below_roots += ms
    calls = tracer.calls()
    counts = tracer.counts
    final_nodes = sum(tracer.final_nodes.values())
    materialized = counts["product.expand.nodes_materialized"]
    searches = calls["product.accepting_reachable"] + calls["product.min_weight_paths"]

    m = {f"{name}.pct": (100.0 * self_ms[name] / traced_ms, "%") for name in TIMED}
    for name in COUNTED_CALLS:
        m[f"{name}.calls"] = (calls[name], "count")
    for key in COUNTERS:
        m[key] = (counts[key], "count")
    m["product.expand.reuse_ratio"] = (final_nodes / materialized if materialized else 0.0, "ratio")
    m["product.search.calls_per_step"] = (searches / steps if steps else 0.0, "1/step")
    m["planner.steps"] = (steps, "count")
    m["planner.iterations"] = (iterations, "count")
    m["planner.frontiers_per_iteration"] = (
        calls["planner.frontier_value"] / iterations if iterations else 0.0, "1/iteration")
    m["bench.layer_coverage"] = (below_roots / item_ms if item_ms else 0.0, "ratio")
    m["bench.traced_ms"] = (traced_ms, "ms")
    return m, {name: self_ms[name] for name in TIMED}
