"""Per-layer tracing of the gordian package, installed from outside it.

:class:`Tracer` wraps every public function of each layer module (the names
in its ``__all__`` that the module defines), the rule-recording methods of
``TraceBuilder`` and ``BraidWord.__post_init__``.  It replaces the binding in
every ``gordian`` module that holds the original, so calls between modules
are traced too.  Each call becomes a span (name, start, end, parent, value)
kept in flat arrays; :func:`layer_metrics` derives the per-layer numbers
and self times from them.  :class:`PeakProbe` takes tracemalloc peaks in a
pass of its own, since tracemalloc distorts timing.
"""

from __future__ import annotations

import array
import gzip
import inspect
import sys
import time
import tracemalloc

LAYERS = ("words", "rules", "unknotting", "moves", "adjacency", "alexander", "enumeration", "cli")
RULE_METHODS = ("distant_swap", "neighbor_braid", "conjugate", "destabilize", "crossing_change")
BUILDERS = (
    "adjacency_ci", "adjacency_cin", "adjacency_3_from_4", "adjacency_2_from_4",
    "strip_top_strand", "delete_link_subword", "adjacency_catalog",
)
ALEXANDER_BUCKETS = (("n2-4", 2, 4), ("n5-6", 5, 6), ("n7-9", 7, 9))
MIB = 1 << 20

# A number recorded with each span of these names, from (args, result).
VALUES = {
    "alexander.alexander": lambda args, result: args[0].strands,
    "rules.TraceBuilder.snapshot": lambda args, result: len(result.steps),
    "rules.replay": lambda args, result: len(args[0].steps),
    "rules.serialize_trace": lambda args, result: len(result),
    "rules.parse_trace": lambda args, result: len(args[0]),
    "enumeration.positive_path_search": lambda args, result: len(result.steps),
}


class _Bindings:
    """Replaces a function in every gordian module that holds it; undoable."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr]
        holders = [owner]
        if not inspect.isclass(owner):
            holders = [m for name, m in sorted(sys.modules.items())
                       if name.split(".")[0] == "gordian" and m.__dict__.get(attr) is old]
        for holder in holders:
            self._undo.append((holder, attr, old))
            setattr(holder, attr, new)

    def undo(self) -> None:
        for holder, attr, old in reversed(self._undo):
            setattr(holder, attr, old)
        self._undo.clear()


def public_functions():
    """(span name, owner, attribute) of everything the tracer wraps."""
    from gordian.rules import TraceBuilder
    from gordian.words import BraidWord

    for layer in LAYERS:
        module = sys.modules["gordian." + layer]
        for attr in module.__all__:
            fn = module.__dict__[attr]
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                yield f"{layer}.{attr}", module, attr
    yield "words.BraidWord.__post_init__", BraidWord, "__post_init__"
    for attr in RULE_METHODS + ("snapshot",):
        yield f"rules.TraceBuilder.{attr}", TraceBuilder, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.value = array.array("q")
        self._stack = [-1]
        self._bindings = _Bindings()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, values, stack = (
            self.name, self.start, self.end, self.parent, self.value, self._stack)
        measure = VALUES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            values.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if measure is not None:
                values[index] = measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, owner, attr in list(public_functions()):
            self._bindings.replace(owner, attr, self._wrap(name, owner.__dict__[attr]))

    def uninstall(self) -> None:
        self._bindings.undo()

    def dump(self, path: str) -> None:
        """Write the spans as gzip'd TSV: id, name, parent, start and end (ns from the first span), value."""
        base = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tname\tparent\tstart_ns\tend_ns\tvalue\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{round((self.start[i] - base) * 1e9)}\t{round((self.end[i] - base) * 1e9)}\t"
                    f"{self.value[i]}\n"
                )


class PeakProbe:
    """tracemalloc peaks of ``parse_trace`` and of the outermost certificate builders."""

    def __init__(self):
        self.peaks = {"parse": 0, "build": 0}
        self._depth = {"parse": 0, "build": 0}
        self._bindings = _Bindings()

    def _wrap(self, kind: str, fn):
        def probed(*args, **kwargs):
            if self._depth[kind]:
                return fn(*args, **kwargs)
            self._depth[kind] += 1
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth[kind] -= 1
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[kind] = max(self.peaks[kind], peak)

        return probed

    def __enter__(self):
        import gordian.adjacency
        import gordian.rules

        self._bindings.replace(gordian.rules, "parse_trace", self._wrap("parse", gordian.rules.parse_trace))
        for attr in BUILDERS:
            fn = gordian.adjacency.__dict__[attr]
            self._bindings.replace(gordian.adjacency, attr, self._wrap("build", fn))
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        self._bindings.undo()
        return False


# Unit of each per-layer metric printed by a traced run.
UNITS = {
    "words.new": "count", "words.new_s": "s", "words.is_knot_s": "s",
    "rules.steps_recorded": "count", "rules.record_us_per_step": "us",
    "rules.replay_steps": "count", "rules.replay_us_per_step": "us",
    "rules.serialize_s_per_mib": "s/MiB", "rules.parse_s_per_mib": "s/MiB",
    "rules.trace_mib": "MiB", "rules.parse_peak_mib": "MiB",
    "unknotting.unknot_s": "s", "moves.self_s": "s", "adjacency.build_s": "s",
    "adjacency.build_peak_mib": "MiB", "adjacency.verify_certificate_s": "s",
    "alexander.calls": "count", "alexander.ms_per_call.n2-4": "ms",
    "alexander.ms_per_call.n5-6": "ms", "alexander.ms_per_call.n7-9": "ms",
    "enumeration.words_examined": "count", "enumeration.knot_word_yield": "ratio",
    "enumeration.distinct_form_yield": "ratio", "enumeration.canonical_form_calls": "count",
    "enumeration.canonical_form_us": "us", "enumeration.minimize_word_s": "s",
    "search.neighbours": "count", "search.us_per_neighbour": "us", "search.path_steps": "count",
    "cli.self_s": "s", "trace.overhead": "ratio",
}


def layer_metrics(tracer: Tracer, enumerate_outputs: list[str]) -> dict[str, float]:
    """The per-layer numbers of one traced pass (before overhead and peaks)."""
    names = tracer.names
    n = len(tracer.start)
    duration = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if tracer.parent[i] >= 0:
            child[tracer.parent[i]] += duration[i]

    count: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    value: dict[str, int] = {}
    outermost_build = 0.0
    neighbours = 0
    buckets = {label: [0, 0.0] for label, _, _ in ALEXANDER_BUCKETS}
    for i in range(n):
        name = names[tracer.name[i]]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration[i]
        self_time[name] = self_time.get(name, 0.0) + duration[i] - child[i]
        value[name] = value.get(name, 0) + tracer.value[i]
        parent = tracer.parent[i]
        parent_name = names[tracer.name[parent]] if parent >= 0 else ""
        if name.split(".")[-1] in BUILDERS:
            ancestor = parent
            while ancestor >= 0 and names[tracer.name[ancestor]].split(".")[-1] not in BUILDERS:
                ancestor = tracer.parent[ancestor]
            if ancestor < 0:
                outermost_build += duration[i]
        elif name == "words.unknotting_number" and parent_name == "enumeration.positive_path_search":
            neighbours += 1
        elif name == "alexander.alexander":
            for label, low, high in ALEXANDER_BUCKETS:
                if low <= tracer.value[i] <= high:
                    buckets[label][0] += 1
                    buckets[label][1] += duration[i]

    def c(name):
        return count.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    steps = value.get("rules.TraceBuilder.snapshot", 0)
    replay_steps = value.get("rules.replay", 0)
    written_mib = value.get("rules.serialize_trace", 0) / MIB
    parsed_mib = value.get("rules.parse_trace", 0) / MIB
    census = [0, 0, 0]
    for out in enumerate_outputs:
        for k, key in enumerate(("words examined: ", "knot words: ", "distinct forms: ")):
            census[k] += int(next(line for line in out.splitlines() if line.startswith(key))[len(key):])
    metrics = {
        "words.new": c("words.BraidWord.__post_init__"),
        "words.new_s": t("words.BraidWord.__post_init__"),
        "words.is_knot_s": t("words.is_knot"),
        "rules.steps_recorded": steps,
        "rules.record_us_per_step": ratio(sum(t(f"rules.TraceBuilder.{m}") for m in RULE_METHODS), steps, 1e6),
        "rules.replay_steps": replay_steps,
        "rules.replay_us_per_step": ratio(t("rules.replay"), replay_steps, 1e6),
        "rules.serialize_s_per_mib": ratio(t("rules.serialize_trace"), written_mib),
        "rules.parse_s_per_mib": ratio(t("rules.parse_trace"), parsed_mib),
        "rules.trace_mib": written_mib,
        "unknotting.unknot_s": self_time.get("unknotting.unknot", 0.0),
        "moves.self_s": sum(s for name, s in self_time.items() if name.startswith("moves.")),
        "adjacency.build_s": outermost_build,
        "adjacency.verify_certificate_s": t("adjacency.verify_certificate"),
        "alexander.calls": c("alexander.alexander"),
    }
    for label, (calls, seconds) in buckets.items():
        metrics[f"alexander.ms_per_call.{label}"] = ratio(seconds, calls, 1e3)
    metrics.update({
        "enumeration.words_examined": census[0],
        "enumeration.knot_word_yield": ratio(census[1], census[0]),
        "enumeration.distinct_form_yield": ratio(census[2], census[1]),
        "enumeration.canonical_form_calls": c("enumeration.canonical_form"),
        "enumeration.canonical_form_us": ratio(t("enumeration.canonical_form"), c("enumeration.canonical_form"), 1e6),
        "enumeration.minimize_word_s": t("enumeration.minimize_word"),
        "search.neighbours": neighbours,
        "search.us_per_neighbour": ratio(t("enumeration.positive_path_search"), neighbours, 1e6),
        "search.path_steps": value.get("enumeration.positive_path_search", 0),
        "cli.self_s": self_time.get("cli.main", 0.0),
    })
    return metrics
