"""Tracing for the benchmark's traced run: spans around calls into each layer.

``Tracer.install()`` replaces the public functions of each ``ces`` module with
wrappers that record a span per call (name, start, end, parent span, run id)
and per-layer counters, and ``uninstall()`` puts the originals back.  Nothing
inside the package changes; the untraced runs never install anything.

``ces.editor``, ``ces.simulate`` and ``ces.cli`` import ``decode``, ``encode``,
``overwrites``, ``model_diff`` and ``dump_model`` by name, so every module
attribute that still refers to an original is replaced, not only the one in
its defining module.

Per span group the tracer keeps the call count, the inclusive time of the
outermost spans (nested spans of the same group are not counted twice) and
the self time: a span's duration minus the part its child spans cover.
Spans stay in memory up to ``SPAN_CAP`` and are written when the run ends;
the aggregates cover every call.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import json
import sys
import time
from collections import Counter

from ces import cli, editor, events, javadoc, javapackages, objects, simulate

OBJECTS_FUNCS = ("model_diff", "dump_model")
MUTATORS = (
    "get_or_create",
    "get_object_frame",
    "remove_model_object",
    "register_parsed",
    "set_attribute",
    "set_link",
    "unset_link",
    "add_to_many",
    "remove_from_many",
)


# Spans kept for the span log; the aggregates count every call.
SPAN_CAP = 50_000


class Group:
    __slots__ = ("calls", "inclusive", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.groups: dict[str, Group] = {}
        self.counters: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self.stack: list[list] = []
        self.spans: list = []
        self.names: list[str] = []
        self.run_id = 0
        self.active = False
        self.gc_pause = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span of group ``name``.  ``before(args)`` runs
        ahead of the clock and its value goes to ``after(result, args, token)``,
        which runs after it."""
        group = self.groups.setdefault(name, Group())
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        stack, spans, clock, tracer = self.stack, self.spans, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            parent = stack[-1] if stack else None
            index = len(spans) if len(spans) < SPAN_CAP else -1
            if index >= 0:
                spans.append(None)
            frame = [0.0, 0.0, index, name_id]
            stack.append(frame)
            group.depth += 1
            start = frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                group.depth -= 1
                duration = end - start
                group.calls += 1
                group.self_time += duration - frame[1]
                if group.depth == 0:
                    group.inclusive += duration
                if parent is not None:
                    parent[1] += duration
                if index >= 0:
                    spans[index] = (name_id, start, end, parent[2] if parent is not None else -1, tracer.run_id)
            if after is not None:
                after(result, args, token)
            return result

        return traced

    def parent_name(self) -> str | None:
        """Group of the innermost open span (called from ``after`` hooks,
        where the finished span is already popped)."""
        return self.names[self.stack[-1][3]] if self.stack else None

    @contextlib.contextmanager
    def paused(self):
        """Run oracle checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start:
            self.gc_pause += time.perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = 0.0

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, home, attr: str, group: str, before=None, after=None) -> None:
        original = getattr(home, attr)
        wrapped = self.wrap(group, original, before, after)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").partition(".")[0] == "ces" and getattr(module, attr, None) is original:
                self._patch(module, attr, wrapped)

    def _patch_method(self, cls, attr: str, group: str, before=None, after=None) -> None:
        self._patch(cls, attr, self.wrap(group, cls.__dict__[attr], before, after))

    def install(self) -> None:
        count = self.counters

        def decoded(result, args, token):
            count["events.decoded"] += len(result)
            if self.parent_name() == "editor.load_events":
                count["editor.load_decoded"] += len(result)

        def encoded(result, args, token):
            # Values never hold a raw newline, so block starts are exact.
            count["events.encoded"] += result.count("\n- ") + result.startswith("- ")

        self._patch_function(events, "decode", "events.decode", after=decoded)
        self._patch_function(events, "encode", "events.encode", after=encoded)
        self._patch_function(events, "overwrites", "events.overwrites")

        def verdict(args):
            target, event = args[0], args[1]
            handler = target.handlers.get(event.type_tag)
            old = None
            if handler is not None and event.id:
                old = target.active_commands.get((handler.store_scope, event.id))
            if old is None:
                return "fresh"
            if not event.time:
                return None  # stamped by the editor's clock; decided by the outcome
            if old == event:
                return "duplicate"
            if event.time == old.time:
                return "equal_time"
            return "newer" if event.time > old.time else "stale"

        def executed(result, args, token):
            if token is None:
                token = "stale" if result is None else "newer"
            count["editor.verdict." + token] += 1
            if result is not None:
                count["editor.applied"] += 1

        def parsed(result, args, token):
            count["editor.parse_changed"] += result

        self._patch_method(editor.Editor, "execute", "editor.execute", verdict, executed)
        self._patch_method(editor.Editor, "load_events", "editor.load_events")
        self._patch_method(editor.Editor, "export_active", "editor.export_active")
        self._patch_method(editor.Editor, "parse", "editor.parse", after=parsed)
        self._patch_method(editor.Editor, "clone", "editor.clone")

        for module in (javapackages, javadoc):
            layer = module.__name__.rpartition(".")[2]
            for value in list(vars(module).values()):
                if isinstance(value, type) and issubclass(value, editor.CommandHandler) and value.__module__ == module.__name__:
                    for attr in ("run", "parse"):
                        if attr in value.__dict__:
                            self._patch_method(value, attr, f"{layer}.{attr}")

        for attr in MUTATORS:
            self._patch_method(objects.ObjectRegistry, attr, "objects.mutation")
        for attr in OBJECTS_FUNCS:
            self._patch_function(objects, attr, f"objects.{attr}")

        def backlog(args):
            size = len(args[0].in_flight)
            count["simulate.backlog_max"] = max(count["simulate.backlog_max"], size)
            return size

        def flushed(result, args, before):
            held = len(args[0].in_flight)
            count["simulate.delivered"] += len(result)
            count["simulate.deferred"] += held
            count["simulate.duplicated"] += len(result) - (before - held)

        def drained(result, args, before):
            count["simulate.delivered"] += len(result)

        self._patch_method(simulate.Channel, "submit", "simulate.channel_submit")
        self._patch_method(simulate.Channel, "flush", "simulate.channel_flush", backlog, flushed)
        self._patch_method(simulate.Channel, "drain", "simulate.channel_flush", backlog, drained)
        self._patch_method(simulate.Session, "report", "simulate.report")
        # The benchmark calls the command line only for `ces sync`.
        self._patch_function(cli, "main", "cli.sync")
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def sample_gauges(self, replicas) -> None:
        """Largest store, tombstone count and registry maps among the replicas."""
        for replica in replicas:
            store = replica.active_commands
            tombstones = sum(1 for event in store.values() if event.type_tag == "RemoveCommand")
            for name, value in (
                ("editor.store_size", len(store)),
                ("editor.tombstones", tombstones),
                ("objects.model_objects", len(replica.registry.model_objects)),
                ("objects.frames", len(replica.registry.frames)),
            ):
                self.gauges[name] = max(self.gauges.get(name, 0), value)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        g = self.groups.get
        empty = Group()

        def calls(name):
            return (g(name) or empty).calls

        def seconds(name):
            return (g(name) or empty).inclusive

        def rate(count, name):
            return count / seconds(name) if seconds(name) else 0.0

        c = self.counters
        executed = calls("editor.execute")
        loads = calls("editor.load_events")
        out = {
            "events.decode_s": (seconds("events.decode"), "s"),
            "events.decode_ev_s": (rate(c["events.decoded"], "events.decode"), "events/s"),
            "events.encode_s": (seconds("events.encode"), "s"),
            "events.encode_ev_s": (rate(c["events.encoded"], "events.encode"), "events/s"),
            "events.overwrites_calls": (calls("events.overwrites"), "count"),
            "events.overwrites_s": (seconds("events.overwrites"), "s"),
        }
        for verdict in ("fresh", "newer", "stale", "duplicate", "equal_time"):
            out[f"editor.verdict.{verdict}"] = (c[f"editor.verdict.{verdict}"], "count")
        out.update({
            "editor.applied_ratio": (c["editor.applied"] / executed if executed else 0.0, "1"),
            "editor.execute_calls": (executed, "count"),
            "editor.execute_self_s": ((g("editor.execute") or empty).self_time, "s"),
            "editor.load_events_calls": (loads, "count"),
            "editor.load_events_s": (seconds("editor.load_events"), "s"),
            "editor.events_per_load": (c["editor.load_decoded"] / loads if loads else 0.0, "events"),
            "editor.export_active_s": (seconds("editor.export_active"), "s"),
            "editor.parse_s": (seconds("editor.parse"), "s"),
            "editor.parse_changed": (c["editor.parse_changed"], "count"),
            "editor.clone_s": (seconds("editor.clone"), "s"),
            "editor.store_size": (self.gauges.get("editor.store_size", 0), "count"),
            "editor.tombstones": (self.gauges.get("editor.tombstones", 0), "count"),
        })
        for layer in ("javapackages", "javadoc"):
            out[f"{layer}.run_calls"] = (calls(f"{layer}.run"), "count")
            out[f"{layer}.run_s"] = (seconds(f"{layer}.run"), "s")
            out[f"{layer}.parse_s"] = (seconds(f"{layer}.parse"), "s")
        out.update({
            "objects.mutation_calls": (calls("objects.mutation"), "count"),
            "objects.mutation_s": (seconds("objects.mutation"), "s"),
            "objects.model_objects": (self.gauges.get("objects.model_objects", 0), "count"),
            "objects.frames": (self.gauges.get("objects.frames", 0), "count"),
            "objects.model_diff_s": (seconds("objects.model_diff"), "s"),
            "objects.dump_model_s": (seconds("objects.dump_model"), "s"),
            "simulate.sent": (calls("simulate.channel_submit"), "count"),
            "simulate.delivered": (c["simulate.delivered"], "count"),
            "simulate.deferred": (c["simulate.deferred"], "count"),
            "simulate.duplicated": (c["simulate.duplicated"], "count"),
            "simulate.backlog_max": (c["simulate.backlog_max"], "count"),
            "simulate.channel_flush_s": (seconds("simulate.channel_flush"), "s"),
            "simulate.report_s": (seconds("simulate.report"), "s"),
            "cli.sync_s": (seconds("cli.sync"), "s"),
            "gc.pause_s": (self.gc_pause, "s"),
            "gc.collections": (self.gc_collections, "count"),
        })
        return out

    def write_spans(self, path, origin: float) -> None:
        """One JSON object per recorded span; times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                if span is None:
                    continue
                name_id, start, end, parent, run = span
                record = {"name": self.names[name_id], "start": round(start - origin, 9),
                          "end": round(end - origin, 9), "parent": parent if parent >= 0 else None, "run": run}
                out.write(json.dumps(record) + "\n")
