"""The four benchmark workloads.

Each workload has the same shape: ``setup(seed)`` builds its inputs and any
replica it starts from; ``step(state)`` performs one step of the timed phase
and records its work units, its delivery-unit latencies and its failures in
the state; ``finish(state)`` runs the final oracle checks.  Oracle checks are
never part of the timed phase.

The engine is always reached through module attributes (``events.encode``,
``cli.main`` ...) looked up at call time, so the traced run's wrappers see
every call the workloads make.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from ces import cli, editor, events, javadoc, javapackages, objects, oracles, simulate

import generate

DOMAINS = {"javapackages": javapackages.JAVA_PACKAGES, "javadoc": javadoc.JAVA_DOC}
WORK_DIR = Path(__file__).resolve().parent / ".work"

# Sizes of the measured runs; the smoke test passes smaller ones.
SIZES = {
    "bulk_sync": dict(events=10000, package_share=0.1, depth=12, fanout=8, roots=3),
    "redeliver": dict(
        packages=3000,
        classes=27000,
        per_text=200,
        digest_after=100,
        shares={"duplicate": 0.80, "stale": 0.08, "equal_time": 0.07, "newer": 0.05},
    ),
    "mesh_session": dict(packages=300, classes=1000, submits=2000, remove_share=0.05, package_share=0.25),
    "edit_parse": dict(packages=600, classes=5400, edits=300),
}


@dataclass
class State:
    """What one workload instance carries through its timed phase."""

    units: int = 0
    steps: int = 0
    timed_s: float = 0.0
    batches_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    oracle_failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    data: object = None

    def fail(self, message: str) -> None:
        """Record a failed oracle check."""
        self.oracle_failed += 1
        self.problems.append(message)

    def op_failed(self, message: str) -> None:
        """Record an operation that raised or returned an error."""
        self.failed += 1
        self.problems.append(message)


class Workload:
    name = ""
    unit = ""
    # Context in which oracle checks run; the traced run pauses tracing there.
    quiet = staticmethod(contextlib.nullcontext)

    def __init__(self, sizes: dict | None = None):
        self.sizes = dict(SIZES[self.name] if sizes is None else sizes)

    def setup(self, seed: int) -> State:
        raise NotImplementedError

    def step(self, state: State) -> None:
        raise NotImplementedError

    def must_continue(self, state: State) -> bool:
        """True while the workload has not yet done the least work its final
        oracle needs, whatever the time budget says."""
        return state.steps == 0

    def finish(self, state: State) -> None:
        pass

    def replicas(self, state: State) -> list:
        """Editors whose size the traced run reports as gauges."""
        return []

    def close(self, state: State) -> None:
        pass


class BulkSync(Workload):
    """`ces sync` of one big file of fresh increments into a cold javadoc
    replica.  Batch = one sync call.  Every id is fresh, so ``overwrites`` is
    never called: the control for any overwrite-path change."""

    name = "bulk_sync"
    unit = "input events"

    def setup(self, seed: int) -> State:
        bulk = generate.bulk_input(seed, **self.sizes)
        WORK_DIR.mkdir(exist_ok=True)
        tmp = tempfile.TemporaryDirectory(dir=WORK_DIR)
        source = Path(tmp.name) / "in.ces"
        source.write_text(bulk.text, encoding="utf-8")
        expected_stdout = bulk.expected_dump + f"active-digest: {generate.digest(bulk.expected_store)}\n"
        return State(data=dict(bulk=bulk, tmp=tmp, source=str(source), out=str(Path(tmp.name) / "out.ces"),
                               expected=expected_stdout, events=self.sizes["events"]))

    def step(self, state: State) -> None:
        data = state.data
        argv = ["sync", "--from-domain", "javapackages", "--to-domain", "javadoc",
                "--in", data["source"], "--out", data["out"]]
        captured = io.StringIO()
        state.attempted += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        state.timed_s += elapsed
        state.batches_ms.append(elapsed * 1000)
        state.units += data["events"]
        state.steps += 1
        output = captured.getvalue()
        with self.quiet():
            self._verify(state, code, output)

    def _verify(self, state: State, code: int, output: str) -> None:
        data = state.data
        if code != 0:
            state.op_failed(f"ces sync exited {code}")
        elif output != data["expected"]:
            state.fail("javadoc model differs from the generated tree")
        elif Path(data["out"]).read_text(encoding="utf-8") != data["bulk"].expected_store:
            state.fail("synced event file differs from the generated store")
        digest = generate.digest(output)
        if state.digest and digest != state.digest:
            state.fail("two syncs of the same input printed different output")
        state.digest = digest

    def replicas(self, state: State) -> list:
        replica = editor.Editor(javadoc.JAVA_DOC, sync_filter=frozenset())
        replica.load_events(Path(state.data["out"]).read_text(encoding="utf-8"))
        return [replica]

    def close(self, state: State) -> None:
        state.data["tmp"].cleanup()


class Redeliver(Workload):
    """At-least-once redelivery onto a large replica.  Batch = one
    ``load_events`` text.  Decode and ``overwrites`` do almost all the work."""

    name = "redeliver"
    unit = "delivered events"

    def setup(self, seed: int) -> State:
        sizes = self.sizes
        stream = generate.RedeliverStream(seed, packages=sizes["packages"], classes=sizes["classes"],
                                          per_text=sizes["per_text"], shares=sizes["shares"])
        replica = editor.Editor(javapackages.JAVA_PACKAGES)
        replica.load_events(stream.initial)
        return State(data=dict(stream=stream, replica=replica, delivered=0))

    def step(self, state: State) -> None:
        data = state.data
        text = data["stream"].next_text()
        state.attempted += 1
        start = time.perf_counter()
        try:
            data["replica"].load_events(text)
        except events.CesError as exc:
            state.op_failed(f"load_events failed: {exc}")
        elapsed = time.perf_counter() - start
        state.timed_s += elapsed
        state.batches_ms.append(elapsed * 1000)
        state.units += self.sizes["per_text"]
        state.steps += 1
        data["delivered"] += 1
        if data["delivered"] == self.sizes["digest_after"]:
            # The store after a fixed number of texts depends on the seed
            # alone, so its digest must repeat; the final one need not.
            with self.quiet():
                state.digest = self._verify(state)

    def must_continue(self, state: State) -> bool:
        return state.data["delivered"] < self.sizes["digest_after"]

    def finish(self, state: State) -> None:
        self._verify(state)

    def _verify(self, state: State) -> str:
        data = state.data
        store = data["replica"].export_active()
        if store != data["stream"].expected_store():
            state.fail(f"after {data['delivered']} texts the store is not the newest version per id")
        return generate.digest(store)

    def replicas(self, state: State) -> list:
        return [state.data["replica"]]


class MeshSession(Workload):
    """Four editors, two per domain, over a lossy, duplicating, reordering
    mesh with eventual delivery.  Step = one session to convergence; batch =
    one ``flush()``."""

    name = "mesh_session"
    unit = "submitted events"

    def setup(self, seed: int) -> State:
        script = generate.mesh_script(seed, **self.sizes)
        submits = [(name, events.Event(tag, id=id, params=dict(params))) for name, tag, id, params in script.submits]
        return State(data=dict(seed=seed, editors=script.editors, submits=submits, digests=None, session=None))

    def step(self, state: State) -> None:
        data = state.data
        applied = []
        state.attempted += len(data["submits"])
        start = time.perf_counter()
        try:
            session = simulate.Session(seed=data["seed"], drop=0.1, duplicate=0.3, reorder=True, eventual=True)
            for name, domain in data["editors"]:
                session.add_editor(name, DOMAINS[domain])
            for index, (name, event) in enumerate(data["submits"], 1):
                done = session.submit(name, event)
                if done is not None:
                    applied.append(done)
                if index % 10 == 0:
                    began = time.perf_counter()
                    session.flush()
                    state.batches_ms.append((time.perf_counter() - began) * 1000)
            while any(channel.in_flight for channel in session.channels.values()):
                session.drain()
            report = session.report()
        except events.CesError as exc:
            state.timed_s += time.perf_counter() - start
            state.steps += 1
            state.op_failed(f"session failed: {exc}")
            return
        state.timed_s += time.perf_counter() - start
        state.units += len(data["submits"])
        state.steps += 1
        data["session"] = session
        with self.quiet():
            self._verify(state, report, applied)

    def _verify(self, state: State, report, applied: list) -> None:
        data = state.data
        if not report.converged:
            state.fail("session did not converge")
        if data["digests"] is None:
            # Oracle: a fresh replay of everything submit applied, digested
            # over the slice all editors share.
            reference = oracles.replay(applied, javapackages.JAVA_PACKAGES)
            expected = generate.digest(reference.export_active(data["session"].shared_filter()))
            if set(report.digests.values()) != {expected}:
                state.fail("replica digests differ from a replay of the applied submits")
            data["digests"] = report.digests
            state.digest = expected
        elif report.digests != data["digests"]:
            state.fail("a session with the same seed ended in different digests")

    def replicas(self, state: State) -> list:
        session = state.data["session"]
        return list(session.editors.values()) if session is not None else []


class EditParse(Workload):
    """Rounds of clone, direct registry edits, incremental parse, shipping the
    recovered events to a peer, and ``model_diff``.  Batch = one round."""

    name = "edit_parse"
    unit = "direct object edits"

    def setup(self, seed: int) -> State:
        plan = generate.EditStream(seed, **self.sizes)
        clock = events.stepping_clock(generate.stamp(plan.end_ms))
        replica = editor.Editor(javapackages.JAVA_PACKAGES, clock=clock)
        replica.load_events(plan.initial)
        peer = editor.Editor(javapackages.JAVA_PACKAGES)
        peer.load_events(plan.initial)
        replica.registry.clear_changes()
        return State(data=dict(plan=plan, replica=replica, peer=peer, round=0))

    def step(self, state: State) -> None:
        data = state.data
        replica, peer = data["replica"], data["peer"]
        registry = replica.registry
        ops = data["plan"].next_round()
        state.attempted += 1
        start = time.perf_counter()
        try:
            snapshot = replica.clone()
            for kind, target, value in ops:
                obj = registry.find(target)
                if kind == "vtag":
                    registry.set_attribute(obj, "vTag", value)
                elif kind == "move":
                    registry.set_link(obj, "pack", registry.find(value))
                elif kind == "detach":
                    registry.set_link(obj, "pPack", None)
                else:
                    registry.set_link(obj, "pPack", registry.find(value))
            changed = registry.changed_objects()
            replica.parse(changed)
            store = replica.active_commands
            shipped = [store[("", obj.id)] for obj in changed if ("", obj.id) in store]
            peer.load_events(events.encode(shipped))
            objects.model_diff(snapshot.registry, registry)
            registry.clear_changes()
        except events.CesError as exc:
            state.timed_s += time.perf_counter() - start
            state.steps += 1
            data["round"] += 1
            state.op_failed(f"round {data['round']} failed: {exc}")
            return
        elapsed = time.perf_counter() - start
        state.timed_s += elapsed
        state.batches_ms.append(elapsed * 1000)
        state.units += len(ops)
        state.steps += 1
        data["round"] += 1
        with self.quiet():
            self._verify(state, replica, peer)

    def _verify(self, state: State, replica, peer) -> None:
        data, registry = state.data, replica.registry
        if not objects.model_equal(peer.registry, registry):
            state.fail(f"round {data['round']}: peer differs from the edited replica")
        if replica.parse(list(registry.model_objects.values())) != 0:
            state.fail(f"round {data['round']}: a full parse changed commands")
        if data["round"] == 1:
            # Later rounds depend on how many fit the time budget; round 1 does not.
            state.digest = generate.digest(replica.export_active())

    def replicas(self, state: State) -> list:
        return [state.data["replica"], state.data["peer"]]


WORKLOADS = {w.name: w for w in (BulkSync, Redeliver, MeshSession, EditParse)}
