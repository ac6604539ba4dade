"""Seeded input generators and independent renderers for the benchmark.

Everything here is determined by a seed and a few knobs, so the same seed
always yields the same inputs, streams included.  Nothing here imports ``ces``: event text
and expected model dumps are rendered by this module's own code, which makes
them usable as oracles against the engine's codec and ``dump_model``.

Id pools: packages are ``p<n>`` and classes ``C<n>``, so container and leaf
ids never meet and no workload can trip a type conflict by construction.
Ids are always explicit, because auto-minted ``obj<n>`` ids collide across
replicas.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

BASE = datetime(2020, 1, 1, tzinfo=timezone.utc)
VTAGS = tuple(f"{major}.{minor}" for major in range(1, 4) for minor in range(10))
DOC_SUFFIX = ".Doc"


def stamp(ms: int) -> str:
    """Timestamp ``ms`` milliseconds after the base time, in the engine's format."""
    moment = BASE + timedelta(milliseconds=ms)
    return moment.strftime("%Y-%m-%dT%H:%M:%S.") + f"{moment.microsecond // 1000:03d}Z"


@dataclass(frozen=True)
class Spec:
    """One event as plain data: tag, id, time and sorted params."""

    tag: str
    id: str
    time: str
    params: tuple[tuple[str, str], ...] = ()

    def block(self) -> str:
        """The event's text block; every generated value is a plain scalar."""
        lines = [f"- command: {self.tag}", f"  id: {self.id}", f"  time: {self.time}"]
        lines += [f"  {key}: {value}" for key, value in self.params]
        return "\n".join(lines) + "\n"


def render(specs) -> str:
    return "".join(spec.block() for spec in specs)


def render_store(specs) -> str:
    """Text of a store export: one block per event in (id, tag) order."""
    return render(sorted(specs, key=lambda s: (s.id, s.tag)))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def newest(versions) -> Spec:
    """Last-edit-wins winner: latest time, equal times broken by greater bytes."""
    return max(versions, key=lambda s: (s.time, s.block()))


# ---------------------------------------------------------------------------
# Package trees
# ---------------------------------------------------------------------------


@dataclass
class Tree:
    """A package tree with classes: parent links by index, class placement
    and versions.  ``pkg_parent[i]`` is -1 for a root."""

    pkg_parent: list[int]
    cls_parent: list[int]
    cls_vtag: list[str]

    @staticmethod
    def pkg(i: int) -> str:
        return f"p{i}"

    @staticmethod
    def cls(i: int) -> str:
        return f"C{i}"

    def package_spec(self, i: int, ms: int) -> Spec:
        parent = self.pkg_parent[i]
        if parent < 0:
            return Spec("HaveRoot", self.pkg(i), stamp(ms))
        return Spec("HaveSubUnit", self.pkg(i), stamp(ms), (("parent", self.pkg(parent)),))

    def class_spec(self, i: int, ms: int, parent: int | None = None, vtag: str | None = None) -> Spec:
        parent = self.cls_parent[i] if parent is None else parent
        vtag = self.cls_vtag[i] if vtag is None else vtag
        return Spec(
            "HaveLeaf", self.cls(i), stamp(ms), (("parent", self.pkg(parent)), ("vTag", vtag))
        )

    def specs(self) -> list[Spec]:
        """Every increment once, packages first, with distinct increasing times."""
        out = [self.package_spec(i, i) for i in range(len(self.pkg_parent))]
        offset = len(out)
        out += [self.class_spec(i, offset + i) for i in range(len(self.cls_parent))]
        return out


def make_tree(rng: random.Random, packages: int, classes: int, *, roots: int, depth: int, fanout: int) -> Tree:
    """A tree of ``packages`` packages, at most ``depth`` levels and ``fanout``
    sub-packages per package, and ``classes`` classes spread over all packages.

    Parents always have a lower index than their children, so no sequence of
    re-parenting to a lower index can make a cycle.
    """
    if packages < roots:
        raise ValueError("need at least one package per root")
    pkg_parent = [-1] * roots
    level = [0] * roots
    open_parents = list(range(roots)) if depth > 1 else []
    children = [0] * packages
    for i in range(roots, packages):
        if not open_parents:
            raise ValueError("depth and fanout too small for the package count")
        slot = rng.randrange(len(open_parents))
        parent = open_parents[slot]
        pkg_parent.append(parent)
        level.append(level[parent] + 1)
        children[parent] += 1
        if children[parent] >= fanout:
            open_parents[slot] = open_parents[-1]
            open_parents.pop()
        if level[i] + 1 < depth:
            open_parents.append(i)
    cls_parent = [rng.randrange(packages) for _ in range(classes)]
    cls_vtag = [rng.choice(VTAGS) for _ in range(classes)]
    return Tree(pkg_parent, cls_parent, cls_vtag)


def expected_javadoc_dump(tree: Tree) -> str:
    """The javadoc model the tree maps to, in ``dump_model`` format: a Folder
    per package, a describing ``<id>.Doc`` DocFile per sub-folder, and a
    DocFile per class."""
    files: dict[str, list[str]] = {Tree.pkg(i): [] for i in range(len(tree.pkg_parent))}
    subs: dict[str, list[str]] = {Tree.pkg(i): [] for i in range(len(tree.pkg_parent))}
    rows: dict[str, str] = {}
    for i, parent in enumerate(tree.pkg_parent):
        if parent >= 0:
            name, doc = Tree.pkg(i), Tree.pkg(i) + DOC_SUFFIX
            subs[Tree.pkg(parent)].append(name)
            files[name].append(doc)
            rows[doc] = f"DocFile {doc} {{content={name} docu}} links{{folder->{name}}}"
    for i, parent in enumerate(tree.cls_parent):
        name, folder = Tree.cls(i), Tree.pkg(parent)
        files[folder].append(name)
        rows[name] = f"DocFile {name} {{version={tree.cls_vtag[i]}}} links{{folder->{folder}}}"
    for i, parent in enumerate(tree.pkg_parent):
        name = Tree.pkg(i)
        links = []
        if files[name]:
            links.append("files->{" + ",".join(sorted(files[name])) + "}")
        if parent >= 0:
            links.append(f"pFolder->{Tree.pkg(parent)}")
        if subs[name]:
            links.append("subFolders->{" + ",".join(sorted(subs[name])) + "}")
        rows[name] = f"Folder {name} {{}} links{{{','.join(links)}}}"
    return "".join(rows[key] + "\n" for key in sorted(rows))


# ---------------------------------------------------------------------------
# bulk_sync: one big file of distinct increments
# ---------------------------------------------------------------------------


@dataclass
class BulkInput:
    text: str
    expected_dump: str
    expected_store: str


def bulk_input(seed: int, *, events: int, package_share: float, depth: int, fanout: int, roots: int) -> BulkInput:
    """A deep, wide tree written as one event file in shuffled order, so
    children regularly arrive before their parents."""
    rng = random.Random(f"bulk:{seed}")
    packages = max(roots, round(events * package_share))
    tree = make_tree(rng, packages, events - packages, roots=roots, depth=depth, fanout=fanout)
    specs = tree.specs()
    shuffled = list(specs)
    rng.shuffle(shuffled)
    return BulkInput(render(shuffled), expected_javadoc_dump(tree), render_store(specs))


# ---------------------------------------------------------------------------
# redeliver: a replica plus at-least-once redelivery texts
# ---------------------------------------------------------------------------

KINDS = ("duplicate", "stale", "equal_time", "newer")


class RedeliverStream:
    """A replica's full event file, then an endless stream of redelivery
    texts drawn from ``shares`` of byte-identical duplicates of the version
    the replica holds, stale and equal-time rival class versions, and newer
    class versions.  Each text is drawn against the versions the replica
    holds after the texts before it, so the mix stays the same however many
    texts a run delivers."""

    def __init__(self, seed: int, *, packages: int, classes: int, per_text: int, shares: dict[str, float]):
        self.rng = random.Random(f"redeliver:{seed}")
        self.tree = make_tree(self.rng, packages, classes, roots=4, depth=8, fanout=12)
        base_specs = self.tree.specs()
        self.packages, self.classes, self.per_text = packages, classes, per_text
        self.kinds, self.weights = zip(*((k, shares[k]) for k in KINDS))
        self.ids = [spec.id for spec in base_specs]
        # The version of each id the replica holds, and its stamp in ms.
        self.winners = {spec.id: spec for spec in base_specs}
        self.winner_ms = {spec.id: ms for ms, spec in enumerate(base_specs)}
        self.later = len(base_specs) + 1000  # newer versions postdate every base stamp
        shuffled = list(base_specs)
        self.rng.shuffle(shuffled)
        self.initial = render(shuffled)

    def next_text(self) -> str:
        rng, tree, batch = self.rng, self.tree, []
        for kind in rng.choices(self.kinds, self.weights, k=self.per_text):
            if kind == "duplicate":
                batch.append(self.winners[rng.choice(self.ids)])
                continue
            i = rng.randrange(self.classes)
            old = self.winners[Tree.cls(i)]
            vtag, parent = rng.choice(VTAGS), rng.randrange(self.packages)
            if kind == "stale":
                spec = tree.class_spec(i, rng.randrange(self.winner_ms[old.id]), parent, vtag)
            elif kind == "equal_time":
                spec = Spec("HaveLeaf", old.id, old.time, (("parent", Tree.pkg(parent)), ("vTag", vtag)))
            else:
                self.later += 1
                spec = tree.class_spec(i, self.later, parent, vtag)
                self.winner_ms[old.id] = self.later
            self.winners[old.id] = newest((old, spec))
            batch.append(spec)
        return render(batch)

    def expected_store(self) -> str:
        """Store text once every text drawn so far arrived."""
        return render_store(self.winners.values())


# ---------------------------------------------------------------------------
# mesh_session: a submit script for a k-editor session
# ---------------------------------------------------------------------------


@dataclass
class MeshScript:
    editors: list[tuple[str, str]]
    submits: list[tuple[str, str, str, tuple[tuple[str, str], ...]]]


def mesh_script(
    seed: int,
    *,
    packages: int,
    classes: int,
    submits: int,
    remove_share: float,
    package_share: float,
) -> MeshScript:
    """Conflicting edits from four editors (two per domain) over one shared
    id pool.  Times are left to the editors' own clocks; re-parenting only
    points at lower-index packages, so trees never form cycles."""
    rng = random.Random(f"mesh:{seed}")
    editors = [("pk0", "javapackages"), ("pk1", "javapackages"), ("doc0", "javadoc"), ("doc1", "javadoc")]
    names = [name for name, _ in editors]
    out = []
    for _ in range(submits):
        name = rng.choice(names)
        roll = rng.random()
        if roll < remove_share:
            target = Tree.pkg(rng.randrange(packages)) if rng.random() < 0.3 else Tree.cls(rng.randrange(classes))
            out.append((name, "RemoveCommand", target, ()))
        elif roll < remove_share + package_share:
            i = rng.randrange(packages)
            if i == 0 or rng.random() < 0.1:
                out.append((name, "HaveRoot", Tree.pkg(i), ()))
            else:
                out.append((name, "HaveSubUnit", Tree.pkg(i), (("parent", Tree.pkg(rng.randrange(i))),)))
        else:
            params = (("parent", Tree.pkg(rng.randrange(packages))), ("vTag", rng.choice(VTAGS)))
            out.append((name, "HaveLeaf", Tree.cls(rng.randrange(classes)), params))
    return MeshScript(editors, out)


# ---------------------------------------------------------------------------
# edit_parse: a replica plus rounds of direct object edits
# ---------------------------------------------------------------------------


class EditStream:
    """A replica's event file, then an endless stream of rounds of direct
    edits, each a real change of the model the edits before it left:
    ``("vtag", class, tag)`` sets another version tag, ``("move", class,
    package)`` moves a class to another package, ``("detach", package,
    "")`` makes an attached package a root and ``("attach", package,
    parent)`` hangs a detached one under a lower-index package.  About ten
    packages are detached at any time, so rounds stay alike all run long."""

    def __init__(self, seed: int, *, packages: int, classes: int, edits: int):
        self.rng = random.Random(f"edit:{seed}")
        self.tree = make_tree(self.rng, packages, classes, roots=2, depth=8, fanout=12)
        specs = self.tree.specs()
        self.packages, self.classes, self.edits = packages, classes, edits
        self.detached: list[int] = []
        shuffled = list(specs)
        self.rng.shuffle(shuffled)
        self.initial = render(shuffled)
        self.end_ms = len(specs) + 1000

    def next_round(self) -> list[tuple[str, str, str]]:
        rng, tree, ops = self.rng, self.tree, []
        for _ in range(self.edits):
            roll = rng.random()
            if roll < 0.6:
                i = rng.randrange(self.classes)
                tree.cls_vtag[i] = rng.choice([t for t in VTAGS if t != tree.cls_vtag[i]])
                ops.append(("vtag", Tree.cls(i), tree.cls_vtag[i]))
            elif roll < 0.9:
                i = rng.randrange(self.classes)
                tree.cls_parent[i] = (tree.cls_parent[i] + 1 + rng.randrange(self.packages - 1)) % self.packages
                ops.append(("move", Tree.cls(i), Tree.pkg(tree.cls_parent[i])))
            elif len(self.detached) > rng.randrange(20):
                i = self.detached.pop(rng.randrange(len(self.detached)))
                tree.pkg_parent[i] = rng.randrange(i)
                ops.append(("attach", Tree.pkg(i), Tree.pkg(tree.pkg_parent[i])))
            else:
                i = 1 + rng.randrange(self.packages - 1)
                while tree.pkg_parent[i] < 0:
                    i = 1 + rng.randrange(self.packages - 1)
                tree.pkg_parent[i] = -1
                self.detached.append(i)
                ops.append(("detach", Tree.pkg(i), ""))
        return ops
