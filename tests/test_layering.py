"""One layering table: what may appear where in the repo's code, and why.

The paper's Table 1 and k-sweep regenerate byte for byte only if every
random stream comes from a caller's seed, and the pool and actor tiers
rest on shared-memory, timing, fault-hook and event-loop protocols that
no unit test fails on the day one is broken.  Each protocol is a row of
:data:`TABLE`: *what* may appear, *where* it may appear, and *why*.

:func:`modules` parses every file under ``src``, ``benchmarks`` and
``scripts`` once per session and indexes each in one pass.  A row's
*what* is one of two things:

* **Names**, matched on every reference: each ``Name``, ``Attribute``
  chain and import alias, resolved through the file's imports (after
  ``from time import perf_counter as clock``, ``clock`` is
  ``time.perf_counter``), plus every ``REPRO_*`` name in a string that is
  not a docstring.  A store ``x.a = ...`` also reads as ``a=`` and a
  subscript store ``x.a[i] = ...`` as ``a[]=``.  A dotless name matches
  the last component of any reference; a dotted name matches a resolved
  import path, and ``m.*`` is module ``m`` or anything in it.  When
  several names match one chain, the deepest link wins, then a dotted
  name over a dotless one, then the longer name.
* **A shape** no name captures, found by the row's entry in
  :data:`PREDICATES` over the same walk.

*Where* lists path prefixes.  ``path::Qual`` narrows a place to one
function or class (that qualified name or anything inside it), and a
trailing ``@text`` narrows it to matches whose text is exactly *text*:
for a name, the reference as written up to that name (``self._repair``
allows the owner's own call, not ``self.other._repair``); for a shape,
the predicate's description of it.  A row with an empty *where* may
appear nowhere.  Every place a row allows must
be used somewhere, so an exemption cannot outlive the code it exempts.

The mutation tests inject each row's bad source into the cached module
set: at a path the row rules out the walker must flag it, and at every
place the row allows it must stay silent.
"""

import ast
import functools
import re
import textwrap
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).parent / "analysis" / "fixtures"
ROOTS = ("src", "benchmarks", "scripts")
ANYWHERE = ("",)
SHM = "src/repro/parallel/shm.py"
CRASH_BARRIER = "except BaseException forwards its traceback through result_q.put()"
TREE_HOMES = (
    "src/repro/core/",
    "src/repro/experiments/",
    "src/repro/baselines/",
    "src/repro/__init__.py",
    "benchmarks/",
)


class Row(NamedTuple):
    what: "tuple[str, ...]"
    where: "tuple[str, ...]"
    why: str


TABLE = {
    "raw_rng": Row(
        ("random.*", "numpy.random.*"),
        ("src/repro/rng.py",),
        "every stream is rooted in a caller's seed through repro.rng "
        "(ensure_rng / derive_seed / spawn); one stray generator and the tables "
        "stop being bit-reproducible",
    ),
    "rng_type": Row(
        ("numpy.random.Generator",),
        ANYWHERE,
        "the generator type annotates and checks; it makes no stream",
    ),
    "literal_seed": Row(
        ("a repro.rng entry point fed an int literal, or None inside a function "
         "that takes a seed",),
        ("benchmarks/",),
        "library code derives its streams from the caller's seed; a literal pins "
        "every caller to one stream, and a None drops the seed it was given",
    ),
    "shm_lifecycle": Row(
        ("SharedMemory",),
        (SHM,),
        "shm.py pairs create/attach/close/unlink (and the resource-tracker "
        "workaround); a block made elsewhere leaks or is unlinked while in use",
    ),
    "shm_pin": Row(
        ("_pin", "_wrap_views"),
        (SHM, "src/repro/graph/csr.py"),
        "an attachment stays mapped while numpy views into it live; only "
        "attach_csr/attach_matrix pin it",
    ),
    "worker_task": Row(
        ("a TASKS entry or Process target that is not a module-level function",),
        (),
        "spawn workers re-import the module and look tasks up by qualified name",
    ),
    "broad_except": Row(
        ("a bare/Exception/BaseException handler that does not re-raise, outside "
         "__del__",),
        (f"src/repro/parallel/pool.py::_worker_main@{CRASH_BARRIER}",),
        "a swallowed error turns a crash into a hang or a wrong answer; the "
        "worker's crash barrier ships the traceback and the parent re-raises it "
        "as WorkerError",
    ),
    "timing": Row(
        ("perf_counter", "perf_counter_ns"),
        ("src/repro/obs/",),
        "timings go through obs.Stopwatch / obs.span / obs.time_best so they "
        "reach the metrics tree and the tracer",
    ),
    "fault_hooks": Row(
        ("repro.faults.install", "repro.faults.active="),
        ("src/repro/faults/",),
        "everyone else arms through arm_env + maybe_install_from_env, so fork "
        "and spawn workers agree on the plan",
    ),
    "blocking_coroutine": Row(
        ("time.sleep, a sync queue get/put or a socket recv inside an async def "
         "under src/repro/distributed/",),
        (),
        "every actor, the router and the pumps share one event loop; one "
        "blocking call stalls them all",
    ),
    "tree_import": Row(
        ("dom_tree_kmis", "dom_tree_mis", "dom_tree_greedy", "domtree_kcover",
         "domtree_kmis", "domtree_mis", "domtree_greedy"),
        TREE_HOMES,
        "outside the constructions, trees come from the one table, "
        "repro.core.remote_spanner.resolve_construction",
    ),
    "tree_seam": Row(
        ("dom_tree_kcover",),
        ("src/repro/core/", "src/repro/__init__.py", "benchmarks/",
         "src/repro/dynamic/maintainer.py"),
        "perfbench's layer tracer times tree construction by patching the "
        "maintainer's dom_tree_kcover binding, so the maintainer calls through it",
    ),
    "repair_path": Row(
        ("_repair",),
        (
            "src/repro/dynamic/maintainer.py::SpannerMaintainer.apply_batch@self._repair",
            "src/repro/distributed/actors.py::ShardActor.recompute@self._repair",
        ),
        "one write path: the maintainer repairs only in apply_batch (the "
        "actor's _repair is its own); no layer reaches into another's",
    ),
    "ingest_path": Row(
        ("_ingest",),
        (
            "src/repro/dynamic/serving.py::RoutingService.apply_batch@self._ingest",
            "src/repro/distributed/protocols/link_state.py::PeriodicLinkState@self._ingest",
        ),
        "one write path: the services ingest only in apply_batch (the "
        "link-state protocol's _ingest is its own); no layer reaches into another's",
    ),
    "apply_delegates": Row(
        ("an apply method under dynamic/, parallel/ or distributed/ that does "
         "more than delegate",),
        (),
        "every event is a one-event tick through apply_batch",
    ),
    "seqlock_bracket": Row(
        ("begin_row_write", "end_row_write", "_begin_row_write", "_end_row_write",
         "_arr", "_ver", "row_versions[]=", "versions[]="),
        (SHM,),
        "write_rows is the one write bracket (row_write is it over one row); the "
        "writable matrix and the version counters stay inside it",
    ),
    "read_loop": Row(
        ("_spin",),
        (f"{SHM}::_read_stable",),
        "every seqlock read goes through the one bounded _read_stable loop",
    ),
    "read_loop_shape": Row(
        ("a second loop in _read_stable, a call there beyond int/range/_spin/"
         "obs.inc and the cast, or a cast other than int/bytes/np.array",),
        (),
        "nothing in the read loop may park the reader: it stays a bounded spin",
    ),
    "block_create": Row(
        ("_create_block",),
        (f"{SHM}::SharedCSR", f"{SHM}::SharedMatrix", f"{SHM}::SharedDirectory"),
        "every shared-memory block has one owner",
    ),
    "block_unlink": Row(
        ("unlink",),
        (f"{SHM}::_free_block", "benchmarks/"),
        "only _free_block (close, then unlink) releases a block; benchmarks "
        "unlink result files",
    ),
    "file_unlink": Row(
        ("os.unlink",),
        ANYWHERE,
        "os.unlink removes a file path, never a block",
    ),
    "env_obs": Row(
        ("REPRO_OBS",),
        ("src/repro/tuning.py",),
        "the obs switch is read in one place",
    ),
    "env_faults": Row(
        ("REPRO_FAULT_PLAN",),
        ("src/repro/faults/",),
        "the fault plane's plan is read in one place",
    ),
    "env_knob": Row(
        ("REPRO_*",),
        (),
        "the runtime switches stay the two above; anything else is a module "
        "constant where it is used",
    ),
}


class Finding(NamedTuple):
    row: str
    path: str
    line: int
    detail: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.row}: {self.detail} — {TABLE[self.row].why}"


# --------------------------------------------------------------------- #
# the walker
# --------------------------------------------------------------------- #

_ENV_NAME = re.compile(r"\bREPRO_[A-Z0-9_]+")


class Module:
    """One parsed file, indexed in one pass: every node by type with its
    qualified scope and innermost ``def``, and the dotted path of every
    name its imports and globals bind."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.tree = ast.parse(source, path)
        parts = Path(path).with_suffix("").parts
        parts = parts[1:] if parts[0] == "src" else parts
        self.package = parts[:-1]  # what a relative import starts from
        self.name = ".".join(self.package if parts[-1] == "__init__" else parts)
        self.nodes: "dict[type, list]" = defaultdict(list)
        stack = [(self.tree, "", None)]
        while stack:
            node, qual, fn = stack.pop()
            self.nodes[type(node)].append((node, qual, fn))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{qual}.{node.name}" if qual else node.name
                if not isinstance(node, ast.ClassDef):
                    fn = node
            stack.extend((child, qual, fn) for child in ast.iter_child_nodes(node))
        self.bindings = self._bindings()

    def _target(self, node: "ast.Import | ast.ImportFrom", alias: ast.alias) -> str:
        """The dotted path one import alias names, relative imports resolved."""
        if isinstance(node, ast.Import):
            return alias.name
        base = [node.module] if node.module else []
        if node.level:
            base = [*self.package[: max(0, len(self.package) - node.level + 1)], *base]
        return ".".join([*base, alias.name])

    def _bindings(self) -> "dict[str, str]":
        """Name -> dotted path, for every name an import binds and every
        global of this module (``install`` in ``repro/faults`` is
        ``repro.faults.install``)."""
        out = {}
        for stmt in self.tree.body:  # a def, a class or an assignment target
            targets = getattr(stmt, "targets", [getattr(stmt, "target", stmt)])
            for name in [getattr(t, "id", getattr(t, "name", None)) for t in targets]:
                if name is not None:
                    out[name] = f"{self.name}.{name}"
        for node, _, _ in self.nodes[ast.Global]:
            out.update((name, f"{self.name}.{name}") for name in node.names)
        for kind in (ast.Import, ast.ImportFrom):
            for node, _, _ in self.nodes[kind]:
                for alias in node.names:
                    if kind is ast.Import and not alias.asname:
                        head = alias.name.split(".")[0]
                        out[head] = head
                    else:
                        out[alias.asname or alias.name] = self._target(node, alias)
        return out

    def chain(self, node: ast.AST) -> "tuple[list[str], bool]":
        """The dotted parts of a ``Name``/``Attribute`` chain, resolved
        through the imports when its base is bound by one.  A base that is
        no name leads the first part as source text (``super()._ingest``)."""
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        attrs.reverse()
        if not isinstance(node, ast.Name):
            head = [f"{ast.unparse(node)}.{attrs[0]}"] if attrs else []
            return head + attrs[1:], False
        head = self.bindings.get(node.id)
        return (head.split(".") if head else [node.id]) + attrs, head is not None

    def references(self):
        """``(keys, resolved, line, qual)`` per reference, keys deepest first."""
        links = {id(node.value) for node, _, _ in self.nodes[ast.Attribute]}
        for kind in (ast.Name, ast.Attribute):
            for node, qual, _ in self.nodes[kind]:
                if id(node) in links:
                    continue  # a link of a longer chain
                parts, resolved = self.chain(node)
                keys = [".".join(parts[:i]) for i in range(len(parts), 0, -1)]
                if isinstance(node.ctx, ast.Store):
                    keys.insert(0, keys[0] + "=")
                yield keys, resolved, node.lineno, qual
        for node, qual, _ in self.nodes[ast.Subscript]:
            if isinstance(node.ctx, ast.Store) and isinstance(
                node.value, (ast.Name, ast.Attribute)
            ):
                parts, resolved = self.chain(node.value)
                yield [".".join(parts) + "[]="], resolved, node.lineno, qual
        for kind in (ast.Import, ast.ImportFrom):
            for node, qual, _ in self.nodes[kind]:
                for alias in node.names:
                    parts = self._target(node, alias).split(".")
                    keys = [".".join(parts[:i]) for i in range(len(parts), 0, -1)]
                    yield keys, True, alias.lineno, qual
        prose = {id(node.value) for node, _, _ in self.nodes[ast.Expr]}
        for node, qual, _ in self.nodes[ast.Constant]:
            if isinstance(node.value, str) and "REPRO_" in node.value and id(node) not in prose:
                for name in _ENV_NAME.findall(node.value):
                    yield [name], False, node.lineno, qual

    @functools.cached_property
    def matches(self) -> "list[tuple[str, int, str, str]]":
        """``(row, line, qual, detail)`` for every reference a row names and
        every shape a predicate finds, allowed or not."""
        out = []
        for keys, resolved, line, qual in self.references():
            for key in keys:
                row = _row_of(key, resolved)
                if row is not None:
                    out.append((row, line, qual, key))
                    break
        for row, predicate in PREDICATES.items():
            out += [(row, line, qual, detail) for line, qual, detail in predicate(self)]
        return out

    @functools.cached_property
    def findings(self) -> "list[Finding]":
        return sorted(
            Finding(row, self.path, line, detail)
            for row, line, qual, detail in self.matches
            if not _places(TABLE[row], self.path, qual, detail)
        )


def _name_index():
    """Dotless names, dotted names and ``*`` prefixes of the name rows."""
    last, path, wild = {}, {}, []
    for row, spec in TABLE.items():
        if row in PREDICATES:
            continue
        for name in spec.what:
            if name.endswith("*"):
                wild.append((name[:-1], row, name))
            else:
                (path if "." in name else last)[name] = row
    return last, path, wild


def _row_of(key: str, resolved: bool) -> "str | None":
    """The row of the most specific name matching one candidate key."""
    last_names, path_names, wild = _NAMES
    last = key.rpartition(".")[2]
    hits = []
    if last in last_names:
        hits.append((False, len(last), last_names[last]))
    if resolved and key in path_names:
        hits.append((True, len(key), path_names[key]))
    for prefix, row, name in wild:
        if prefix.endswith("."):  # a module and anything in it
            if resolved and (key == prefix[:-1] or key.startswith(prefix)):
                hits.append((True, len(name), row))
        elif last.startswith(prefix):
            hits.append((False, len(name), row))
    return max(hits)[2] if hits else None


def _places(row: Row, path: str, qual: str, detail: str) -> "list[str]":
    """The places of *row* that allow a match *detail* at *path* in scope *qual*."""
    out = []
    for place in row.where:
        spot, _, text = place.partition("@")
        prefix, _, scope = spot.partition("::")
        if (
            path.startswith(prefix)
            and (not scope or qual == scope or qual.startswith(scope + "."))
            and (not text or detail == text)
        ):
            out.append(place)
    return out


@functools.lru_cache(maxsize=1)
def modules() -> "tuple[Module, ...]":
    """Every module under ``src``, ``benchmarks`` and ``scripts``, parsed once."""
    return tuple(
        Module(path.relative_to(REPO_ROOT).as_posix(), path.read_text(encoding="utf-8"))
        for top in ROOTS
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
    )


def modules_with(source: str, path: str) -> "tuple[Module, ...]":
    """:func:`modules` with *source* injected at *path* (replacing that file)."""
    mods = {m.path: m for m in modules()}
    mods[path] = Module(path, source)
    return tuple(mods.values())


def violations(mods) -> "list[Finding]":
    return [f for m in mods for f in m.findings]


def unused_places(mods) -> "list[tuple[str, str]]":
    """``(row, place)`` for every place a row allows that no match uses."""
    used = {
        (row, place)
        for m in mods
        for row, line, qual, detail in m.matches
        for place in _places(TABLE[row], m.path, qual, detail)
    }
    return [(row, place) for row, spec in TABLE.items() for place in spec.where
            if (row, place) not in used]


def flagged(row: str, source: str, path: str) -> "list[Finding]":
    """What *row* flags in *source* injected at *path*."""
    return [f for f in Module(path, source).findings if f.row == row]


# --------------------------------------------------------------------- #
# the shapes no name captures
# --------------------------------------------------------------------- #

_SEEDERS = frozenset({"ensure_rng", "derive_seed", "spawn"})
_SEED_PARAM = re.compile("seed", re.IGNORECASE)


def literal_seed(m: Module):
    for call, qual, fn in m.nodes[ast.Call]:
        parts, resolved = m.chain(call.func)
        if not resolved or parts[-2:-1] != ["rng"] or parts[-1] not in _SEEDERS:
            continue
        seed = call.args[0] if call.args else None
        for kw in call.keywords:
            if kw.arg == "seed":
                seed = kw.value
        if not isinstance(seed, ast.Constant) or not (
            seed.value is None or isinstance(seed.value, int)
        ):
            continue
        name = ast.unparse(call.func)
        if seed.value is not None:
            yield call.lineno, qual, f"{name}({seed.value!r}) re-seeds from a literal"
            continue
        params = () if fn is None else (*fn.args.posonlyargs, *fn.args.args)
        if any(_SEED_PARAM.search(p.arg) for p in params):  # else: fresh entropy
            yield call.lineno, qual, f"{name}(None) ignores the seed parameter of {fn.name}()"


def worker_task(m: Module):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = {n.name for kind in kinds for n, _, _ in m.nodes[kind]}
    nested = defs - {s.name for s in m.tree.body if isinstance(s, kinds)}

    def vet(value, where, qual):
        if isinstance(value, ast.Lambda):
            yield value.lineno, qual, f"lambda used as {where}"
        elif isinstance(value, ast.Name):
            if value.id in nested:
                yield value.lineno, qual, f"nested function {value.id!r} used as {where}"
        elif not isinstance(value, (ast.Constant, ast.Attribute)):
            yield value.lineno, qual, f"{where} is not a plain module-level function reference"

    for node, qual, _ in m.nodes[ast.Assign]:
        for tgt in node.targets:
            if isinstance(tgt, ast.Name) and tgt.id == "TASKS" and isinstance(node.value, ast.Dict):
                for value in node.value.values:
                    if value is not None:  # None: a ** unpacking
                        yield from vet(value, "a TASKS entry", qual)
            elif (isinstance(tgt, ast.Subscript) and isinstance(tgt.value, ast.Name)
                  and tgt.value.id == "TASKS"):
                yield from vet(node.value, "a TASKS entry", qual)
    for call, qual, _ in m.nodes[ast.Call]:
        func = call.func
        if getattr(func, "id", None) == "Process" or getattr(func, "attr", None) == "Process":
            for kw in call.keywords:
                if kw.arg == "target":
                    yield from vet(kw.value, "a Process target", qual)


def _broad(node) -> bool:
    if node is None:
        return True
    if isinstance(node, ast.Tuple):
        return any(_broad(elt) for elt in node.elts)
    return getattr(node, "id", getattr(node, "attr", None)) in ("Exception", "BaseException")


def broad_except(m: Module):
    for handler, qual, fn in m.nodes[ast.ExceptHandler]:
        if not _broad(handler.type) or (fn is not None and fn.name == "__del__"):
            continue  # narrow, or a finalizer: nothing may escape one
        subs = [sub for stmt in handler.body for sub in ast.walk(stmt)]
        if any(isinstance(sub, ast.Raise) for sub in subs):
            continue  # re-raises, possibly wrapped in WorkerError & co.
        label = "bare except" if handler.type is None else f"except {ast.unparse(handler.type)}"
        puts = [ast.unparse(sub.func) for sub in subs
                if isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "put"
                and "traceback.format_exc()" in ast.unparse(sub)]
        if puts:  # still a finding: only the one crash barrier's place allows it
            yield handler.lineno, qual, f"{label} forwards its traceback through {puts[0]}()"
        else:
            yield handler.lineno, qual, f"{label} swallows errors silently"


def _queueish(value) -> bool:
    """Receiver names that mean a queue, so ``dict.get`` stays clean."""
    name = getattr(value, "id", getattr(value, "attr", "")).lower()
    return "queue" in name or name == "q" or name.endswith("_q")


def blocking_coroutine(m: Module):
    if "/repro/distributed/" not in f"/{m.path}":
        return  # the one package that runs an event loop
    awaited = {id(node.value) for node, _, _ in m.nodes[ast.Await]}
    for call, qual, fn in m.nodes[ast.Call]:
        if not isinstance(fn, ast.AsyncFunctionDef) or id(call) in awaited:
            continue  # nested defs run off-loop; awaited calls yield to it
        func = call.func
        parts, resolved = m.chain(func)
        if resolved and parts == ["time", "sleep"]:
            yield call.lineno, qual, f"time.sleep() blocks the loop inside async {fn.name}()"
        elif not isinstance(func, ast.Attribute):
            continue
        elif func.attr in ("get", "put") and _queueish(func.value):
            yield call.lineno, qual, f"sync queue .{func.attr}() inside async {fn.name}()"
        elif func.attr in ("recv", "recvfrom", "recv_into"):
            yield call.lineno, qual, f"blocking socket .{func.attr}() inside async {fn.name}()"


_WRITE_DIRS = ("src/repro/dynamic/", "src/repro/parallel/", "src/repro/distributed/")


def apply_methods(m: Module):
    """``(class, apply method)`` of every write layer in *m*."""
    if m.path.startswith(_WRITE_DIRS):
        for cls, _, _ in m.nodes[ast.ClassDef]:
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "apply":
                    yield cls, fn


def apply_delegates(m: Module):
    for cls, fn in apply_methods(m):
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if not (len(body) == 1 and isinstance(body[0], (ast.Return, ast.Expr))
                and isinstance(body[0].value, ast.Call)):
            yield fn.lineno, f"{cls.name}.apply", f"{cls.name}.apply does more than delegate"


_READ_LOOP_CALLS = frozenset({"int", "range", "_spin", "obs.inc"})
_READ_CASTS = frozenset({"int", "bytes", "np.array"})
_CAST_ARG = 4  # _read_stable(ver, i, data, key, cast, owner=None)


def read_loop_shape(m: Module):
    for fn in m.tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "_read_stable"):
            continue
        loops = [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While))]
        if len(loops) != 1:
            yield fn.lineno, fn.name, f"{len(loops)} loops in _read_stable, not one"
            continue
        allowed = _READ_LOOP_CALLS | {a.arg for a in fn.args.args[_CAST_ARG : _CAST_ARG + 1]}
        for node in ast.walk(loops[0]):
            if isinstance(node, ast.Call) and ast.unparse(node.func) not in allowed:
                yield node.lineno, fn.name, f"{ast.unparse(node.func)}() in the read loop"
    for call, qual, _ in m.nodes[ast.Call]:
        if getattr(call.func, "id", getattr(call.func, "attr", None)) != "_read_stable":
            continue
        cast = [kw.value for kw in call.keywords if kw.arg == "cast"]
        cast += call.args[_CAST_ARG : _CAST_ARG + 1]
        if not cast or ast.unparse(cast[0]) not in _READ_CASTS:
            yield call.lineno, qual, f"_read_stable cast not in {sorted(_READ_CASTS)}"


PREDICATES = {
    "literal_seed": literal_seed,
    "worker_task": worker_task,
    "broad_except": broad_except,
    "blocking_coroutine": blocking_coroutine,
    "apply_delegates": apply_delegates,
    "read_loop_shape": read_loop_shape,
}
_NAMES = _name_index()


# --------------------------------------------------------------------- #
# the repo passes every row
# --------------------------------------------------------------------- #


class TestRepo:
    def test_passes_every_row(self):
        found = violations(modules())
        assert found == [], "\n".join(map(str, found))

    def test_every_allowed_place_is_used(self):
        """A place nothing uses is a dead exemption: delete it from the row."""
        assert unused_places(modules()) == []

    def test_the_walk_covers_the_tree(self):
        paths = {m.path for m in modules()}
        assert len(paths) > 100
        assert {SHM, "scripts/ab.py", "benchmarks/conftest.py"} <= paths
        layers = sorted(cls.name for m in modules() for cls, _ in apply_methods(m))
        assert layers == ["RoutingService", "SpannerMaintainer"]


# --------------------------------------------------------------------- #
# mutations: every row flags its bad source and allows its places
# --------------------------------------------------------------------- #


def shm_source(*, sleep_in_read_loop: bool = False) -> str:
    """``parallel/shm.py``'s source, optionally with a blocking call in the
    ``_read_stable`` loop."""
    source = (REPO_ROOT / SHM).read_text(encoding="utf-8")
    copy_line = "            value = cast(data[key])\n"
    assert source.count(copy_line) == 1
    if sleep_in_read_loop:
        source = source.replace(copy_line, "            time.sleep(0.001)\n" + copy_line)
    return source


def _line_of(source: str, text: str) -> int:
    return source[: source.index(text)].count("\n") + 1


LIBRARY = "src/repro/under_test.py"
_SLEEPY = shm_source(sleep_in_read_loop=True)
_LAMBDA_CAST = shm_source().replace("(u, v), int, self)", "(u, v), lambda x: int(x), self)")
_CRASH_BARRIER_SOURCE = (
    "try:\n"
    "    work()\n"
    "except BaseException:\n"
    "    result_q.put((0, -1, False, traceback.format_exc()))\n"
)


class Mutation(NamedTuple):
    source: str  # a fixture file name, or code
    path: str  # where it is injected
    flagged: "dict[str, list[int]]"  # row -> lines it flags there ([]: present but allowed)

    def code(self) -> str:
        if self.source.endswith(".py"):
            return (FIXTURES / self.source).read_text(encoding="utf-8")
        return self.source


MUTATIONS = [
    Mutation("raw_rng_bad.py", LIBRARY, {"raw_rng": [3, 5, 6, 7, 11, 12, 13, 14, 15]}),
    Mutation(
        "import numpy as np\nGen = np.random.Generator\nrng = np.random.default_rng()\n",
        LIBRARY,
        {"raw_rng": [3], "rng_type": []},
    ),
    Mutation("literal_seed_bad.py", LIBRARY, {"literal_seed": [7, 8, 9]}),
    Mutation(
        "from .. import rng as r\n"
        "import repro.rng\n"
        "_STREAM = r.ensure_rng(3)\n"
        "def a(n):\n"
        "    return repro.rng.spawn(seed=4), r.ensure_rng(None)\n"
        "def b(base_seed):\n"
        "    def inner(k):\n"
        "        return r.ensure_rng(None)\n"
        "    return r.derive_seed(None, 'b'), inner\n"
        "def c(seed, rng):\n"
        "    return rng.spawn(2), r.ensure_rng(seed)\n",
        LIBRARY,
        {"literal_seed": [3, 5, 9]},
    ),
    Mutation(
        "shm_lifecycle_bad.py", LIBRARY, {"shm_lifecycle": [4, 5, 9, 10, 15], "shm_pin": [19, 20]}
    ),
    Mutation("worker_task_bad.py", LIBRARY, {"worker_task": [14, 19, 20, 25]}),
    Mutation("broad_except_bad.py", LIBRARY, {"broad_except": [7, 14, 21]}),
    Mutation(
        "def _worker_main(task_q, result_q):\n"
        + textwrap.indent(_CRASH_BARRIER_SOURCE, "    ")
        + "    try:\n"
        "        flush()\n"
        "    except Exception:\n"
        "        pass\n"
        "    try:\n"
        "        flush()\n"
        "    except BaseException:\n"
        "        task_q.put(traceback.format_exc())\n",
        "src/repro/parallel/pool.py",
        {"broad_except": [8, 12]},
    ),
    Mutation(_CRASH_BARRIER_SOURCE, LIBRARY, {"broad_except": [3]}),
    Mutation("timing_bad.py", LIBRARY, {"timing": [4, 5, 7, 9, 10, 11, 12, 13]}),
    Mutation("fault_hooks_bad.py", LIBRARY, {"fault_hooks": [5, 9, 10, 14]}),
    Mutation(
        "blocking_coroutine_bad.py",
        "src/repro/distributed/under_test.py",
        {"blocking_coroutine": [16, 20, 21, 22]},
    ),
    Mutation("blocking_coroutine_bad.py", "src/repro/cli.py", {"blocking_coroutine": []}),
    Mutation(
        "import asyncio\n"
        "async def ok(q):\n"
        "    await asyncio.sleep(0)\n"
        "    return await q.get(), q.get_nowait()\n",
        "src/repro/distributed/under_test.py",
        {"blocking_coroutine": []},
    ),
    Mutation(
        "from ..core.domtree_greedy import dom_tree_greedy\n"
        "from repro import core\n"
        "tree = core.dom_tree_mis\n",
        "src/repro/routing/under_test.py",
        {"tree_import": [1, 3]},
    ),
    Mutation(
        "from ..core.domtree_kcover import dom_tree_kcover, mpr_set\n",
        "src/repro/routing/under_test.py",
        {"tree_seam": [1], "tree_import": [1]},
    ),
    Mutation(
        "def poke(m):\n    m._repair(set())\n",
        "src/repro/dynamic/under_test.py",
        {"repair_path": [2]},
    ),
    Mutation(
        "class ShardActor:\n"
        "    def recompute(self):\n"
        "        self._repair()\n"
        "        self.m._repair()\n",
        "src/repro/distributed/actors.py",
        {"repair_path": [4]},
    ),
    Mutation(
        "class Reader:\n    def sneak(self, service):\n"
        "        return service._ingest((), (), set(), False)\n",
        "src/repro/parallel/under_test.py",
        {"ingest_path": [3]},
    ),
    Mutation(
        "class PeriodicLinkState:\n"
        "    def tick(self):\n"
        "        self._ingest(1)\n"
        "        self.service._ingest(2)\n",
        "src/repro/distributed/protocols/link_state.py",
        {"ingest_path": [4]},
    ),
    Mutation(
        "class ShardedRoutingService:\n"
        "    def _ingest(self):\n"
        "        super()._ingest()\n"
        "        return self._ingest(), self.base._ingest()\n",
        "src/repro/parallel/sharded.py",
        {"ingest_path": [3, 4, 4]},
    ),
    Mutation(
        "class Service:\n"
        "    def apply(self, ev):\n"
        "        self.count += 1\n"
        "        return self.apply_batch((ev,))\n",
        "src/repro/dynamic/under_test.py",
        {"apply_delegates": [2]},
    ),
    Mutation(
        "m.begin_row_write(u)\n"
        "m._end_row_write(u)\n"
        "arr = m._arr\n"
        "m.row_versions[u] += 1\n"
        "att.versions[u] = 0\n"
        "m._ver[rows] += 1\n"
        "with m.write_rows(rows) as arr:\n"
        "    arr[rows, cols] = vals\n"
        "with m.row_write(u) as row:\n"
        "    row[:] = 1\n"
        "x = m.row_versions[u]\n",
        "src/repro/parallel/pool.py",
        {"seqlock_bracket": [1, 2, 3, 4, 5, 6]},
    ),
    Mutation("read_loop_bad.py", LIBRARY, {"read_loop": [12, 18]}),
    Mutation(
        "from .shm import _spin\n"
        "def read(ver, arr, u):\n"
        "    for attempt in range(9):\n"
        "        if not ver[u] & 1:\n"
        "            return arr[u]\n"
        "        _spin(attempt)\n",
        "src/repro/parallel/under_test.py",
        {"read_loop": [1, 6]},
    ),
    Mutation(_SLEEPY, SHM, {"read_loop_shape": [_line_of(_SLEEPY, "time.sleep(0.001)")]}),
    Mutation(_LAMBDA_CAST, SHM, {"read_loop_shape": [_line_of(_LAMBDA_CAST, "lambda x")]}),
    Mutation(
        "def scratch(n):\n    return _create_block(n)\n", SHM, {"block_create": [2]}
    ),
    Mutation(
        "def close(pool, owner):\n    owner._shm.unlink()\n",
        "src/repro/parallel/pool.py",
        {"block_unlink": [2]},
    ),
    Mutation(
        "import os\ndef drop(path):\n    os.unlink(path)\n",
        "src/repro/parallel/pool.py",
        {"file_unlink": [], "block_unlink": []},
    ),
    Mutation('import os\nX = os.environ.get("REPRO_OBS")\n', LIBRARY, {"env_obs": [2]}),
    Mutation(
        'import os\nX = os.environ.get("REPRO_FAULT_PLAN")\n',
        LIBRARY,
        {"env_faults": [2]},
    ),
    Mutation(
        '"""REPRO_DOC in a docstring is prose."""\n'
        'import os\nX = os.environ.get(f"REPRO_CHUNK_{1}")\n',
        LIBRARY,
        {"env_knob": [3]},
    ),
]


def _mutation_id(mutation: Mutation) -> str:
    name = mutation.source if mutation.source.endswith(".py") else "inline"
    return f"{'+'.join(mutation.flagged)}:{name}@{mutation.path}"


def placed(source: str, place: str) -> "tuple[str, str]":
    """``(path, source)`` putting *source* at one *place* of a row: a file,
    a file under a directory prefix, or inside a function scope."""
    path, _, scope = place.partition("@")[0].partition("::")
    if not path.endswith(".py"):
        path += "under_test.py"
    for name in reversed(scope.split(".") if scope else []):
        source = f"def {name}():\n" + textwrap.indent(source, "    ")
    return path, source


class TestMutations:
    @pytest.mark.parametrize("mutation", MUTATIONS, ids=_mutation_id)
    def test_flagged_where_ruled_out(self, mutation):
        found = [f for f in violations(modules_with(mutation.code(), mutation.path))
                 if f.path == mutation.path]
        lines = defaultdict(list)
        for f in found:
            lines[f.row].append(f.line)
        expected = {row: sorted(ls) for row, ls in mutation.flagged.items() if ls}
        assert dict(lines) == expected, "\n".join(map(str, found))

    @pytest.mark.parametrize(
        "row", [r for r, spec in TABLE.items() if spec.where not in ((), ANYWHERE)]
    )
    def test_silent_where_allowed(self, row):
        """The row's bad source is silent at each place it allows; a place
        narrowed to one ``@text`` gets a source that is that text."""
        mutation = next(m for m in MUTATIONS if m.flagged.get(row))
        for place in TABLE[row].where:
            text = place.partition("@")[2]
            code = {CRASH_BARRIER: _CRASH_BARRIER_SOURCE}.get(text, f"{text}\n")
            path, source = placed(code if text else mutation.code(), place)
            assert flagged(row, source, path) == [], place

    def test_every_row_has_a_mutation(self):
        assert {row for m in MUTATIONS for row in m.flagged} == set(TABLE)
        assert set(PREDICATES) <= set(TABLE)

    @pytest.mark.parametrize(
        "fixture,path",
        [
            ("raw_rng_good.py", LIBRARY),
            ("literal_seed_good.py", LIBRARY),
            ("shm_lifecycle_good.py", LIBRARY),
            ("worker_task_good.py", LIBRARY),
            ("broad_except_good.py", LIBRARY),
            ("timing_good.py", LIBRARY),
            ("fault_hooks_good.py", LIBRARY),
            ("blocking_coroutine_good.py", "src/repro/distributed/under_test.py"),
        ],
    )
    def test_good_fixture_is_clean(self, fixture, path):
        source = (FIXTURES / fixture).read_text(encoding="utf-8")
        assert Module(path, source).findings == []

    def test_messages_name_the_offence(self):
        source = (FIXTURES / "literal_seed_bad.py").read_text(encoding="utf-8")
        details = " | ".join(f.detail for f in flagged("literal_seed", source, LIBRARY))
        assert "ensure_rng(12345)" in details and "derive_seed(7)" in details
        assert "ensure_rng(None) ignores the seed parameter of helper()" in details
        source = (FIXTURES / "broad_except_bad.py").read_text(encoding="utf-8")
        labels = [f.detail.split(" swallows")[0] for f in flagged("broad_except", source, LIBRARY)]
        assert labels == ["bare except", "except Exception", "except (ValueError, BaseException)"]
        found = flagged("read_loop_shape", _SLEEPY, SHM)
        assert [f.detail for f in found] == ["time.sleep() in the read loop"]
        source = (FIXTURES / "blocking_coroutine_bad.py").read_text(encoding="utf-8")
        details = " | ".join(f.detail for f in flagged("blocking_coroutine", source,
                                                       "src/repro/distributed/x.py"))
        assert details.count("time.sleep()") == 2 and "tick_loop" in details
        assert "sync queue .get()" in details and "blocking socket .recv()" in details

    def test_alias_escapes_are_flagged(self):
        """A renamed import, a bound reference and an aliased class are
        still the name they alias, not only at a call site."""
        source = (
            "import time\n"
            "from time import perf_counter as clock\n"
            "clock()\n"
            "tick = time.perf_counter\n"
            "from multiprocessing.shared_memory import SharedMemory as SM\n"
            "SM(create=True, size=10)\n"
        )
        found = Module("src/repro/dynamic/x.py", source).findings
        assert [(f.row, f.line) for f in found] == [
            ("shm_lifecycle", 5), ("shm_lifecycle", 6),
            ("timing", 2), ("timing", 3), ("timing", 4),
        ]

    def test_injection_leaves_the_cache_alone(self):
        """An injected source shadows its path in one module set only, so a
        mutation never leaks into the walk of the real tree."""
        before = modules()
        mods = modules_with("import time\nt = time.perf_counter()\n", SHM)
        assert [f.row for f in violations(mods)] == ["timing"]
        assert modules() is before
        assert len(mods) == len(before)
        assert violations(modules()) == []

    def test_a_dead_exemption_is_reported(self):
        renamed = shm_source().replace("def _free_block(", "def _release_block(")
        mods = modules_with(renamed, SHM)
        assert ("block_unlink", f"{SHM}::_free_block") in unused_places(mods)
        assert [f.row for f in violations(mods)] == ["block_unlink"]
