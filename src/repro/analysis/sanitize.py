"""Runtime protocol sanitizer — the dynamic twin of ``lint --deep``.

The static passes (:mod:`repro.analysis.lint`, :mod:`repro.analysis.deep`)
prove what they can from source; what only shows at runtime — whether a
segment outlives the pool that published it, whether a worker's final
snapshot is absorbed twice — is checked *here*, TSan-style.  Set
``REPRO_SANITIZE=1`` and the hooks compiled into :mod:`repro.parallel`
start feeding two state machines:

* **shm segments** — every segment created by this process is tracked
  until its ``unlink``; :func:`open_segments` / :func:`segment_open`
  let the pool assert nothing leaked at close (``shm.leak_at_pool_close``
  is reported by the pool hook itself);
* **snapshot shipping** — each worker's final observability snapshot
  must be absorbed exactly once per pool start
  (``obs.double_final_snapshot``).

The seqlock write protocol needs no runtime twin: ``row_write`` on
:class:`~repro.parallel.shm.SharedMatrix` / ``AttachedMatrix`` is the only
way to write a versioned row, refuses a nested write itself, and the
matrices' ``array`` views are read-only.

Two modes: ``raise`` (default — first violation raises
:class:`SanitizeError` at the violating call site) and ``record``
(``REPRO_SANITIZE=record`` — violations accumulate for
:func:`violations`, which the corpus suite uses to assert the sanitizer
*would* have fired).  Worker processes inherit the installation: ``fork``
copies the flag, ``spawn`` re-imports :mod:`repro.parallel` whose import
hook calls :func:`maybe_install_from_env` — and :func:`worker_reset`
clears inherited per-process state at worker startup.

The hooks are written to cost one module-attribute load when disabled
(``if not sanitize.active: return``), so leaving the import wiring in
production paths is free; the ``BENCH_parallel`` bars do not move.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..errors import ReproError

__all__ = [
    "SanitizeError",
    "Violation",
    "active",
    "assert_no_leaks",
    "clear_violations",
    "enabled_in_env",
    "install",
    "installed_mode",
    "maybe_install_from_env",
    "note_final_snapshot",
    "note_pool_start",
    "note_segment_create",
    "note_segment_unlink",
    "open_segments",
    "segment_open",
    "suspended",
    "uninstall",
    "violations",
    "worker_reset",
]


class SanitizeError(ReproError):
    """A protocol violation caught by the runtime sanitizer."""


@dataclass(frozen=True)
class Violation:
    """One recorded violation: a stable ``kind`` slug + human message."""

    kind: str
    message: str


#: Cheap guard the hooks in repro.parallel check before paying anything.
active: bool = False

_mode: str = "raise"
_violations: "list[Violation]" = []
#: shm segment names created by this process and not yet unlinked.
_segments: "set[str]" = set()
#: pool id -> worker ids whose final snapshot was already absorbed.
_pool_finals: "dict[int, set[int]]" = {}

_FALSEY = frozenset({"", "0", "off", "false", "no"})


def enabled_in_env(environ: "os._Environ[str] | dict[str, str] | None" = None) -> "str | None":
    """The sanitizer mode ``REPRO_SANITIZE`` asks for, or ``None`` (off)."""
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_SANITIZE", "").strip().lower()
    if raw in _FALSEY:
        return None
    return "record" if raw == "record" else "raise"


def install(mode: str = "raise") -> None:
    """Turn the sanitizer on (``mode``: ``"raise"`` or ``"record"``)."""
    global active, _mode
    if mode not in ("raise", "record"):
        raise ValueError(f"unknown sanitizer mode: {mode!r}")
    _mode = mode
    active = True


def uninstall() -> None:
    """Turn the sanitizer off and drop all per-process state."""
    global active
    active = False
    _violations.clear()
    _segments.clear()
    _pool_finals.clear()


def installed_mode() -> "str | None":
    return _mode if active else None


def maybe_install_from_env() -> None:
    """Install iff ``REPRO_SANITIZE`` says so (import-time hook).

    Called when :mod:`repro.parallel` is imported, which makes ``spawn``
    workers self-installing: the child re-imports the package before it
    touches any shared state.
    """
    mode = enabled_in_env()
    if mode is not None and not active:
        install(mode)


def worker_reset() -> None:
    """Drop state inherited across ``fork`` at worker startup.

    A forked worker inherits the parent's segment/snapshot maps;
    none of them describe *this* process's actions, so a worker must
    start from a clean slate or parent-side activity shows up as
    phantom violations.
    """
    _violations.clear()
    _segments.clear()
    _pool_finals.clear()


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable the sanitizer (fault-injection tests use this
    to set up a deliberately broken state without tripping the hooks)."""
    global active
    was = active
    active = False
    try:
        yield
    finally:
        active = was


def violations() -> "list[Violation]":
    return list(_violations)


def clear_violations() -> None:
    _violations.clear()


def _report(kind: str, message: str) -> None:
    _violations.append(Violation(kind, message))
    if _mode == "raise":
        raise SanitizeError(f"[{kind}] {message}")


# --------------------------------------------------------------------- #
# shm segment leak tracking
# --------------------------------------------------------------------- #


def note_segment_create(name: str) -> None:
    _segments.add(name)


def note_segment_unlink(name: str) -> None:
    _segments.discard(name)


def open_segments() -> "set[str]":
    """Segments this process created and has not yet unlinked."""
    return set(_segments)


def segment_open(name: str) -> bool:
    return name in _segments


def assert_no_leaks() -> None:
    """Report every still-open segment (test teardown helper)."""
    for name in sorted(_segments):
        _report(
            "shm.leak",
            f"shared-memory segment {name} was created but never unlinked",
        )


def report_pool_leak(name: str) -> None:
    """The pool found segment *name* still open after its own close()."""
    _report(
        "shm.leak_at_pool_close",
        f"shared-memory segment {name} still open after WorkerPool.close() "
        "— an owner matrix/CSR outlived the pool that published it",
    )


# --------------------------------------------------------------------- #
# exact-once snapshot shipping
# --------------------------------------------------------------------- #


def note_pool_start(pool_id: int) -> None:
    """A pool's workers (re)started: final snapshots are expected anew."""
    _pool_finals[pool_id] = set()


def note_final_snapshot(pool_id: int, worker_id: int) -> None:
    """Worker *worker_id*'s final obs snapshot was absorbed by *pool_id*."""
    shipped = _pool_finals.setdefault(pool_id, set())
    if worker_id in shipped:
        _report(
            "obs.double_final_snapshot",
            f"worker {worker_id} final snapshot absorbed twice by pool "
            f"{pool_id} — counters would double-merge",
        )
    shipped.add(worker_id)
