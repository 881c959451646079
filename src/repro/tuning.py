"""The runtime switch for :mod:`repro.obs` instrumentation.

``obs`` gates the :mod:`repro.obs` instrumentation (``REPRO_OBS``; the
strings ``off``/``false``/``no`` mean ``0``, ``on``/``true``/``yes`` mean
``1``).  It is read once from the environment at first use; the
:func:`overridden` context manager (scoped, exception-safe) switches it
programmatically, which is how the soak verify step and the obs benchmark
run untimed or uninstrumented passes.

The engines' dispatch thresholds are plain module constants where they
are used (:mod:`repro.graph.traversal`, :mod:`repro.parallel.pool`,
:mod:`repro.parallel.shm`).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .errors import ParameterError

__all__ = ["Tuning", "get", "reset", "overridden", "DEFAULT_OBS"]

#: Observability on by default — :mod:`repro.obs` is designed to be cheap
#: enough to leave on; ``REPRO_OBS=off`` (or 0) kills it for bake-offs.
DEFAULT_OBS = 1

#: String spellings accepted for ``REPRO_OBS``.
_ENV_WORDS = {"off": 0, "false": 0, "no": 0, "on": 1, "true": 1, "yes": 1}


@dataclass(frozen=True)
class Tuning:
    """One immutable snapshot of the runtime switch (see module docstring)."""

    obs: int = DEFAULT_OBS

    def __post_init__(self) -> None:
        if not isinstance(self.obs, int) or self.obs < 0:
            raise ParameterError(f"obs must be a non-negative int, got {self.obs!r}")


def _from_env() -> Tuning:
    raw = os.environ.get("REPRO_OBS")
    if raw is None:
        return Tuning()
    word = raw.strip().lower()
    if word in _ENV_WORDS:
        return Tuning(obs=_ENV_WORDS[word])
    try:
        return Tuning(obs=int(raw))
    except ValueError:
        raise ParameterError(f"REPRO_OBS must be an int, got {raw!r}") from None


_active: "Tuning | None" = None  # lazily initialized from the environment


def get() -> Tuning:
    """The active snapshot (defaults + env + :func:`overridden`)."""
    global _active
    if _active is None:
        _active = _from_env()
    return _active


def reset() -> None:
    """Drop every programmatic override (environment applies again)."""
    global _active
    _active = None


@contextmanager
def overridden(*, obs: int) -> "Iterator[Tuning]":
    """Scoped override — restores the previous snapshot on exit.

    Applies process-wide (worker processes of :mod:`repro.parallel`
    inherit the environment, not programmatic overrides).
    """
    global _active
    previous = get()
    _active = Tuning(obs=obs)
    try:
        yield _active
    finally:
        _active = previous
