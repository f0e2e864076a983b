"""The tap seam: the one way to instrument the event loop, and its registry.

A *tap* brackets every fired event of a :class:`~repro.sim.engine.Simulator`.
The engine hands it ``(time, priority, callback, args)``; the tap
invokes the callback exactly once and does whatever it needs around the
call.  Four instruments are taps, one per *kind*, and each kind is named
by the environment variable that requests it (see :mod:`repro.core.env`):

==================  ===================================================
``REPRO_VALIDATE``  the validator's ``SimObserver`` (:mod:`repro.validate`)
``REPRO_RACE``      the same-instant ``RaceMonitor`` (:mod:`repro.lint.race`)
``REPRO_PROFILE``   the engine ``Profiler`` (:mod:`repro.obs`)
``REPRO_ALLOC``     the ``AllocMonitor`` (:mod:`repro.lint.perf`)
==================  ===================================================

Several taps on one simulator nest in that order — validator outermost,
allocation innermost, so the tracemalloc window excludes the other
taps' work — and compose into one object in the engine's single
``tap`` slot.  An untapped simulator runs the leanest loop; the tap
costs nothing until one is attached.

The registry half (:func:`activate`, :func:`active`, :func:`requested`,
...) decides which taps newly built networks attach.  It is
dependency-free — nothing from :mod:`repro` is imported at module scope
— so the lowest layers can consult it at construction time without
import cycles.  Activation nests per kind: :func:`active` returns the
innermost tap, so an experiment run inside an instrumented test gets
its own fresh tap without disturbing the outer one.  The environment
reaches campaign pool workers, which inherit it: ``REPRO_VALIDATE`` and
``REPRO_PROFILE`` (or ``REPRO_TELEMETRY``) make the runner build a fresh
tap per cell, while ``REPRO_RACE`` and ``REPRO_ALLOC`` make
:func:`active` materialize one shared per-process monitor.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_ENV_VALIDATE = "REPRO_VALIDATE"
_ENV_RACE = "REPRO_RACE"
_ENV_PROFILE = "REPRO_PROFILE"
_ENV_ALLOC = "REPRO_ALLOC"
_ENV_RACE_LOG = "REPRO_RACE_LOG"
_ENV_ALLOC_LOG = "REPRO_ALLOC_LOG"
_ENV_TELEMETRY = "REPRO_TELEMETRY"

#: The tap kinds, outermost first.
VALIDATE, RACE, PROFILE, ALLOC = KINDS = (
    _ENV_VALIDATE, _ENV_RACE, _ENV_PROFILE, _ENV_ALLOC,
)

_RANK = {kind: rank for rank, kind in enumerate(KINDS)}

#: Kinds whose environment flag alone materializes one shared
#: per-process tap: ``module``, class name, and the variable naming its
#: JSONL log.
_AMBIENT: Dict[str, Tuple[str, str, str]] = {
    RACE: ("repro.lint.race.runtime", "RaceMonitor", _ENV_RACE_LOG),
    ALLOC: ("repro.lint.perf.runtime", "AllocMonitor", _ENV_ALLOC_LOG),
}

#: Stack of explicitly active taps per kind; the top one is attached.
_STACKS: Dict[str, List[Any]] = {kind: [] for kind in KINDS}

#: The lazily created environment-requested taps, by kind.
_SHARED: Dict[str, Any] = {}


# ----------------------------------------------------------------------
# The tap protocol
# ----------------------------------------------------------------------


def invoke(
    time: float, priority: int, callback: Callable[..., None], args: tuple
) -> None:
    """Fire ``callback(*args)``: the innermost step of every tap.

    A tap implements ``kind`` (one of :data:`KINDS`) and
    ``fire(time, priority, callback, args, call=invoke)``, which runs
    ``call(time, priority, callback, args)`` exactly once, bracketed as
    the tap needs.  ``call`` is how an outer tap runs the inner ones.
    """
    callback(*args)


class _Nest:
    """Two taps as one: ``outer`` brackets ``inner``, both see the callback."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: Any, inner: Any) -> None:
        self.outer = outer
        self.inner = inner

    def fire(
        self, time: float, priority: int, callback: Callable[..., None], args: tuple
    ) -> None:
        self.outer.fire(time, priority, callback, args, self.inner.fire)


def members(sim: Any) -> List[Any]:
    """The taps attached to ``sim``, outermost first."""
    found = []
    tap = sim.tap
    while isinstance(tap, _Nest):
        found.append(tap.outer)
        tap = tap.inner
    if tap is not None:
        found.append(tap)
    return found


def _compose(sim: Any, taps: List[Any]) -> None:
    taps.sort(key=lambda tap: _RANK[tap.kind])
    composed = None
    for tap in reversed(taps):
        composed = tap if composed is None else _Nest(tap, composed)
    sim.tap = composed


def attach(sim: Any, tap: Any) -> None:
    """Compose ``tap`` into ``sim``'s slot, replacing one of the same kind."""
    _compose(sim, [t for t in members(sim) if t.kind != tap.kind] + [tap])


def detach(sim: Any, tap: Any) -> None:
    """Remove ``tap`` from ``sim``'s slot (a no-op when not attached)."""
    _compose(sim, [t for t in members(sim) if t is not tap])


def attached(sim: Any, kind: str) -> Optional[Any]:
    """The tap of ``kind`` attached to ``sim``, or ``None``."""
    for tap in members(sim):
        if tap.kind == kind:
            return tap
    return None


# ----------------------------------------------------------------------
# The activation registry
# ----------------------------------------------------------------------


def _flag(name: str) -> bool:
    """Whether environment variable ``name`` is set to neither "" nor "0"."""
    return os.environ.get(name, "") not in ("", "0")


def telemetry_dir() -> Optional[str]:
    """``$REPRO_TELEMETRY`` when set to a non-empty value, else ``None``.

    This is how the CLI's ``--telemetry DIR`` reaches campaign worker
    processes, and how a bare library caller opts a whole process into
    telemetry.  Telemetry records embed the engine profile, so a
    telemetry directory also requests :data:`PROFILE` taps.
    """
    return os.environ.get(_ENV_TELEMETRY, "") or None


def activate(kind: str, tap: Any) -> None:
    """Push ``tap``: networks constructed from now on attach it."""
    _STACKS[kind].append(tap)


def deactivate(kind: str, tap: Optional[Any] = None) -> None:
    """Pop the innermost ``kind`` tap (which must be ``tap`` when given)."""
    stack = _STACKS[kind]
    if not stack:
        raise RuntimeError(f"no {kind} tap is active")
    if tap is not None and stack[-1] is not tap:
        raise RuntimeError(
            f"deactivate() out of order: not the innermost {kind} tap"
        )
    stack.pop()


def requested(kind: str) -> bool:
    """Whether runs should carry a ``kind`` tap.

    True when one is active in this process or the kind's environment
    variable is set (any non-empty value other than ``0``); a telemetry
    directory also requests profiling.
    """
    if _STACKS[kind] or _flag(kind):
        return True
    return kind == PROFILE and telemetry_dir() is not None


def active(kind: str) -> Optional[Any]:
    """The ``kind`` tap new networks should attach, or ``None``.

    Explicit activation wins; otherwise an ambient kind's environment
    flag materializes one shared tap on first use.  ``None`` is the
    common case and stays cheap: it is consulted once per ``Network``.
    """
    stack = _STACKS[kind]
    if stack:
        return stack[-1]
    ambient = _AMBIENT.get(kind)
    if ambient is None or not _flag(kind):
        return None
    tap = _SHARED.get(kind)
    if tap is None:
        module, name, log_var = ambient
        factory = getattr(importlib.import_module(module), name)
        tap = _SHARED[kind] = factory(log_path=os.environ.get(log_var) or None)
    return tap


@contextlib.contextmanager
def tapping(kind: str, tap: Any) -> Iterator[Any]:
    """Run a block with ``tap`` active for ``kind``."""
    activate(kind, tap)
    try:
        yield tap
    finally:
        deactivate(kind, tap)


__all__ = [
    "ALLOC",
    "KINDS",
    "PROFILE",
    "RACE",
    "VALIDATE",
    "activate",
    "active",
    "attach",
    "attached",
    "deactivate",
    "detach",
    "invoke",
    "members",
    "requested",
    "tapping",
    "telemetry_dir",
]
