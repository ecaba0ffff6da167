"""Runtime publication-immutability sanitizer for frozen session views.

The HTAP serving design publishes an immutable :class:`~repro.core.
incremental.SessionView` per merge epoch; solver threads read it with
*no lock*.  That is only sound if a published view is deeply immutable:
one post-publication write to ``view.groups`` (or to an ndarray a group
carries) silently corrupts concurrent solves and breaks the
bit-identical parity guarantee the benchmarks rest on.

This module is the *runtime* half of that contract, mirroring the lock
witness (``repro.core.witness``): with the ``TAGDM_STATE_SANITIZER``
environment variable set, ``freeze()`` deep-wraps the view's published
containers in raise-on-write proxies --

* the group list becomes a :class:`FrozenList` whose mutators raise
  :class:`PublicationViolation`;
* every group signature ndarray (and the stacked signature matrix) is
  marked ``writeable=False``, so in-place element writes raise at the
  numpy layer;

-- and the chaos/HTAP CI jobs arm it exactly like
``TAGDM_LOCK_WITNESS=1``.  With the variable unset (the default and the
production configuration) nothing is wrapped: plain lists, writable
arrays, zero overhead.

The view's *lazily built* derived state (``_signatures`` when absent,
``_matrix_cache``, ``_lsh_cache``) is deliberately left writable: those
fields are legitimately written after ``freeze()`` under the view's own
``view.build`` lock (see the ownership table in
``tools/analyze/ownership.py``).

The static half lives in ``tools/analyze/races.py`` (RC5xx).
"""

from __future__ import annotations

import os
from typing import Callable

__all__ = [
    "SANITIZER_ENV",
    "FrozenDict",
    "FrozenList",
    "PublicationViolation",
    "freeze_array",
    "owned_by",
    "sanitizer_enabled",
    "seal_view",
]

SANITIZER_ENV = "TAGDM_STATE_SANITIZER"


def sanitizer_enabled() -> bool:
    """Whether the state sanitizer is armed (``TAGDM_STATE_SANITIZER``)."""
    return os.environ.get(SANITIZER_ENV, "").strip() not in ("", "0", "false")


class PublicationViolation(AssertionError):
    """A write reached state that was frozen at view publication."""


def _raiser(operation: str) -> Callable:
    def mutate(self, *args, **kwargs):
        raise PublicationViolation(
            f"{operation}() on a container frozen at view publication -- "
            "published SessionView state is immutable; mutate the live "
            "session on the shard's writer thread and publish a new epoch "
            "instead"
        )

    mutate.__name__ = operation
    return mutate


class FrozenList(list):
    """A list whose mutators raise :class:`PublicationViolation`.

    Reads (indexing, iteration, ``len``, slicing) behave exactly like a
    plain list, so solver code is unaffected; only writes trip.
    """

    __slots__ = ()

    append = _raiser("append")
    extend = _raiser("extend")
    insert = _raiser("insert")
    remove = _raiser("remove")
    pop = _raiser("pop")
    clear = _raiser("clear")
    sort = _raiser("sort")
    reverse = _raiser("reverse")
    __setitem__ = _raiser("__setitem__")
    __delitem__ = _raiser("__delitem__")
    __iadd__ = _raiser("__iadd__")
    __imul__ = _raiser("__imul__")


class FrozenDict(dict):
    """A dict whose mutators raise :class:`PublicationViolation`."""

    __slots__ = ()

    __setitem__ = _raiser("__setitem__")
    __delitem__ = _raiser("__delitem__")
    pop = _raiser("pop")
    popitem = _raiser("popitem")
    clear = _raiser("clear")
    update = _raiser("update")
    setdefault = _raiser("setdefault")


def freeze_array(value):
    """Mark an ndarray read-only when the sanitizer is armed.

    Duck-typed (``setflags``) so this module never imports numpy; passes
    non-arrays (and ``None``) through untouched.  Returns ``value`` for
    assignment-site use: ``self._signatures = freeze_array(matrix)``.
    """
    if value is not None and sanitizer_enabled():
        setflags = getattr(value, "setflags", None)
        if setflags is not None:
            try:
                setflags(write=False)
            except ValueError:  # pragma: no cover - non-owning array views
                pass
    return value


def seal_view(view) -> None:
    """Deep-freeze a just-published view's containers (when armed).

    Called at the end of ``SessionView.__init__``.  Wraps the group list
    and marks every captured signature array read-only.  The signature
    arrays are shared with the live session's group objects *by design*
    (inserts replace group-list entries rather than mutating captured
    groups), so sealing them also catches any in-place write reached
    through the live side.
    """
    if not sanitizer_enabled():
        return
    for group in view.groups:
        freeze_array(getattr(group, "signature", None))
    view.groups = FrozenList(view.groups)
    freeze_array(view._signatures)


def owned_by(**domains: str):
    """Declare attribute ownership domains on a class (static metadata).

    ``@owned_by(groups="frozen-after-publish", _lsh_cache="lock:view.build")``
    attaches the attribute -> domain mapping as ``__owned_by__`` and
    returns the class unchanged -- no runtime wrapper, no overhead.  The
    shared-state race detector (``tools/analyze``, RC5xx) merges these
    with the central table in ``tools/analyze/ownership.py`` and flags
    any write outside the declared domain's writer context.
    """

    def tag(cls):
        merged = dict(getattr(cls, "__owned_by__", {}))
        merged.update(domains)
        cls.__owned_by__ = merged
        return cls

    return tag
