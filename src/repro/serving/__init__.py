"""Long-lived serving over warm TagDM sessions, single- or multi-process.

The serving subsystem turns the persistence substrate (SQLite dataset
stores + warm-start session snapshots) into processes that sit under
mixed insert/query traffic, in three layers:

* **In-process registry** -- :class:`TagDMServer`, a registry of
  per-corpus :class:`CorpusShard` instances, each served HTAP-style as
  **delta + main**: one single-writer insert queue feeding the session
  (the delta), lock-free solves against a pinned immutable
  :class:`~repro.core.incremental.SessionView` (the main), and a merge
  path -- governed by :class:`MergePolicy` -- that folds delta into a
  freshly published view and rotates snapshots per
  :class:`SnapshotRotationPolicy`/:class:`SnapshotRotator`.  The
  shard's writer thread runs the merge path too, so it is the only
  thread that ever touches the live session.  See ``SERVING.md``.
* **Network front-end** -- :class:`TagDMHttpServer`, an HTTP server
  speaking the wire-native API of :mod:`repro.api` (problem specs in,
  serialised -- optionally paginated or NDJSON-streamed -- results out,
  typed error taxonomy).  See ``API.md``.
* **Multi-process fleet** -- :class:`TagDMFleet` spawns and supervises
  N worker processes (each a :class:`TagDMServer` + front-end on its
  own port) behind a :class:`TagDMRouter` that owns the
  corpus->worker :class:`PlacementTable` (rendezvous hashing + pins)
  and rides out worker deaths by retrying against respawned workers.
  See ``DEPLOYMENT.md`` and ``ARCHITECTURE.md``.

Cross-cutting the three layers, :mod:`repro.serving.reliability`
supplies the fault-tolerance primitives: :class:`AdmissionPolicy`
(429 load shedding), :class:`CircuitBreaker` + :class:`RetryBudget`
(the router's health-aware retry machinery) and
:class:`FaultPlan`/:class:`FaultRule` (the deterministic
fault-injection harness behind ``tests/serving/test_chaos.py`` and
``examples/chaos_demo.py``).  The failure-semantics matrix -- which
fault surfaces where, with which status code -- is in
``DEPLOYMENT.md``.
"""

from repro.core.incremental import SessionView
from repro.serving.policy import MergePolicy, SnapshotRotationPolicy, SnapshotRotator
from repro.serving.reliability import (
    AdmissionPolicy,
    CircuitBreaker,
    FaultPlan,
    FaultRule,
    InjectedFault,
    RetryBudget,
)
from repro.serving.server import TagDMServer
from repro.serving.shards import CorpusShard
from repro.serving.http import TagDMHttpServer
from repro.serving.router import PlacementTable, TagDMRouter
from repro.serving.fleet import FleetWorker, TagDMFleet

__all__ = [
    "TagDMServer",
    "TagDMHttpServer",
    "TagDMFleet",
    "TagDMRouter",
    "PlacementTable",
    "FleetWorker",
    "CorpusShard",
    "SessionView",
    "MergePolicy",
    "SnapshotRotationPolicy",
    "SnapshotRotator",
    "AdmissionPolicy",
    "CircuitBreaker",
    "RetryBudget",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
]
