"""Human-facing explanations for every finding code (``--explain``).

Every code any checker can emit must have an entry here -- the test
suite enforces it (``tests/tools/test_analyze.py``).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["EXPLANATIONS"]

EXPLANATIONS: Dict[str, str] = {
    # -- lock discipline ------------------------------------------------
    "LD101": (
        "Bare lock acquire.  An `X.acquire()` whose release is not "
        "structurally guaranteed: use a `with` statement, or follow the "
        "acquire immediately with `try: ... finally: X.release()`.  An "
        "exception between acquire and release leaks the lock and hangs "
        "every later acquirer.  Non-blocking probes whose result is "
        "branched on (`if lock.acquire(blocking=False): ...`) are exempt."
    ),
    "LD102": (
        "Blocking call inside a fast-path critical section.  Locks marked "
        "fast_path in tools/analyze/hierarchy.py sit on the serving hot "
        "path (insert/solve/stats/routing); holding one across sqlite, "
        "socket, queue, sleep or snapshot I/O turns one slow call into a "
        "convoy for every request behind it.  Move the I/O outside the "
        "lock (capture state under the lock, act on it after), or -- if "
        "the hold is a deliberate design decision -- baseline the finding "
        "with a one-line justification."
    ),
    "LD103": (
        "Undeclared or drifted lock.  Every lock assigned to an instance "
        "attribute in the scanned modules must have a LockDecl in "
        "tools/analyze/hierarchy.py (so it has a rank in the deadlock "
        "hierarchy), be constructed through the witness factories "
        "(named_lock / named_rlock) with "
        "exactly the declared name and kind, and every declaration must "
        "match a real construction.  This keeps the static hierarchy, "
        "the runtime witness and the code itself in lock-step."
    ),
    # -- deadlock hierarchy ---------------------------------------------
    "LH201": (
        "Static lock-order inversion.  Lexically nested `with` blocks "
        "acquire declared locks against the canonical order in "
        "tools/analyze/hierarchy.LOCK_ORDER (or re-acquire a "
        "non-reentrant lock).  Two threads taking the same pair of locks "
        "in opposite orders deadlock; the fix is to reorder the "
        "acquisitions or change the hierarchy deliberately (update "
        "LOCK_ORDER *and* repro.core.witness.LOCK_HIERARCHY together)."
    ),
    "LH202": (
        "Hierarchy drift.  The analyzer's LOCK_ORDER and the runtime "
        "witness's LOCK_HIERARCHY (src/repro/core/witness.py) must be "
        "identical tuples, and every declared lock must rank in them "
        "exactly once.  The static checks and the runtime witness are "
        "two halves of one invariant; if their orders diverge, each "
        "half silently validates a different hierarchy."
    ),
    # -- wire contracts --------------------------------------------------
    "WC301": (
        "Error-taxonomy drift in code.  The ApiError subclasses in "
        "src/repro/api/errors.py (their `code` and `status` attributes, "
        "and membership in _ERRORS_BY_CODE) must match "
        "tools/analyze/contracts.ERROR_TAXONOMY.  Client-side errors "
        "(wire=False) must stay OUT of the registry -- they are never "
        "serialised."
    ),
    "WC302": (
        "Error-taxonomy drift in docs.  The API.md error table must have "
        "exactly one row per taxonomy class with the declared wire code "
        "and HTTP status (em-dash for client-side errors)."
    ),
    "WC303": (
        "Unknown fault point fired in src, or a declared point never "
        "fired.  Every `plan.fire(\"...\")` literal must be one of "
        "tools/analyze/contracts.FAULT_POINTS; a declared point with no "
        "fire site is a stale table entry that chaos drills would arm "
        "in vain."
    ),
    "WC304": (
        "Fault-point drift in docs.  The SERVING.md drill table must "
        "list exactly FAULT_POINTS; additionally any backticked "
        "`prefix.word` token in the serving docs that looks like a "
        "fault point or lock name must actually be one (stale names in "
        "prose mislead operators running drills)."
    ),
    "WC305": (
        "Test arms a nonexistent fault point.  A "
        "`FaultRule(\"a.b\", ...)` whose dotted point is not declared "
        "can never fire -- the drill silently tests nothing.  Synthetic "
        "single-word names (\"p\") used by the plan-machinery unit tests "
        "are allowed."
    ),
    "WC306": (
        "Stats-key drift in code.  The literal keys CorpusShard.stats() "
        "returns must be exactly tools/analyze/contracts.STATS_KEYS -- "
        "these keys are republished by /corpora/<name>/stats and "
        "aggregated into /healthz, so an unilateral rename breaks "
        "dashboards."
    ),
    "WC307": (
        "Stats-key drift in docs.  The SERVING.md stats-key table must "
        "list exactly STATS_KEYS."
    ),
    "WC308": (
        "Algorithm-registry drift in code.  The @register_algorithm "
        "classes must expose exactly the names in "
        "tools/analyze/contracts.ALGORITHMS via their `name` attribute."
    ),
    "WC309": (
        "Algorithm-registry drift in docs.  API.md must mention every "
        "registered algorithm name, and must not document names the "
        "registry does not serve."
    ),
    # -- writer hygiene --------------------------------------------------
    "WR401": (
        "Declared mutator missing, or a store mutator without its "
        "@locked_by annotation.  The declared mutating methods of "
        "IncrementalTagDM must exist, and those of SqliteTaggingStore "
        "must carry "
        "@locked_by(\"store.lock\").  The decorator is static metadata "
        "(no runtime wrapper); it makes the synchronization contract "
        "greppable and checkable."
    ),
    "WR402": (
        "Session mutator called outside a writer context.  "
        "IncrementalTagDM mutators take no lock: one thread owns the "
        "session (in serving, the shard's writer thread).  A call site "
        "must carry an `# analyze: writer-context` comment stating why "
        "its thread is that single writer (e.g. startup-only replay "
        "before any thread exists)."
    ),
    "WR403": (
        "Self-guarded monitor method without its internal lock.  "
        "SqliteTaggingStore mutators promise thread safety themselves; "
        "a body that never takes `with self._lock:` silently drops that "
        "promise while the @locked_by annotation still advertises it."
    ),
    # -- shared-state races ----------------------------------------------
    "RC501": (
        "Write to an attribute with no ownership declaration.  Every "
        "instance attribute of a declared concurrency class must be "
        "classified into an ownership domain (init-only, lock:<name>, "
        "confined:<label>, frozen-after-publish) in "
        "tools/analyze/ownership.py, via the class's @owned_by "
        "decorator, or inline with `# analyze: owner=<domain>`.  "
        "Completeness is deliberate: a new field cannot silently join a "
        "shared class unclassified.  Also fired for a declared domain "
        "string the analyzer does not recognise."
    ),
    "RC502": (
        "Attribute store outside its ownership domain.  A direct "
        "`self.X = ...` / `del self.X` after construction that is not "
        "in the domain's writer context: init-only and "
        "frozen-after-publish attributes must not be written post-init "
        "at all; lock:<name> attributes need the lock held (a lexical "
        "`with`, an enclosing @locked_by(\"<name>\"), or an "
        "`# analyze: writer-context` comment); confined:<label> "
        "attributes may only be written by "
        "the declared writer methods."
    ),
    "RC503": (
        "Container or nested-object mutation outside its ownership "
        "domain.  Same contract as RC502 but for writes *through* the "
        "attribute: `self.X[...] = ...`, `self.X.append(...)`, "
        "`self.X.Y = ...`.  These mutate shared state just as surely as "
        "rebinding the attribute, and are easier to miss in review."
    ),
    "RC504": (
        "Mutation of published-view state.  A store/del/mutator call "
        "whose receiver chain goes through a view (`view`, `*_view`): a "
        "frozen SessionView and everything reachable from it is "
        "immutable after freeze() -- concurrent solvers read it with no "
        "lock.  Mutate the live session on the shard's writer thread and "
        "publish a new epoch.  The runtime half of this contract is the "
        "TAGDM_STATE_SANITIZER raise-on-write proxies "
        "(repro.core.sanitizer)."
    ),
    "RC505": (
        "Stale ownership declaration.  A declared attribute the class "
        "never writes, or a declared class the module no longer "
        "defines.  Dead entries rot the table's authority; delete them "
        "in the same change that removed the code."
    ),
    # -- determinism ------------------------------------------------------
    "DT601": (
        "Unseeded randomness.  default_rng() without a seed, a draw on "
        "the process-global `random` / `np.random` generators, or a "
        "Random()/RandomState() constructed seedless.  Every stochastic "
        "component must thread its seed from the session/component "
        "configuration so replays are bit-identical.  Suppress a "
        "deliberate use with `# analyze: nondeterminism-ok(<why>)`."
    ),
    "DT602": (
        "Set iteration feeding order-sensitive consumers.  Iterating a "
        "set expression (for loop, comprehension, list()/tuple()/"
        "enumerate()/join()) leaks the per-process hash salt into "
        "downstream ordering -- serialization, group order, tie-breaks.  "
        "Wrap the set in sorted(...), or annotate "
        "`# analyze: nondeterminism-ok(<why>)` when order provably "
        "cannot escape."
    ),
    "DT603": (
        "Wall-clock read on a deterministic path.  time.time(), "
        "datetime.now() etc. inside the solve/fold/serde packages "
        "(core, algorithms, index, geometry, text) make results depend "
        "on when they ran.  Take timestamps at the serving/ops layer "
        "and pass them in; monotonic timing instrumentation is exempt."
    ),
    "DT604": (
        "id()-based ordering.  A sorted()/.sort()/min()/max() key that "
        "calls id() resolves ties by object address, which reshuffles "
        "every run.  Key on stable content (description, name, index) "
        "instead."
    ),
    # -- doc links --------------------------------------------------------
    "DL501": (
        "Broken documentation link.  A relative markdown link in a "
        "top-level doc points at a file that does not exist."
    ),
    "DL502": (
        "Documentation link escapes the repository.  A relative link "
        "resolves outside the repo root -- it cannot work in a clone."
    ),
}
