"""Self-tests for the static-analysis suite (``tools/analyze``).

Two halves: a fixture corpus of known-bad sources that every check
family must flag (the analyzer analyzing the analyzer's blind spots),
and repo-level tests that the committed tree is clean modulo the
committed baseline.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analyze import (  # noqa: E402
    contracts,
    determinism,
    doclinks,
    locks,
    order,
    races,
    writers,
)
from tools.analyze.cli import CHECKS, main  # noqa: E402
from tools.analyze.core import Baseline, Finding  # noqa: E402
from tools.analyze.explain import EXPLANATIONS  # noqa: E402
from tools.analyze.hierarchy import LOCK_DECLS, LOCK_ORDER  # noqa: E402
from tools.analyze.ownership import OWNERSHIP_DECLS, OwnershipDecl  # noqa: E402

SHARDS = "src/repro/serving/shards.py"  # a module with declared locks
FLEET = "src/repro/serving/fleet.py"  # TagDMFleet._lock is a declared rlock


def codes(findings):
    return [finding.code for finding in findings]


# ---------------------------------------------------------------------------
# lock discipline (LD1xx)
# ---------------------------------------------------------------------------


class TestLockDiscipline:
    def test_bare_acquire_flagged(self):
        src = (
            "class C:\n"
            "    def f(self):\n"
            "        self._mutex.acquire()\n"
            "        self.x = 1\n"
            "        self._mutex.release()\n"
        )
        findings, _ = locks.check_file("m.py", src)
        assert codes(findings) == ["LD101"]

    def test_acquire_without_any_release_flagged(self):
        src = (
            "class C:\n"
            "    def f(self):\n"
            "        self._mutex.acquire()\n"
            "        return self.x\n"
        )
        findings, _ = locks.check_file("m.py", src)
        assert codes(findings) == ["LD101"]

    def test_try_finally_release_accepted(self):
        src = (
            "class C:\n"
            "    def f(self):\n"
            "        self._mutex.acquire()\n"
            "        try:\n"
            "            self.x = 1\n"
            "        finally:\n"
            "            self._mutex.release()\n"
        )
        findings, _ = locks.check_file("m.py", src)
        assert findings == []

    def test_nonblocking_probe_accepted(self):
        # the fleet supervisor idiom: branch on a non-blocking probe
        src = (
            "class C:\n"
            "    def f(self):\n"
            "        got = self._mutex.acquire(blocking=False)\n"
            "        if not got:\n"
            "            return\n"
            "        try:\n"
            "            self.x = 1\n"
            "        finally:\n"
            "            self._mutex.release()\n"
        )
        findings, _ = locks.check_file("m.py", src)
        assert findings == []

    def test_blocking_call_under_fast_path_lock(self):
        src = (
            "import time\n"
            "class CorpusShard:\n"
            "    def f(self):\n"
            "        with self._submit_lock:\n"
            "            time.sleep(1)\n"
        )
        findings, _ = locks.check_file(SHARDS, src)
        assert codes(findings) == ["LD102"]
        assert findings[0].key == "shard.submit:sleep"

    def test_sqlite_execute_under_fast_path_lock(self):
        src = (
            "class CorpusShard:\n"
            "    def f(self, conn):\n"
            "        with self._stats_lock:\n"
            "            conn.execute('select 1')\n"
        )
        findings, _ = locks.check_file(SHARDS, src)
        assert codes(findings) == ["LD102"]

    def test_dict_get_not_confused_with_queue_get(self):
        src = (
            "class CorpusShard:\n"
            "    def f(self, mapping):\n"
            "        with self._submit_lock:\n"
            "            return mapping.get('x')\n"
        )
        findings, _ = locks.check_file(SHARDS, src)
        assert findings == []

    def test_queue_get_with_timeout_accepted(self):
        src = (
            "class CorpusShard:\n"
            "    def f(self):\n"
            "        with self._submit_lock:\n"
            "            return self._queue.get(timeout=1.0)\n"
        )
        findings, _ = locks.check_file(SHARDS, src)
        assert findings == []

    def test_nested_function_body_not_scanned(self):
        src = (
            "import time\n"
            "class CorpusShard:\n"
            "    def f(self):\n"
            "        with self._submit_lock:\n"
            "            def later():\n"
            "                time.sleep(1)\n"
            "            return later\n"
        )
        findings, _ = locks.check_file(SHARDS, src)
        assert findings == []

    def test_undeclared_lock_flagged(self):
        src = (
            "import threading\n"
            "class CorpusShard:\n"
            "    def __init__(self):\n"
            "        self._rogue = threading.Lock()\n"
        )
        findings, _ = locks.check_file(SHARDS, src)
        assert codes(findings) == ["LD103"]

    def test_name_mismatch_flagged(self):
        src = (
            "class CorpusShard:\n"
            "    def __init__(self):\n"
            "        self._submit_lock = named_lock('wrong.name')\n"
        )
        findings, _ = locks.check_file(SHARDS, src)
        assert codes(findings) == ["LD103"]
        assert "wrong.name" in findings[0].message

    def test_raw_threading_lock_for_declared_attr_flagged(self):
        src = (
            "import threading\n"
            "class CorpusShard:\n"
            "    def __init__(self):\n"
            "        self._submit_lock = threading.Lock()\n"
        )
        findings, _ = locks.check_file(SHARDS, src)
        assert codes(findings) == ["LD103"]
        assert "witness" in findings[0].message


# ---------------------------------------------------------------------------
# deadlock hierarchy (LH2xx)
# ---------------------------------------------------------------------------


class TestHierarchy:
    def test_inversion_flagged(self):
        src = (
            "class CorpusShard:\n"
            "    def f(self):\n"
            "        with self._stats_lock:\n"
            "            with self._submit_lock:\n"
            "                pass\n"
        )
        findings = order.check_file(SHARDS, src)
        assert codes(findings) == ["LH201"]
        assert findings[0].key == "inversion:shard.stats->shard.submit"

    def test_correct_order_accepted(self):
        src = (
            "class CorpusShard:\n"
            "    def f(self):\n"
            "        with self._submit_lock:\n"
            "            with self._stats_lock:\n"
            "                pass\n"
        )
        assert order.check_file(SHARDS, src) == []

    def test_self_nesting_of_plain_lock_flagged(self):
        src = (
            "class CorpusShard:\n"
            "    def f(self):\n"
            "        with self._submit_lock:\n"
            "            with self._submit_lock:\n"
            "                pass\n"
        )
        findings = order.check_file(SHARDS, src)
        assert codes(findings) == ["LH201"]
        assert "self-deadlock" in findings[0].message

    def test_self_nesting_of_rlock_accepted(self):
        src = (
            "class TagDMFleet:\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            with self._lock:\n"
            "                pass\n"
        )
        assert order.check_file(FLEET, src) == []

    def test_nested_def_resets_held_stack(self):
        src = (
            "class CorpusShard:\n"
            "    def f(self):\n"
            "        with self._stats_lock:\n"
            "            def later(self):\n"
            "                with self._submit_lock:\n"
            "                    pass\n"
            "            return later\n"
        )
        assert order.check_file(SHARDS, src) == []

    def test_witness_drift_flagged(self):
        findings = order.check_witness_module("LOCK_HIERARCHY = ('a', 'b')\n")
        assert codes(findings) == ["LH202"]

    def test_witness_missing_tuple_flagged(self):
        findings = order.check_witness_module("X = 1\n")
        assert codes(findings) == ["LH202"]
        assert findings[0].key == "missing-hierarchy"

    def test_witness_matching_tuple_accepted(self):
        literal = ", ".join(repr(name) for name in LOCK_ORDER)
        assert order.check_witness_module(f"LOCK_HIERARCHY = ({literal})\n") == []

    def test_every_decl_is_ranked(self):
        assert {d.name for d in LOCK_DECLS} == set(LOCK_ORDER)


# ---------------------------------------------------------------------------
# wire contracts (WC3xx)
# ---------------------------------------------------------------------------


class TestContracts:
    def test_missing_error_class_flagged(self):
        src = "class ApiError(Exception):\n    code = 'internal'\n    status = 500\n"
        src += "_ERRORS_BY_CODE = {cls.code: cls for cls in (ApiError,)}\n"
        findings = contracts.check_errors_module(src)
        assert "WC301" in codes(findings)

    def test_status_drift_flagged(self):
        real = (REPO_ROOT / "src/repro/api/errors.py").read_text()
        drifted = real.replace("status = 429", "status = 500")
        findings = contracts.check_errors_module(drifted)
        assert any(f.key == "class-drift:OverloadedError" for f in findings)

    def test_real_errors_module_clean(self):
        real = (REPO_ROOT / "src/repro/api/errors.py").read_text()
        assert contracts.check_errors_module(real) == []

    def test_error_doc_missing_row_flagged(self):
        text = (
            "| Class | code | HTTP |\n"
            "| --- | --- | --- |\n"
            "| `ApiError` | `internal` | 500 |\n"
        )
        findings = contracts.check_error_doc(text)
        assert all(f.code == "WC302" for f in findings)
        assert any("SolveTimeoutError" in f.message for f in findings)

    def test_unknown_fire_site_flagged(self):
        src = "plan.fire('shard.bogus')\n"
        findings = contracts.check_fire_sites(src, "src/repro/x.py")
        assert codes(findings) == ["WC303"]

    def test_fault_doc_drift_flagged(self):
        text = (
            "| Point | Fires | Typical drill |\n"
            "| --- | --- | --- |\n"
            "| `shard.apply` | writer | stall |\n"
            "| `shard.retired_point` | nowhere | - |\n"
        )
        findings = contracts.check_fault_doc(text)
        assert any(f.key == "unknown-point:shard.retired_point" for f in findings)
        assert any(f.key == "undocumented-point:pool.pre_send" for f in findings)

    def test_stale_doc_token_flagged(self):
        findings = contracts.check_doc_tokens(
            "restart drills arm `shard.no_such_point` first\n", "SERVING.md"
        )
        assert codes(findings) == ["WC304"]

    def test_test_rule_with_unknown_point_flagged(self):
        src = "plan = FaultPlan([FaultRule('merge.bogus', 'crash')])\n"
        findings = contracts.check_test_rules(src, "tests/x.py")
        assert codes(findings) == ["WC305"]

    def test_synthetic_single_word_points_allowed(self):
        src = "rules = [FaultRule('p', 'reset'), FaultRule('s', 'sleep')]\n"
        assert contracts.check_test_rules(src, "tests/x.py") == []

    def test_stats_key_drift_flagged(self):
        real = (REPO_ROOT / "src" / "repro" / "serving" / "shards.py").read_text()
        drifted = real.replace('"queue_depth"', '"queue_len"')
        findings = contracts.check_stats_source(drifted)
        found_keys = {f.key for f in findings}
        assert "missing-key:queue_depth" in found_keys
        assert "undeclared-key:queue_len" in found_keys

    def test_algorithm_registry_drift_flagged(self):
        src = (
            "@register_algorithm\n"
            "class Novel:\n"
            "    name = 'sm-lsh-turbo'\n"
        )
        findings = contracts.check_algorithm_sources([("src/repro/algorithms/x.py", src)])
        assert any(f.key == "undeclared-algorithm:sm-lsh-turbo" for f in findings)
        assert any(f.code == "WC308" and "missing" in f.key for f in findings)

    def test_algorithm_doc_drift_flagged(self):
        findings = contracts.check_algorithm_doc("only `exact` and `sm-lsh` here\n")
        assert any(f.key == "undocumented-algorithm:dv-fdp" for f in findings)


# ---------------------------------------------------------------------------
# writer hygiene (WR4xx)
# ---------------------------------------------------------------------------


class TestWriters:
    def test_unannotated_mutators_flagged(self):
        # Session mutators are writer-confined and carry no lock tag;
        # only the self-guarded store monitors must name theirs.
        session_src = (
            "class IncrementalTagDM:\n"
            "    def add_action(self):\n        pass\n"
            "    def add_actions(self):\n        pass\n"
            "    def refresh_topic_model(self):\n        pass\n"
        )
        store_src = (
            "class SqliteTaggingStore:\n"
            + "".join(
                f"    def {name}(self):\n        pass\n"
                for name in writers.STORE_MUTATORS
            )
        )
        findings = writers.check_mutator_defs(session_src, store_src)
        assert codes(findings) == ["WR401"] * len(writers.STORE_MUTATORS)

    def test_annotated_but_unguarded_store_mutator_flagged(self):
        session_src = (
            "class IncrementalTagDM:\n"
            + "".join(
                f"    def {name}(self):\n        pass\n"
                for name in writers.SESSION_MUTATORS
            )
        )
        store_src = (
            "class SqliteTaggingStore:\n"
            "    @locked_by('store.lock')\n"
            "    def register_user(self):\n"
            "        self.x = 1\n"  # never takes self._lock
            + "".join(
                f"    @locked_by('store.lock')\n"
                f"    def {name}(self):\n"
                f"        with self._lock:\n            pass\n"
                for name in writers.STORE_MUTATORS
                if name != "register_user"
            )
        )
        findings = writers.check_mutator_defs(session_src, store_src)
        assert codes(findings) == ["WR403"]
        assert findings[0].key == "unguarded-body:register_user"

    def test_real_mutator_defs_clean(self):
        findings = writers.check_mutator_defs(
            (REPO_ROOT / "src/repro/core/incremental.py").read_text(),
            (REPO_ROOT / "src/repro/dataset/sqlite_store.py").read_text(),
        )
        assert findings == []

    def test_unsynchronized_call_site_flagged(self):
        src = (
            "class Handler:\n"
            "    def f(self):\n"
            "        self.session.add_actions([])\n"
        )
        findings = writers.check_call_sites("src/repro/serving/x.py", src)
        assert codes(findings) == ["WR402"]

    def test_writer_context_comment_accepted(self):
        src = (
            "class Handler:\n"
            "    def f(self):\n"
            "        # analyze: writer-context -- startup only\n"
            "        self.session.add_actions([])\n"
        )
        assert writers.check_call_sites("src/repro/serving/x.py", src) == []

    def test_lock_hold_does_not_satisfy_writer_context(self):
        # No lock guards the session, so holding (or naming) one is not
        # the single-writer argument the marker states.
        src = (
            "class Handler:\n"
            "    @locked_by('store.lock')\n"
            "    def f(self):\n"
            "        with self._submit_lock:\n"
            "            self.session.add_actions([])\n"
        )
        findings = writers.check_call_sites("src/repro/serving/x.py", src)
        assert codes(findings) == ["WR402"]

    def test_real_writer_loop_needs_its_marker(self):
        real = (REPO_ROOT / SHARDS).read_text()
        assert writers.check_call_sites(SHARDS, real) == []
        unmarked = real.replace(writers.WRITER_MARKER, "# writer loop")
        findings = writers.check_call_sites(SHARDS, unmarked)
        assert [f.key for f in findings] == ["unsynchronized:add_actions"]

    def test_dataset_add_action_not_confused_with_session(self):
        src = (
            "class Loader:\n"
            "    def f(self, dataset):\n"
            "        dataset.add_action('u', 'i', ['t'])\n"
        )
        assert writers.check_call_sites("src/repro/dataset/x.py", src) == []


# ---------------------------------------------------------------------------
# doc links (DL5xx)
# ---------------------------------------------------------------------------


class TestDocLinks:
    def test_broken_link_flagged(self, tmp_path):
        (tmp_path / "README.md").write_text("[gone](MISSING.md)\n")
        findings = doclinks.check_text(
            "README.md", "[gone](MISSING.md)\n", tmp_path
        )
        assert codes(findings) == ["DL501"]

    def test_escaping_link_flagged(self, tmp_path):
        findings = doclinks.check_text(
            "README.md", "[up](../outside.md)\n", tmp_path
        )
        assert codes(findings) == ["DL502"]

    def test_external_and_anchor_links_ignored(self, tmp_path):
        text = "[a](https://example.com) [b](#section) [c](mailto:x@y.z)\n"
        assert doclinks.check_text("README.md", text, tmp_path) == []


# ---------------------------------------------------------------------------
# shared-state races (RC5xx)
# ---------------------------------------------------------------------------


class TestRaces:
    def test_undeclared_attribute_flagged(self):
        src = (
            "@owned_by(x='init-only')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "        self.y = 2\n"
        )
        findings = races.check_file("m.py", src)
        assert codes(findings) == ["RC501"]
        assert findings[0].key == "undeclared:C.y"

    def test_unknown_domain_flagged(self):
        src = (
            "@owned_by(x='protected-by-vibes')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
        )
        findings = races.check_file("m.py", src)
        assert codes(findings) == ["RC501"]
        assert findings[0].key == "bad-domain:C.x"

    def test_post_init_write_to_init_only_flagged(self):
        src = (
            "@owned_by(x='init-only')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "    def f(self):\n"
            "        self.x = 2\n"
        )
        findings = races.check_file("m.py", src)
        assert codes(findings) == ["RC502"]
        assert findings[0].key == "post-init:C.x:f"

    def test_post_publish_del_flagged(self):
        src = (
            "@owned_by(x='frozen-after-publish')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "    def f(self):\n"
            "        del self.x\n"
        )
        findings = races.check_file("m.py", src)
        assert codes(findings) == ["RC502"]
        assert findings[0].key == "post-publish:C.x:f"

    def test_unlocked_write_flagged_locked_write_accepted(self):
        # Module, class and attribute match the fleet.registry LockDecl,
        # so the lexical `with` resolves to it.
        src = (
            "@owned_by(x='lock:fleet.registry')\n"
            "class TagDMFleet:\n"
            "    def __init__(self):\n"
            "        self.x = 0\n"
            "    def good(self):\n"
            "        with self._lock:\n"
            "            self.x += 1\n"
            "    def bad(self):\n"
            "        self.x += 1\n"
        )
        findings = races.check_file(FLEET, src)
        assert codes(findings) == ["RC502"]
        assert findings[0].key == "unlocked:TagDMFleet.x:bad"

    def test_locked_by_decorator_grants_lock_domain(self):
        src = (
            "@owned_by(x='lock:store.lock')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 0\n"
            "    @locked_by('store.lock')\n"
            "    def f(self):\n"
            "        self.x = 1\n"
        )
        assert races.check_file("m.py", src) == []

    def test_container_mutation_outside_lock_flagged(self):
        src = (
            "@owned_by(items='lock:fleet.registry')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "    def f(self):\n"
            "        self.items.append(1)\n"
            "    def g(self):\n"
            "        self.items[0] = 1\n"
        )
        findings = races.check_file("m.py", src)
        assert codes(findings) == ["RC503", "RC503"]
        assert {f.key for f in findings} == {"unlocked:C.items:f", "unlocked:C.items:g"}

    def test_nested_store_through_attribute_flagged(self):
        src = (
            "@owned_by(session='lock:fleet.registry')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.session = object()\n"
            "    def f(self):\n"
            "        self.session.groups = []\n"
        )
        findings = races.check_file("m.py", src)
        assert codes(findings) == ["RC503"]

    def test_confined_writer_table_declaration(self):
        decl = OwnershipDecl(
            module="m.py",
            cls="C",
            attrs={"x": "confined:worker"},
            confined_writers={"worker": ("loop",)},
        )
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 0\n"
            "    def loop(self):\n"
            "        self.x = 1\n"
            "    def other(self):\n"
            "        self.x = 2\n"
        )
        findings = races.check_file("m.py", src, decls=[decl])
        assert codes(findings) == ["RC502"]
        assert findings[0].key == "unconfined:C.x:other"

    def test_extra_init_methods_accepted(self):
        decl = OwnershipDecl(
            module="m.py",
            cls="C",
            attrs={"x": "init-only"},
            init_methods=("__init__", "prepare"),
        )
        src = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 0\n"
            "    def prepare(self):\n"
            "        self.x = 1\n"
        )
        assert races.check_file("m.py", src, decls=[decl]) == []

    def test_inline_owner_marker_declares_attribute(self):
        src = (
            "@owned_by(x='init-only')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "        self.y = {}  # analyze: owner=init-only\n"
        )
        assert races.check_file("m.py", src) == []

    def test_writer_context_marker_accepted(self):
        src = (
            "@owned_by(x='lock:fleet.registry')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 0\n"
            "    def f(self):\n"
            "        # analyze: writer-context -- single-writer loop\n"
            "        self.x = 1\n"
        )
        assert races.check_file("m.py", src) == []

    def test_view_mutation_flagged(self):
        src = (
            "def f(view):\n"
            "    view.groups.append(1)\n"
            "def g(published_view):\n"
            "    published_view.epoch = 2\n"
        )
        findings = races.check_file("m.py", src)
        assert codes(findings) == ["RC504", "RC504"]

    def test_self_rooted_view_attr_not_rc504(self):
        # instance state is the class-domain scan's job, not RC504's
        src = (
            "class C:\n"
            "    def f(self):\n"
            "        self.view.x = 1\n"
        )
        assert races.check_file("m.py", src) == []

    def test_stale_attribute_declaration_flagged(self):
        src = (
            "@owned_by(x='init-only', z='init-only')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
        )
        findings = races.check_file("m.py", src)
        assert codes(findings) == ["RC505"]
        assert findings[0].key == "stale-attr:C.z"

    def test_stale_class_declaration_flagged(self):
        decl = OwnershipDecl(module="m.py", cls="Gone", attrs={"x": "init-only"})
        findings = races.check_file("m.py", "class Other:\n    pass\n", decls=[decl])
        assert codes(findings) == ["RC505"]
        assert findings[0].key == "stale-class:Gone"

    def test_method_call_through_return_value_not_a_write(self):
        # self.shard(name).insert(...) mutates a *return value*, not
        # attribute state; `insert` collides with the list mutator.
        src = (
            "@owned_by(x='init-only')\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = 1\n"
            "    def f(self, name):\n"
            "        return self.shard(name).insert(1)\n"
        )
        assert races.check_file("m.py", src) == []

    def test_ownership_table_domains_all_valid(self):
        for decl in OWNERSHIP_DECLS:
            for attr, domain in decl.attrs.items():
                assert races._valid_domain(domain), (decl.cls, attr, domain)
            for label in decl.confined_writers:
                assert f"confined:{label}" in decl.attrs.values(), (decl.cls, label)


# ---------------------------------------------------------------------------
# determinism lint (DT6xx)
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_unseeded_default_rng_flagged(self):
        findings = determinism.check_file("m.py", "rng = default_rng()\n")
        assert codes(findings) == ["DT601"]
        assert findings[0].key == "unseeded:default_rng"

    def test_seeded_default_rng_accepted(self):
        assert determinism.check_file("m.py", "rng = default_rng(13)\n") == []
        assert determinism.check_file("m.py", "rng = default_rng(seed=13)\n") == []

    def test_unseeded_random_instance_flagged(self):
        findings = determinism.check_file("m.py", "r = random.Random()\n")
        assert codes(findings) == ["DT601"]
        assert determinism.check_file("m.py", "r = random.Random(3)\n") == []

    def test_global_random_draw_flagged(self):
        findings = determinism.check_file("m.py", "x = random.choice(items)\n")
        assert codes(findings) == ["DT601"]
        assert findings[0].key == "global-rng:random.choice"
        # a seeded instance's draw is fine
        assert determinism.check_file("m.py", "x = rng.choice(items)\n") == []

    def test_numpy_global_draw_flagged(self):
        findings = determinism.check_file("m.py", "np.random.shuffle(xs)\n")
        assert codes(findings) == ["DT601"]
        assert findings[0].key == "global-rng:np.random.shuffle"

    def test_set_iteration_flagged(self):
        findings = determinism.check_file(
            "m.py", "for tag in set(tags):\n    emit(tag)\n"
        )
        assert codes(findings) == ["DT602"]

    def test_sorted_set_iteration_accepted(self):
        src = "for tag in sorted(set(tags)):\n    emit(tag)\n"
        assert determinism.check_file("m.py", src) == []

    def test_set_fed_to_consumer_flagged(self):
        assert codes(determinism.check_file("m.py", "xs = list({1, 2})\n")) == ["DT602"]
        assert codes(
            determinism.check_file("m.py", "s = ','.join({str(x) for x in xs})\n")
        ) == ["DT602"]

    def test_dict_iteration_not_flagged(self):
        assert determinism.check_file("m.py", "for k in mapping:\n    pass\n") == []

    def test_wall_clock_on_deterministic_path_flagged(self):
        findings = determinism.check_file(
            "src/repro/core/m.py", "stamp = time.time()\n"
        )
        assert codes(findings) == ["DT603"]

    def test_wall_clock_outside_deterministic_paths_accepted(self):
        src = "stamp = time.time()\n"
        assert determinism.check_file("src/repro/serving/m.py", src) == []

    def test_monotonic_clock_accepted_everywhere(self):
        src = "begin = time.monotonic()\nend = time.perf_counter()\n"
        assert determinism.check_file("src/repro/core/m.py", src) == []

    def test_datetime_now_on_deterministic_path_flagged(self):
        findings = determinism.check_file(
            "src/repro/core/m.py", "when = datetime.now()\n"
        )
        assert codes(findings) == ["DT603"]

    def test_id_ordering_flagged(self):
        findings = determinism.check_file(
            "m.py", "ordered = sorted(groups, key=lambda g: id(g))\n"
        )
        assert codes(findings) == ["DT604"]
        assert determinism.check_file("m.py", "ordered = sorted(xs, key=len)\n") == []

    def test_marker_suppresses_same_line(self):
        src = "rng = default_rng()  # analyze: nondeterminism-ok(test-only jitter)\n"
        assert determinism.check_file("m.py", src) == []

    def test_marker_suppresses_preceding_line(self):
        src = (
            "# analyze: nondeterminism-ok(display order, never serialized)\n"
            "for tag in set(tags):\n"
            "    emit(tag)\n"
        )
        assert determinism.check_file("m.py", src) == []


# ---------------------------------------------------------------------------
# CLI, explanations, baseline, and the repo itself
# ---------------------------------------------------------------------------


def _all_emittable_codes():
    """Every code the checkers can emit, scraped from their sources."""
    import re

    found = set()
    for module in (locks, order, contracts, writers, doclinks, races, determinism):
        source = Path(module.__file__).read_text(encoding="utf-8")
        found.update(re.findall(r'"((?:LD|LH|WC|WR|DL|RC|DT)\d{3})"', source))
    return found


class TestSuite:
    def test_every_code_has_an_explanation(self):
        emittable = _all_emittable_codes()
        assert emittable  # the scrape itself must work
        missing = emittable - set(EXPLANATIONS)
        assert not missing, f"codes without --explain entries: {sorted(missing)}"

    def test_no_orphan_explanations(self):
        orphans = set(EXPLANATIONS) - _all_emittable_codes()
        assert not orphans, f"explained codes nothing can emit: {sorted(orphans)}"

    def test_explain_cli(self, capsys):
        assert main(["--explain", "LD102"]) == 0
        out = capsys.readouterr().out
        assert "fast" in out and "LD102" in out
        assert main(["--explain", "XX999"]) == 2

    def test_repo_is_clean_under_baseline(self, capsys):
        assert main(["--root", str(REPO_ROOT)]) == 0

    def test_baseline_entries_all_fire(self):
        """Every baseline entry matches a real finding (none are stale)."""
        from tools.analyze.core import Project

        project = Project(REPO_ROOT)
        findings = []
        for check in CHECKS.values():
            findings.extend(check(project))
        baseline = Baseline.load(REPO_ROOT / "tools/analyze/baseline.json")
        _, _, stale = baseline.split(findings)
        assert stale == []

    def test_baseline_justifications_present(self):
        payload = json.loads(
            (REPO_ROOT / "tools/analyze/baseline.json").read_text()
        )
        for entry in payload["findings"]:
            assert entry["justification"].strip(), entry

    def test_stale_baseline_entry_fails(self, tmp_path, capsys):
        bogus = {
            "findings": [
                {
                    "code": "DL501",
                    "path": "README.md",
                    "key": "broken:NO_SUCH.md",
                    "justification": "stale on purpose",
                },
                {
                    # different family: must NOT count as stale when only
                    # doclinks runs
                    "code": "LD102",
                    "path": "src/repro/serving/server.py",
                    "key": "server.registry:never_happens",
                    "justification": "wrong family",
                },
            ]
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(bogus))
        rc = main(
            ["--root", str(REPO_ROOT), "--check", "doclinks", "--baseline", str(path)]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "stale" in out
        assert "DL501" in out and "LD102" not in out

    def test_prune_baseline_rewrites_file(self, tmp_path, capsys):
        bogus = {
            "findings": [
                {
                    "code": "DL501",
                    "path": "README.md",
                    "key": "broken:NO_SUCH.md",
                    "justification": "stale on purpose",
                }
            ]
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(bogus))
        rc = main(
            [
                "--root", str(REPO_ROOT), "--check", "doclinks",
                "--baseline", str(path), "--prune-baseline",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pruned" in out
        assert json.loads(path.read_text()) == {"findings": []}
        # the rewritten file is a valid baseline for the next run
        assert main(
            ["--root", str(REPO_ROOT), "--check", "doclinks", "--baseline", str(path)]
        ) == 0

    def test_prune_baseline_does_not_mask_new_findings(self, tmp_path, capsys):
        root = tmp_path / "repo"
        root.mkdir()
        (root / "README.md").write_text("[gone](MISSING.md)\n")
        path = tmp_path / "baseline.json"
        path.write_text(
            json.dumps(
                {
                    "findings": [
                        {
                            "code": "DL501",
                            "path": "README.md",
                            "key": "broken:OTHER.md",
                            "justification": "stale on purpose",
                        }
                    ]
                }
            )
        )
        rc = main(
            [
                "--root", str(root), "--check", "doclinks",
                "--baseline", str(path), "--prune-baseline",
            ]
        )
        assert rc == 1  # the new DL501 still fails the run...
        assert json.loads(path.read_text()) == {"findings": []}  # ...but stale is gone

    def test_ci_run_parses_each_file_once(self):
        from tools.analyze.core import Project

        project = Project(REPO_ROOT)
        for check in CHECKS.values():
            check(project)
        first = project.parse_count
        assert first > 0
        for check in CHECKS.values():
            check(project)
        assert project.parse_count == first

    def test_check_selection(self, capsys):
        assert main(["--root", str(REPO_ROOT), "--check", "doclinks"]) == 0
        out = capsys.readouterr().out
        assert "doclinks" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.analyze", "--list"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "locks" in proc.stdout and "LD101" in proc.stdout
