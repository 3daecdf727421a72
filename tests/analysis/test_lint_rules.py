"""Mutation-style coverage of every ``repro lint`` rule.

Each rule gets (at least) one *bad* fixture tree that must produce the
finding and one *good* twin — the same code with the violation repaired —
that must lint clean.  Fixture trees are synthetic layouts under
``tmp_path`` (``core/x.py`` etc.); :func:`package_path` anchors them at
the scan root, so the plane logic matches the real tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import all_rules, run_lint
from repro.analysis.lint.rules import rule_names


def lint_tree(tmp_path: Path, files: dict, only=None):
    """Write ``files`` (relpath -> source) under ``tmp_path`` and lint it."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return run_lint([tmp_path], rules=all_rules(only))


def rules_of(result):
    return [f.rule for f in result.findings]


class TestRngGlobalState:
    RULE = "rng-global-state"

    def test_stdlib_random_draw_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/draws.py": "import random\nx = random.random()\n",
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]

    def test_from_import_draw_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "ldp/draws.py": "from random import shuffle\nshuffle([1, 2])\n",
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]

    def test_np_random_global_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "stream/draws.py": "import numpy as np\nv = np.random.rand(3)\n",
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/draws.py": (
                "import numpy as np\nrng = np.random.default_rng()\n"
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]

    def test_seeded_generator_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/draws.py": (
                "import numpy as np\n"
                "rng = np.random.default_rng(7)\n"
                "gen = np.random.Generator(np.random.PCG64(7))\n"
                "v = rng.normal()\n"
            ),
        }, only=[self.RULE])
        assert result.ok

    def test_other_planes_exempt(self, tmp_path):
        result = lint_tree(tmp_path, {
            "bench/draws.py": "import random\nx = random.random()\n",
        }, only=[self.RULE])
        assert result.ok


class TestWallClock:
    RULE = "wall-clock"

    def test_perf_counter_flagged_as_warning(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/timer.py": "import time\ntic = time.perf_counter()\n",
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]
        assert result.findings[0].severity == "warning"

    def test_datetime_now_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "stream/stamp.py": (
                "from datetime import datetime\nwhen = datetime.now()\n"
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]

    def test_sleep_and_other_planes_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/waiter.py": "import time\ntime.sleep(0.1)\n",
            "obs/timer.py": "import time\ntic = time.perf_counter()\n",
        }, only=[self.RULE])
        assert result.ok


class TestSetIteration:
    RULE = "set-iteration"

    def test_for_over_set_literal_name_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/iters.py": (
                "items = {1, 2, 3}\nfor x in items:\n    print(x)\n"
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]

    def test_comprehension_over_set_call_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "ldp/iters.py": (
                "def f(values):\n    return [v for v in set(values)]\n"
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]

    def test_list_of_set_union_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/iters.py": "out = list({1} | {2})\n",
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]

    def test_sorted_wrapper_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/iters.py": (
                "items = {1, 2, 3}\n"
                "for x in sorted(items):\n    print(x)\n"
                "out = [v for v in sorted(set([3, 1]))]\n"
            ),
        }, only=[self.RULE])
        assert result.ok


class TestLockScope:
    RULE = "lock-scope"

    def test_bare_acquire_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/locks.py": (
                "def f(lock):\n"
                "    lock.acquire()\n"
                "    lock.release()\n"
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]

    def test_blocking_recv_under_lock_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "stream/coord.py": (
                "def f(self, sock):\n"
                "    with self._state_lock:\n"
                "        data = sock.recv(4)\n"
                "    return data\n"
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]
        assert "recv" in result.findings[0].message

    def test_with_lock_and_recv_outside_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "stream/coord.py": (
                "def f(self, sock):\n"
                "    data = sock.recv(4)\n"
                "    with self._state_lock:\n"
                "        self.buf = data\n"
            ),
        }, only=[self.RULE])
        assert result.ok


class TestSchemaVerbs:
    RULE = "schema-orphan-verb"

    def _schema(self, verbs):
        quoted = ", ".join(f'"{v}"' for v in verbs)
        return f"MESSAGE_TYPES = ({quoted},)\n"

    def test_orphan_verb_flagged_both_ways(self, tmp_path):
        result = lint_tree(tmp_path, {
            "api/schema.py": self._schema(["hello", "orphan"]),
            "api/client.py": (
                'def send(sock):\n'
                '    sock.send(message("hello"))\n'
                'def read(payload):\n'
                '    return iter_frames(payload, "hello")\n'
            ),
        }, only=[self.RULE])
        messages = [f.message for f in result.findings]
        assert len(messages) == 2
        assert any("nothing encodes" in m for m in messages)
        assert any("nothing decodes" in m for m in messages)

    def test_undeclared_verb_use_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "api/schema.py": self._schema(["hello"]),
            "api/client.py": (
                'def send(sock):\n'
                '    sock.send(message("hello"))\n'
                '    sock.send(message("rogue"))\n'
                'def read(msg, payload):\n'
                '    if msg["type"] == "hello":\n'
                '        return iter_frames(payload, "hello")\n'
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]
        assert "'rogue'" in result.findings[0].message

    def test_consistent_registry_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "api/schema.py": self._schema(["hello", "bye"]),
            "api/client.py": (
                'def send(sock):\n'
                '    sock.send(message("hello"))\n'
                '    sock.send(message("bye"))\n'
                'def read(conn, payload):\n'
                '    a = recv_message(conn, expect="hello")\n'
                '    return iter_frames(payload, "bye")\n'
            ),
        }, only=[self.RULE])
        assert result.ok

    def test_dtype_comparison_not_a_decode_site(self, tmp_path):
        result = lint_tree(tmp_path, {
            "api/schema.py": self._schema(["hello"]) + (
                'def check(arr):\n'
                '    return arr.dtype.byteorder == ">"\n'
                'def send(sock):\n'
                '    sock.send(message("hello"))\n'
                'def read(payload):\n'
                '    return iter_frames(payload, "hello")\n'
            ),
        }, only=[self.RULE])
        assert result.ok


class TestSpecDrift:
    RULE = "spec-flag-drift"

    HEADER = (
        "from dataclasses import dataclass, field\n"
        "def _cli(flag, help, **kw):\n"
        "    return {'cli': {'flag': flag, 'help': help, **kw}}\n"
    )

    def test_unjustified_field_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "api/specs.py": self.HEADER + (
                "NON_CLI_FIELDS = {}\n"
                "@dataclass\n"
                "class FooSpec:\n"
                "    eps: float = field(\n"
                "        default=1.0, metadata=_cli('--eps', 'budget'))\n"
                "    hidden: int = 3\n"
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]
        assert "FooSpec.hidden" in result.findings[0].message

    def test_justified_field_clean(self, tmp_path):
        result = lint_tree(tmp_path, {
            "api/specs.py": self.HEADER + (
                "NON_CLI_FIELDS = {'hidden': 'pinned by the paper'}\n"
                "@dataclass\n"
                "class FooSpec:\n"
                "    eps: float = field(\n"
                "        default=1.0, metadata=_cli('--eps', 'budget'))\n"
                "    hidden: int = 3\n"
            ),
        }, only=[self.RULE])
        assert result.ok

    def test_duplicate_flag_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "api/specs.py": self.HEADER + (
                "NON_CLI_FIELDS = {}\n"
                "@dataclass\n"
                "class FooSpec:\n"
                "    a: int = field(default=1, metadata=_cli('--x', 'a'))\n"
                "    b: int = field(default=2, metadata=_cli('--x', 'b'))\n"
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]
        assert "collides" in result.findings[0].message

    def test_spec_typed_field_is_a_knob_too(self, tmp_path):
        """A field annotated with another spec class gets no pass: the
        config is one flat class, so every field is a knob."""
        result = lint_tree(tmp_path, {
            "api/specs.py": self.HEADER + (
                "NON_CLI_FIELDS = {}\n"
                "@dataclass\n"
                "class FooSpec:\n"
                "    inner: 'BarSpec' = None\n"
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]
        assert "FooSpec.inner" in result.findings[0].message

    def test_stale_non_cli_entry_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "api/specs.py": self.HEADER + (
                "NON_CLI_FIELDS = {'ghost': 'field was deleted'}\n"
                "@dataclass\n"
                "class FooSpec:\n"
                "    a: int = field(default=1, metadata=_cli('--x', 'a'))\n"
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]
        assert "stale" in result.findings[0].message


class TestMetricNames:
    RULE = "metric-name"

    def test_bad_family_name_flagged(self, tmp_path):
        result = lint_tree(tmp_path, {
            "core/m.py": 'REGISTRY.counter("BadName", "help text")\n',
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]
        assert "naming contract" in result.findings[0].message

    def test_undocumented_metric_flagged(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "API.md").write_text(
            "| `retrasyn_reports_total` | counter |\n"
        )
        result = lint_tree(tmp_path, {
            "core/m.py": (
                'REGISTRY.counter("retrasyn_reports_total", "ok")\n'
                'REGISTRY.gauge("retrasyn_mystery_depth", "undocumented")\n'
            ),
        }, only=[self.RULE])
        assert rules_of(result) == [self.RULE]
        assert "retrasyn_mystery_depth" in result.findings[0].message

    def test_documented_metrics_clean(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\n")
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "API.md").write_text(
            "| `retrasyn_reports_total` | counter |\n"
        )
        result = lint_tree(tmp_path, {
            "core/m.py": 'REGISTRY.counter("retrasyn_reports_total", "ok")\n',
        }, only=[self.RULE])
        assert result.ok


class TestRuleCatalog:
    def test_at_least_seven_rules_registered(self):
        assert len(rule_names()) >= 7

    def test_every_rule_has_name_severity_description(self):
        for rule in all_rules():
            assert rule.name
            assert rule.severity in ("error", "warning")
            assert rule.description

    def test_unknown_rule_name_rejected(self):
        with pytest.raises(ValueError, match="no-such-rule"):
            all_rules(["no-such-rule"])
