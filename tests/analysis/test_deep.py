"""Interprocedural pass: call graph, summaries, RL009/RL011, repo self-check.

Fixture files are linted under pretend paths via ``deep_lint_sources`` so
the path-scoped rule (RL009's library scope) sees the module layout it
guards.  The shared violation corpus asserting *which layer* catches each
injected violation (or that it can no longer be written) lives in
``test_sanitizer.py``.
"""

from pathlib import Path

import pytest

from repro.analysis.deep import (
    DEEP_REGISTRY,
    DeepRule,
    Project,
    Summaries,
    deep_lint_paths,
    deep_lint_sources,
    default_deep_rules,
    register_deep,
)
from repro.cli import main
from repro.errors import ParameterError

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def fixture_source(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


def fixture_deep_findings(name, fake_path="src/repro/under_test.py"):
    return deep_lint_sources([(fake_path, fixture_source(name))])


class TestCallGraph:
    def test_local_definitions_shadow_the_global_pool(self):
        project = Project.from_sources(
            [
                ("a.py", "def helper():\n    pass\n\ndef f():\n    helper()\n"),
                ("b.py", "def helper():\n    pass\n"),
            ]
        )
        ctx_a = project.contexts[0]
        call = ctx_a.tree.body[1].body[0].value
        targets = project.resolve(call, ctx_a)
        assert [t.qualname for t in targets] == ["a.py::helper"]

    def test_attribute_calls_fan_out_to_every_same_named_method(self):
        project = Project.from_sources(
            [
                ("a.py", "class A:\n    def go(self):\n        pass\n"),
                ("b.py", "class B:\n    def go(self):\n        pass\n"),
                ("c.py", "def caller(x):\n    x.go()\n"),
            ]
        )
        ctx_c = project.contexts[2]
        call = ctx_c.tree.body[0].body[0].value
        names = sorted(t.qualname for t in project.resolve(call, ctx_c))
        assert names == ["a.py::A.go", "b.py::B.go"]

    def test_external_calls_resolve_to_nothing(self):
        project = Project.from_sources([("a.py", "def f():\n    print(1)\n")])
        ctx = project.contexts[0]
        call = ctx.tree.body[0].body[0].value
        assert project.resolve(call, ctx) == []

    def test_unparsable_files_are_skipped(self, tmp_path):
        (tmp_path / "ok.py").write_text("def f():\n    pass\n")
        (tmp_path / "broken.py").write_text("def f(:\n")
        project = Project.from_paths([tmp_path])
        assert [fi.name for fi in project.functions] == ["f"]


class TestSummaries:
    def test_blocking_closure_is_transitive_and_spin_is_exempt(self):
        project = Project.from_sources(
            [
                (
                    "src/repro/x.py",
                    "import time\n"
                    "def _spin(attempt):\n"
                    "    time.sleep(0.0001)\n"
                    "\n"
                    "def inner(q):\n"
                    "    return q.get()\n"
                    "\n"
                    "def outer(queue):\n"
                    "    return inner(queue)\n",
                )
            ]
        )
        summaries = Summaries(project)
        by_name = {fi.name: summaries.of[fi] for fi in project.functions}
        assert by_name["_spin"].blocks is None  # the sanctioned ladder
        assert by_name["inner"].blocks is not None
        assert "inner" in by_name["outer"].blocks

    def test_retry_loops_are_the_loops_that_spin(self):
        project = Project.from_sources(
            [
                (
                    "src/repro/x.py",
                    "def read(ver, budget):\n"
                    "    for attempt in range(budget):\n"
                    "        if ver[0] & 1:\n"
                    "            _spin(attempt)\n"
                    "    while True:\n"
                    "        break\n",
                )
            ]
        )
        summaries = Summaries(project)
        (s,) = summaries.of.values()
        assert [type(loop).__name__ for loop in s.retry_loops] == ["For"]


class TestDeepRegistry:
    def test_registry_has_the_two_deep_rules(self):
        rules = default_deep_rules()
        assert [r.code for r in rules] == ["RL009", "RL011"]
        assert all(r.name and r.description for r in rules)
        assert set(DEEP_REGISTRY) == {r.code for r in rules}

    def test_register_rejects_bad_and_duplicate_codes(self):
        with pytest.raises(ParameterError):

            @register_deep
            class NoCode(DeepRule):
                code = "deep-1"

        with pytest.raises(ParameterError):

            @register_deep
            class Duplicate(DeepRule):
                code = "RL009"


class TestRngTaint:
    def test_bad_fixture_flags_literal_and_ignored_seed(self):
        findings = fixture_deep_findings("rl009_bad.py")
        assert [f.rule for f in findings] == ["RL009"] * 3
        messages = " | ".join(f.message for f in findings)
        assert "ensure_rng(12345)" in messages
        assert "ensure_rng(None) ignores the seed parameter" in messages
        assert "derive_seed(7)" in messages

    def test_good_fixture_is_clean(self):
        assert fixture_deep_findings("rl009_good.py") == []

    def test_rule_is_scoped_to_library_code(self):
        # The same literals are fine outside src/repro (tests, scripts).
        findings = fixture_deep_findings(
            "rl009_bad.py", fake_path="tests/helpers/seeding.py"
        )
        assert findings == []


class TestBlockingInRetryLoop:
    def test_bad_fixture_flags_direct_and_transitive_blocking(self):
        findings = fixture_deep_findings("rl011_bad.py")
        assert [f.rule for f in findings] == ["RL011"] * 2
        messages = " | ".join(f.message for f in findings)
        assert "time.sleep" in messages
        assert "fetch()" in messages and "queue get" in messages

    def test_good_fixture_is_clean(self):
        assert fixture_deep_findings("rl011_good.py") == []


class TestSuppressions:
    def test_deep_findings_honor_inline_suppressions(self):
        source = fixture_source("rl009_bad.py").replace(
            "rng = ensure_rng(12345)",
            "rng = ensure_rng(12345)  # reprolint: disable=RL009",
        )
        findings = deep_lint_sources([("src/repro/under_test.py", source)])
        assert [f.line for f in findings if f.rule == "RL009"] == [8, 9]

    def test_keep_suppressed_marks_instead_of_dropping(self):
        source = fixture_source("rl009_bad.py").replace(
            "rng = ensure_rng(12345)",
            "rng = ensure_rng(12345)  # reprolint: disable=RL009",
        )
        findings = deep_lint_sources(
            [("src/repro/under_test.py", source)], keep_suppressed=True
        )
        assert [f.suppressed for f in findings] == [True, False, False]


class TestCliDeep:
    def test_deep_flag_runs_both_layers(self, capsys, tmp_path):
        target = tmp_path / "src" / "repro" / "helper.py"
        target.parent.mkdir(parents=True)
        target.write_text(fixture_source("rl009_bad.py"), encoding="utf-8")
        assert main(["lint", "--deep", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RL009" in out

    def test_list_rules_includes_the_deep_section(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL009", "RL011"):
            assert code in out
        for retired in ("RL001", "RL008", "RL010"):
            assert retired not in out
        assert "[deep]" in out


class TestRepoIsDeepClean:
    def test_repo_deep_lints_clean(self):
        """The zero-baseline gate: no interprocedural findings in the repo."""
        paths = [REPO_ROOT / p for p in ("src", "benchmarks", "scripts")]
        findings = deep_lint_paths(paths)
        assert findings == [], "\n".join(f.format() for f in findings)
