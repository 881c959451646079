"""reprolint: engine mechanics, the per-file rules over fixtures, repo self-check.

The fixture files in ``tests/analysis/fixtures/`` are deliberately
non-compliant (that is the test); they are excluded from ruff in
pyproject.toml and are never imported — only parsed.  Module-scoped rules
(RL002/RL003/RL004) are exercised by linting fixture *source* under a
fake in-scope path via ``lint_file(path, source=...)``.
"""

from pathlib import Path

import pytest

from repro.analysis.lint import (
    REGISTRY,
    Finding,
    Rule,
    default_rules,
    iter_python_files,
    lint_file,
    lint_paths,
    parse_suppressions,
    register,
)
from repro.analysis.lint.engine import PARSE_ERROR_CODE
from repro.analysis.lint.rules import (
    AsyncBlockingCallRule,
    ExceptionHygieneRule,
    FaultHookConfinementRule,
    RngDisciplineRule,
    ShmLifecycleRule,
    TimingDisciplineRule,
    TuningConstantsRule,
    WorkerTaskSafetyRule,
)
from repro.cli import main
from repro.errors import ParameterError

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def fixture_findings(name, rule, fake_path=None):
    """Lint one fixture with one rule, optionally under a pretend path."""
    path = FIXTURES / name
    if fake_path is None:
        return lint_file(path, [rule])
    return lint_file(fake_path, [rule], source=path.read_text(encoding="utf-8"))


class TestEngine:
    def test_parse_suppressions_codes_and_blanket(self):
        source = (
            "x = 1  # reprolint: disable=RL001,RL006 -- justified\n"
            "y = 2  # reprolint: disable\n"
            's = "# reprolint: disable=RL002"\n'
        )
        sup = parse_suppressions(source)
        assert sup[1] == frozenset({"RL001", "RL006"})
        assert sup[2] is None  # blanket disable
        assert 3 not in sup  # inside a string literal: not a comment

    def test_suppression_silences_only_its_code(self):
        findings = lint_file(FIXTURES / "suppressed.py")
        # RL002 and RL006 sites with matching disables are silent; the
        # RL002 site carrying a disable=RL001 comment still fires.
        assert [f.rule for f in findings] == ["RL002"]
        lines = (FIXTURES / "suppressed.py").read_text(encoding="utf-8").splitlines()
        assert "disable=RL001" in lines[findings[0].line - 1]  # wrong code kept it alive

    def test_suppression_applies_to_the_whole_logical_line(self):
        # A disable trailing ANY physical line of a wrapped statement —
        # including the closing paren, where formatters push comments —
        # silences the finding reported at the statement's first line.
        source = (
            "result = frobnicate(\n"
            "    alpha,\n"
            "    beta,\n"
            ")  # reprolint: disable=RL004\n"
        )
        sup = parse_suppressions(source)
        assert all(sup.get(line) == frozenset({"RL004"}) for line in (1, 2, 3, 4))

    def test_own_line_comment_scopes_to_its_line_only(self):
        source = "# reprolint: disable=RL001\nx = 1\ny = 2\n"
        sup = parse_suppressions(source)
        assert sup == {1: frozenset({"RL001"})}

    def test_comments_within_one_span_merge(self):
        source = (
            "value = build(  # reprolint: disable=RL002\n"
            "    arg,\n"
            ")  # reprolint: disable=RL006\n"
        )
        sup = parse_suppressions(source)
        assert sup[1] == frozenset({"RL002", "RL006"})
        assert sup[3] == frozenset({"RL002", "RL006"})

    def test_closing_paren_suppression_silences_a_wrapped_finding(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            "    7,\n"
            ")  # reprolint: disable=RL002\n"
        )
        findings = lint_file("src/repro/x.py", [RngDisciplineRule()], source=source)
        assert findings == []
        kept = lint_file(
            "src/repro/x.py",
            [RngDisciplineRule()],
            source=source,
            keep_suppressed=True,
        )
        assert [(f.rule, f.suppressed) for f in kept] == [("RL002", True)]

    def test_syntax_error_becomes_rl000(self):
        findings = lint_file(FIXTURES / "rl000_syntax_error.py")
        assert len(findings) == 1
        assert findings[0].rule == PARSE_ERROR_CODE
        assert "does not parse" in findings[0].message

    def test_registry_has_the_ast_local_rules(self):
        rules = default_rules()
        assert [r.code for r in rules] == [f"RL00{i}" for i in range(2, 8)] + ["RL012", "RL013"]
        assert all(r.name and r.description for r in rules)
        assert set(REGISTRY) == {r.code for r in rules}

    def test_register_rejects_bad_and_duplicate_codes(self):
        with pytest.raises(ParameterError):

            @register
            class NoCode(Rule):
                code = "X1"

        with pytest.raises(ParameterError):

            @register
            class Duplicate(Rule):
                code = "RL002"

    def test_iter_python_files_skips_caches_and_rejects_missing(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-312.py").write_text("x = 1\n")
        (tmp_path / "pkg" / ".hidden").mkdir()
        (tmp_path / "pkg" / ".hidden" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        files = list(iter_python_files([tmp_path / "pkg"]))
        assert files == [tmp_path / "pkg" / "a.py"]
        with pytest.raises(ParameterError):
            list(iter_python_files([tmp_path / "nope"]))

    def test_findings_sort_by_location(self):
        a = Finding("a.py", 3, 0, "RL002", "m")
        b = Finding("a.py", 1, 4, "RL006", "m")
        assert sorted([a, b]) == [b, a]
        assert b.format() == "a.py:1:4: RL006 m"


class TestRngDisciplineRule:
    def test_bad_fixture_flags_every_spelling(self):
        findings = fixture_findings("rl002_bad.py", RngDisciplineRule())
        assert len(findings) == 5
        hits = " | ".join(f.message for f in findings)
        for spelling in ("random.Random", "np.random.default_rng", "npr.normal", "shuffle", "default_rng"):
            assert spelling in hits

    def test_good_fixture_is_clean(self):
        assert fixture_findings("rl002_good.py", RngDisciplineRule()) == []

    def test_rng_module_itself_is_exempt(self):
        findings = fixture_findings("rl002_bad.py", RngDisciplineRule(), "src/repro/rng.py")
        assert findings == []


class TestShmLifecycleRule:
    def test_bad_fixture_flags_ctor_and_pin(self):
        findings = fixture_findings("rl003_bad.py", ShmLifecycleRule())
        hits = [f.message for f in findings]
        assert sum("SharedMemory" in m for m in hits) == 2
        assert sum("_pin" in m for m in hits) == 1
        assert sum("_wrap_views" in m for m in hits) == 1

    def test_good_fixture_is_clean(self):
        assert fixture_findings("rl003_good.py", ShmLifecycleRule()) == []

    def test_shm_module_itself_is_exempt(self):
        findings = fixture_findings(
            "rl003_bad.py", ShmLifecycleRule(), "src/repro/parallel/shm.py"
        )
        assert findings == []


class TestTuningConstantsRule:
    def test_bad_fixture_at_dispatch_path(self):
        findings = fixture_findings(
            "rl004_bad.py", TuningConstantsRule(), "src/repro/graph/traversal.py"
        )
        hits = " | ".join(f.message for f in findings)
        assert "AUTO_MIN_NODES" in hits
        assert "48" in hits and "8" in hits  # both literal gates
        assert len(findings) == 3

    def test_good_fixture_at_dispatch_path(self):
        findings = fixture_findings(
            "rl004_good.py", TuningConstantsRule(), "src/repro/graph/traversal.py"
        )
        assert findings == []

    def test_rule_is_scoped_to_dispatch_modules(self):
        # The same bad source is fine in a non-dispatch module.
        assert fixture_findings("rl004_bad.py", TuningConstantsRule()) == []


class TestWorkerTaskSafetyRule:
    def test_bad_fixture_flags_lambda_nested_and_calls(self):
        findings = fixture_findings("rl005_bad.py", WorkerTaskSafetyRule())
        hits = " | ".join(f.message for f in findings)
        assert "lambda used as a TASKS entry" in hits
        assert "nested function 'inner'" in hits
        assert "not a plain module-level function reference" in hits
        assert "lambda used as a Process target" in hits
        assert len(findings) == 4

    def test_good_fixture_is_clean(self):
        assert fixture_findings("rl005_good.py", WorkerTaskSafetyRule()) == []


class TestExceptionHygieneRule:
    def test_bad_fixture_flags_every_broad_handler(self):
        findings = fixture_findings("rl006_bad.py", ExceptionHygieneRule())
        labels = [f.message.split(" swallows")[0] for f in findings]
        assert labels == [
            "bare except",
            "except Exception",
            "except (ValueError, BaseException)",
        ]

    def test_good_fixture_is_clean(self):
        assert fixture_findings("rl006_good.py", ExceptionHygieneRule()) == []


class TestTimingDisciplineRule:
    def test_bad_fixture_flags_every_bare_clock(self):
        findings = fixture_findings("rl007_bad.py", TimingDisciplineRule())
        assert [f.rule for f in findings] == ["RL007"] * 4
        assert all("perf_counter" in f.message for f in findings)

    def test_good_fixture_is_clean(self):
        assert fixture_findings("rl007_good.py", TimingDisciplineRule()) == []

    def test_obs_package_is_exempt(self):
        # The same bare clocks are legal inside repro/obs/ — that is where
        # the one sanctioned perf_counter call site lives.
        findings = fixture_findings(
            "rl007_bad.py", TimingDisciplineRule(), "src/repro/obs/timing.py"
        )
        assert findings == []

    def test_rl012_flags_install_and_state_pokes(self):
        findings = fixture_findings("rl012_bad.py", FaultHookConfinementRule())
        assert len(findings) == 4  # the import, both install calls, .active
        assert all(f.rule == "RL012" for f in findings)
        assert any("install" in f.message for f in findings)
        assert any("faults.active" in f.message for f in findings)

    def test_rl012_env_protocol_is_clean(self):
        assert fixture_findings("rl012_good.py", FaultHookConfinementRule()) == []

    def test_rl012_faults_package_is_exempt(self):
        findings = fixture_findings(
            "rl012_bad.py", FaultHookConfinementRule(), "src/repro/faults/__init__.py"
        )
        assert findings == []


class TestAsyncBlockingCallRule:
    # RL013's gate is the inverse of RL007/RL012: it fires ONLY under
    # repro/distributed/ (the one package that runs an event loop), so
    # the bad fixture is linted under a pretend in-package path.
    IN_PACKAGE = "src/repro/distributed/actors_fixture.py"

    def test_bad_fixture_flags_every_blocking_idiom(self):
        findings = fixture_findings("rl013_bad.py", AsyncBlockingCallRule(), self.IN_PACKAGE)
        assert [f.rule for f in findings] == ["RL013"] * 4
        hits = " | ".join(f.message for f in findings)
        assert hits.count("time.sleep()") == 2  # module alias + from-import
        assert "sync queue .get()" in hits
        assert "blocking socket .recv()" in hits
        assert "tick_loop" in hits and "drain" in hits  # names the coroutine

    def test_good_fixture_is_clean_in_package(self):
        assert fixture_findings("rl013_good.py", AsyncBlockingCallRule(), self.IN_PACKAGE) == []

    def test_outside_the_package_is_exempt(self):
        # The same blocking source is out of scope anywhere else — the
        # rest of the codebase is synchronous by design.
        assert fixture_findings("rl013_bad.py", AsyncBlockingCallRule()) == []
        assert (
            fixture_findings("rl013_bad.py", AsyncBlockingCallRule(), "src/repro/cli.py") == []
        )

    def test_awaits_and_nowait_variants_pass(self):
        source = (
            "import asyncio\n"
            "async def ok(q):\n"
            "    await asyncio.sleep(0)\n"
            "    return await q.get(), q.get_nowait()\n"
        )
        assert lint_file(self.IN_PACKAGE, [AsyncBlockingCallRule()], source=source) == []


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL002", "RL003", "RL004", "RL005", "RL006", "RL007", "RL012", "RL013"):
            assert code in out
        assert "RL001" not in out

    def test_findings_exit_nonzero_and_print_locations(self, capsys):
        assert main(["lint", str(FIXTURES / "rl006_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "RL006" in out and "rl006_bad.py:" in out
        assert "finding(s)" in out

    def test_clean_file_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "rl006_good.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "definitely/not/a/path"]) == 2
        assert "does not exist" in capsys.readouterr().out

    def test_json_format_schema_and_exit(self, capsys):
        import json

        assert main(["lint", "--format", "json", str(FIXTURES / "rl006_bad.py")]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["schema"] == "reprolint/1"
        assert data["deep"] is False
        first = data["findings"][0]
        assert set(first) == {"rule", "path", "line", "col", "message", "suppressed"}
        assert data["summary"]["findings"] == len(data["findings"])
        assert data["summary"]["suppressed"] == 0

    def test_json_carries_suppressed_findings_flagged(self, capsys):
        import json

        assert main(["lint", "--format", "json", str(FIXTURES / "suppressed.py")]) == 1
        data = json.loads(capsys.readouterr().out)
        live = [f for f in data["findings"] if not f["suppressed"]]
        silenced = [f for f in data["findings"] if f["suppressed"]]
        assert [f["rule"] for f in live] == ["RL002"]
        assert len(silenced) == data["summary"]["suppressed"] > 0

    def test_json_clean_exits_zero(self, capsys):
        import json

        assert main(["lint", "--format", "json", str(FIXTURES / "rl006_good.py")]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["findings"] == []
        assert data["summary"] == {"findings": 0, "suppressed": 0}


class TestRepoIsClean:
    def test_repo_lints_clean(self):
        """The gate this PR ships: zero findings, zero baseline."""
        paths = [REPO_ROOT / d for d in ("src", "benchmarks", "scripts")]
        findings = lint_paths([p for p in paths if p.is_dir()])
        assert findings == [], "\n".join(f.format() for f in findings)
