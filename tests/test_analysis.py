"""The static-analysis framework: rules, suppressions, baseline, CLI gate.

Each rule is exercised on small source fixtures at paths inside and
outside its scope; the final meta-test pins the shipped baseline to a
fresh scan of ``src/repro`` so the tree can never drift dirty silently.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    AnalysisReport,
    Violation,
    analyze_paths,
    analyze_source,
    collect_suppressions,
    load_baseline,
    rule_by_id,
    run_analyze,
    write_baseline,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def scan(source: str, path: str) -> list[Violation]:
    return analyze_source(textwrap.dedent(source), path)


def rule_ids(violations: list[Violation]) -> list[str]:
    return [v.rule for v in violations]


# ---------------------------------------------------------------------------
# R001: registry-bypass dispatch.
# ---------------------------------------------------------------------------


class TestRegistryBypass:
    def test_isinstance_on_scheme_class_flagged(self) -> None:
        found = scan(
            """\
            def f(g):
                return isinstance(g, EH3)
            """,
            "src/repro/sketch/thing.py",
        )
        assert rule_ids(found) == ["R001"]
        assert "EH3" in found[0].message
        assert found[0].line == 2

    def test_tuple_and_dotted_classes_flagged(self) -> None:
        found = scan(
            """\
            def f(c):
                return isinstance(c, (GeneratorChannel, atomic.DMAPChannel))
            """,
            "src/repro/experiments/thing.py",
        )
        assert rule_ids(found) == ["R001", "R001"]

    def test_issubclass_flagged(self) -> None:
        found = scan(
            "ok = issubclass(cls, Generator)\n",
            "src/repro/apps/thing.py",
        )
        assert rule_ids(found) == ["R001"]

    def test_structural_checks_not_flagged(self) -> None:
        found = scan(
            """\
            def f(x):
                if isinstance(x, (int, float, str)):
                    return isinstance(x, np.integer)
                return isinstance(x, numpy.random.Generator)
            """,
            "src/repro/sketch/thing.py",
        )
        assert found == []

    def test_schemes_and_analysis_out_of_scope(self) -> None:
        source = "ok = isinstance(g, EH3)\n"
        assert scan(source, "src/repro/schemes/builtin.py") == []
        assert scan(source, "src/repro/analysis/rules.py") == []

    def test_suppression_with_reason_covers(self) -> None:
        found = scan(
            """\
            def f(x):
                # repro: allow[R001] protocol fallback for ad-hoc factors
                return isinstance(x, RangeSummable)
            """,
            "src/repro/rangesum/thing.py",
        )
        assert found == []


# ---------------------------------------------------------------------------
# R002: integer-width hazards in kernel modules.
# ---------------------------------------------------------------------------


class TestIntegerWidthHazard:
    def test_unpinned_constructors_flagged(self) -> None:
        found = scan(
            """\
            import numpy as np
            a = np.arange(10)
            b = np.zeros(4)
            c = np.full((2, 2), 7)
            """,
            "src/repro/rangesum/thing.py",
        )
        assert rule_ids(found) == ["R002", "R002", "R002"]

    def test_pinned_constructors_clean(self) -> None:
        found = scan(
            """\
            import numpy as np
            a = np.arange(10, dtype=np.uint64)
            b = np.zeros(4, np.int64)
            c = np.arange(0, 10, 1, np.int64)
            """,
            "src/repro/core/thing.py",
        )
        assert found == []

    def test_unpinned_accumulator_flagged(self) -> None:
        found = scan(
            """\
            import numpy as np
            total = np.cumsum(values) & 1
            ok = np.sum(values, dtype=np.int64)
            """,
            "src/repro/sketch/plane.py",
        )
        assert rule_ids(found) == ["R002"]
        assert "cumsum" in found[0].message

    def test_non_kernel_modules_out_of_scope(self) -> None:
        source = "import numpy as np\na = np.arange(10)\n"
        assert scan(source, "src/repro/experiments/fig4.py") == []
        assert scan(source, "src/repro/sketch/ams.py") == []

    def test_non_numpy_calls_ignored(self) -> None:
        found = scan(
            "a = arange(10)\nb = mymod.zeros(3)\n",
            "src/repro/core/thing.py",
        )
        assert found == []


# ---------------------------------------------------------------------------
# R003: determinism guards.
# ---------------------------------------------------------------------------


class TestDeterminismGuard:
    def test_unseeded_default_rng_flagged(self) -> None:
        found = scan(
            "import numpy as np\nrng = np.random.default_rng()\n",
            "src/repro/workloads/thing.py",
        )
        assert rule_ids(found) == ["R003"]

    def test_seeded_default_rng_clean(self) -> None:
        found = scan(
            """\
            import numpy as np
            a = np.random.default_rng(0)
            b = np.random.default_rng(seed)
            """,
            "src/repro/workloads/thing.py",
        )
        assert found == []

    def test_legacy_global_numpy_rng_flagged(self) -> None:
        found = scan(
            "import numpy as np\nx = np.random.randint(0, 10)\n",
            "src/repro/experiments/thing.py",
        )
        assert rule_ids(found) == ["R003"]

    def test_wall_clock_flagged_monotonic_deferred_to_r005(self) -> None:
        found = scan(
            """\
            import time
            stamp = time.time()
            tick = time.perf_counter()
            """,
            "src/repro/stream/thing.py",
        )
        assert sorted(rule_ids(found)) == ["R003", "R005"]
        r003 = next(v for v in found if v.rule == "R003")
        assert "wall-clock" in r003.message

    def test_stdlib_random_module_and_names_flagged(self) -> None:
        found = scan(
            """\
            import random
            from random import randint as ri
            a = random.random()
            b = ri(0, 5)
            """,
            "src/repro/apps/thing.py",
        )
        assert rule_ids(found) == ["R003", "R003"]

    def test_unrelated_random_attribute_clean(self) -> None:
        found = scan(
            "value = source.random_word()\nx = rng.random()\n",
            "src/repro/apps/thing.py",
        )
        assert found == []


# ---------------------------------------------------------------------------
# R004: exception boundaries in the durability layer.
# ---------------------------------------------------------------------------


class TestExceptionBoundaryAudit:
    def test_undocumented_broad_handler_flagged(self) -> None:
        found = scan(
            """\
            try:
                work()
            except Exception:
                pass
            """,
            "src/repro/stream/processor.py",
        )
        assert rule_ids(found) == ["R004"]

    def test_bare_except_flagged(self) -> None:
        found = scan(
            "try:\n    work()\nexcept:\n    pass\n",
            "src/repro/stream/wal.py",
        )
        assert rule_ids(found) == ["R004"]

    def test_documented_boundary_clean(self) -> None:
        found = scan(
            """\
            try:
                work()
            except Exception as exc:  # noqa: BLE001 -- degradation boundary
                log(exc)
            """,
            "src/repro/stream/processor.py",
        )
        assert found == []

    def test_narrow_handler_clean(self) -> None:
        found = scan(
            """\
            try:
                work()
            except (ValueError, OSError):
                pass
            """,
            "src/repro/stream/wal.py",
        )
        assert found == []

    def test_outside_stream_out_of_scope(self) -> None:
        found = scan(
            "try:\n    work()\nexcept Exception:\n    pass\n",
            "src/repro/experiments/thing.py",
        )
        assert found == []

    def test_cluster_broad_handler_flagged(self) -> None:
        found = scan(
            """\
            try:
                reply = handle(message)
            except Exception:
                reply = error_reply("worker-error", "boom")
            """,
            "src/repro/cluster/worker.py",
        )
        assert rule_ids(found) == ["R004"]

    def test_cluster_documented_boundary_clean(self) -> None:
        found = scan(
            """\
            try:
                run(scenario)
            except Exception as exc:  # noqa: BLE001 -- scenario isolation
                record(exc)
            """,
            "src/repro/cluster/faults.py",
        )
        assert found == []

    def test_cluster_unseeded_rng_flagged_by_r003(self) -> None:
        found = scan(
            "import numpy as np\njitter = np.random.default_rng()\n",
            "src/repro/cluster/coordinator.py",
        )
        assert rule_ids(found) == ["R003"]


# ---------------------------------------------------------------------------
# R005: clock injection (monotonic timing goes through repro.obs).
# ---------------------------------------------------------------------------


class TestClockInjectionGuard:
    def test_dotted_monotonic_calls_flagged(self) -> None:
        found = scan(
            """\
            import time
            a = time.monotonic()
            b = time.perf_counter()
            c = time.monotonic_ns()
            d = time.perf_counter_ns()
            """,
            "src/repro/stream/thing.py",
        )
        assert rule_ids(found) == ["R005"] * 4
        assert "repro.obs.monotonic" in found[0].message

    def test_from_import_and_alias_flagged(self) -> None:
        found = scan(
            """\
            from time import perf_counter
            from time import monotonic as mono
            import time as t
            x = perf_counter()
            y = mono()
            z = t.perf_counter()
            """,
            "src/repro/experiments/thing.py",
        )
        assert rule_ids(found) == ["R005"] * 3

    def test_obs_package_and_bench_exempt(self) -> None:
        source = "import time\nx = time.perf_counter()\n"
        assert scan(source, "src/repro/obs/metrics.py") == []
        assert scan(source, "src/repro/bench.py") == []

    def test_injected_clock_and_other_time_calls_clean(self) -> None:
        found = scan(
            """\
            import time
            from repro import obs
            start = obs.monotonic()
            time.sleep(0.01)
            stamp = clock.monotonic()
            """,
            "src/repro/sketch/thing.py",
        )
        assert found == []

    def test_suppression_with_reason_covers(self) -> None:
        found = scan(
            """\
            import time
            # repro: allow[R005] calibrating the fake clock itself
            x = time.monotonic()
            """,
            "src/repro/stream/thing.py",
        )
        assert found == []


# ---------------------------------------------------------------------------
# R006: kernel-tier vectorization (no scalar modulo, no per-element loops).
# ---------------------------------------------------------------------------


class TestKernelLoopGuard:
    def test_modulo_and_loops_flagged(self) -> None:
        found = scan(
            """\
            r = x % p
            acc %= p
            for i in range(n):
                pass
            while pending:
                pass
            """,
            "src/repro/sketch/kernels.py",
        )
        assert rule_ids(found) == ["R006"] * 4
        assert "shift-add" in found[0].message

    def test_only_outermost_loop_flagged(self) -> None:
        found = scan(
            """\
            for w in range(words):
                for k in range(8):
                    work(w, k)
            """,
            "src/repro/sketch/plane.py",
        )
        assert [v.line for v in found] == [1]

    def test_string_formatting_and_comprehensions_clean(self) -> None:
        found = scan(
            """\
            msg = "%s bits" % bits
            rows = [f(i) for i in items]
            total = sum(g(j) for j in items)
            """,
            "src/repro/sketch/kernels.py",
        )
        assert found == []

    def test_modules_outside_kernel_tier_exempt(self) -> None:
        source = "for i in range(n):\n    acc = (acc * x + c[i]) % p\n"
        assert scan(source, "src/repro/sketch/ams.py") == []
        assert scan(source, "src/repro/stream/processor.py") == []

    def test_justified_loop_suppressed(self) -> None:
        found = scan(
            """\
            # repro: allow[R006] per-seed-bit pass over the whole batch
            for j in range(bits):
                acc ^= table[j]
            """,
            "src/repro/sketch/kernels.py",
        )
        assert found == []

    def test_kernel_tier_modules_in_scope(self) -> None:
        source = "x = a % b\n"
        for path in (
            "src/repro/sketch/plane.py",
            "src/repro/schemes/builtin.py",
            "src/repro/sketch/kernels.py",
        ):
            assert rule_ids(scan(source, path)) == ["R006"], path


# ---------------------------------------------------------------------------
# R012: span handles must be context-managed or explicitly ended.
# ---------------------------------------------------------------------------


class TestSpanLifecycleGuard:
    def test_discarded_and_unended_handles_flagged(self) -> None:
        found = scan(
            """\
            from repro import obs

            def f():
                obs.span("a.b", op="load")
                handle = obs.start_span("c.d")
                return 1
            """,
            "src/repro/stream/thing.py",
        )
        assert rule_ids(found) == ["R012", "R012"]
        assert "discarded" in found[0].message
        assert "'handle'" in found[1].message
        assert found[0].line == 4
        assert found[1].line == 5

    def test_with_item_and_ended_handles_clean(self) -> None:
        found = scan(
            """\
            from repro import obs

            def f():
                with obs.span("a.b"):
                    pass
                handle = obs.start_span("c.d")
                try:
                    pass
                finally:
                    handle.end()
            """,
            "src/repro/stream/thing.py",
        )
        assert found == []

    def test_named_handle_as_with_item_clean(self) -> None:
        found = scan(
            """\
            def f():
                handle = span("a.b")
                with handle:
                    pass
            """,
            "src/repro/query/thing.py",
        )
        assert found == []

    def test_forwarded_handles_transfer_ownership(self) -> None:
        # Returning or passing a handle elsewhere is not a leak here.
        found = scan(
            """\
            def opener():
                return start_span("a.b")

            def registrar(sink):
                sink.attach(start_span("c.d"))
            """,
            "src/repro/cluster/thing.py",
        )
        assert found == []

    def test_scopes_are_independent(self) -> None:
        # A .end() in another function does not close this scope's span.
        found = scan(
            """\
            def opener():
                handle = start_span("a.b")

            def closer(handle):
                handle.end()
            """,
            "src/repro/stream/thing.py",
        )
        assert rule_ids(found) == ["R012"]
        assert found[0].line == 2

    def test_nested_function_is_its_own_scope(self) -> None:
        found = scan(
            """\
            def outer():
                with span("a.b"):
                    def inner():
                        span("c.d")
                    return inner
            """,
            "src/repro/query/thing.py",
        )
        assert rule_ids(found) == ["R012"]
        assert found[0].line == 4

    def test_obs_package_exempt(self) -> None:
        source = "def f():\n    span('a.b')\n"
        assert scan(source, "src/repro/obs/tracing.py") == []
        assert (
            rule_ids(scan(source, "src/repro/stream/thing.py")) == ["R012"]
        )

    def test_suppression_with_reason_covers(self) -> None:
        found = scan(
            """\
            def f():
                # repro: allow[R012] fire-and-forget marker span
                obs.span("a.b")
            """,
            "src/repro/stream/thing.py",
        )
        assert found == []


# ---------------------------------------------------------------------------
# Suppressions and R000.
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_reasonless_suppression_reported_and_inert(self) -> None:
        found = scan(
            """\
            def f(g):
                return isinstance(g, EH3)  # repro: allow[R001]
            """,
            "src/repro/sketch/thing.py",
        )
        assert sorted(rule_ids(found)) == ["R000", "R001"]

    def test_standalone_comment_covers_next_line(self) -> None:
        found = scan(
            """\
            # repro: allow[R001] the blessed fallback
            ok = isinstance(g, EH3)
            """,
            "src/repro/sketch/thing.py",
        )
        assert found == []

    def test_wrong_rule_does_not_cover(self) -> None:
        # The R001 finding survives, and the mismatched marker is itself
        # reported stale (R000) since R002 never fired on its line.
        found = scan(
            "ok = isinstance(g, EH3)  # repro: allow[R002] wrong rule\n",
            "src/repro/sketch/thing.py",
        )
        assert rule_ids(found) == ["R000", "R001"]

    def test_multiple_rules_in_one_marker(self) -> None:
        lines = ["x = 1  # repro: allow[R001, R002] shared justification"]
        (suppression,) = collect_suppressions(lines)
        assert suppression.rules == ("R001", "R002")
        assert suppression.covers("R001", 1)
        assert suppression.covers("R002", 1)
        assert not suppression.covers("R003", 1)

    def test_syntax_error_reported_as_r000(self) -> None:
        found = scan("def broken(:\n", "src/repro/core/thing.py")
        assert rule_ids(found) == ["R000"]
        assert "does not parse" in found[0].message


# ---------------------------------------------------------------------------
# Baseline mechanics and the CLI gate.
# ---------------------------------------------------------------------------


class TestBaseline:
    def test_round_trip_and_report_split(self, tmp_path: Path) -> None:
        old = scan(
            "a = isinstance(g, EH3)\n", "src/repro/sketch/thing.py"
        )
        baseline_file = tmp_path / "baseline.json"
        write_baseline(baseline_file, old)
        baseline = load_baseline(baseline_file)
        fresh_and_old = scan(
            "a = isinstance(g, EH3)\nb = isinstance(g, BCH3)\n",
            "src/repro/sketch/thing.py",
        )
        report = AnalysisReport(violations=fresh_and_old, baseline=baseline)
        assert [v.snippet for v in report.baselined] == [
            "a = isinstance(g, EH3)"
        ]
        assert [v.snippet for v in report.fresh] == [
            "b = isinstance(g, BCH3)"
        ]
        assert report.summary() == "R001 x2"

    def test_missing_baseline_is_empty(self, tmp_path: Path) -> None:
        assert load_baseline(tmp_path / "absent.json") == frozenset()

    def test_version_mismatch_rejected(self, tmp_path: Path) -> None:
        stale = tmp_path / "baseline.json"
        stale.write_text(json.dumps({"version": 99, "violations": []}))
        with pytest.raises(ValueError, match="version"):
            load_baseline(stale)

    def test_strict_gate_fails_then_baseline_clears(
        self, tmp_path: Path
    ) -> None:
        kernel = tmp_path / "repro" / "rangesum"
        kernel.mkdir(parents=True)
        (kernel / "bad.py").write_text(
            "import numpy as np\na = np.arange(10)\n"
        )
        baseline = tmp_path / "baseline.json"
        out = io.StringIO()
        assert (
            run_analyze(
                paths=[str(kernel)],
                strict=True,
                baseline_path=str(baseline),
                stream=out,
            )
            == 1
        )
        assert "R002" in out.getvalue()
        assert (
            run_analyze(
                paths=[str(kernel)],
                refresh_baseline=True,
                baseline_path=str(baseline),
                stream=io.StringIO(),
            )
            == 0
        )
        assert (
            run_analyze(
                paths=[str(kernel)],
                strict=True,
                baseline_path=str(baseline),
                stream=io.StringIO(),
            )
            == 0
        )

    def test_rule_lookup(self) -> None:
        assert rule_by_id("R001").id == "R001"
        with pytest.raises(KeyError, match="R001"):
            rule_by_id("R999")
        assert [rule.id for rule in ALL_RULES] == [
            "R001",
            "R002",
            "R003",
            "R004",
            "R005",
            "R006",
            "R012",
            "R008",
            "R009",
            "R010",
        ]


class TestShippedBaseline:
    """The tree itself must scan clean against the checked-in baseline."""

    def test_fresh_scan_matches_shipped_baseline(self) -> None:
        violations = analyze_paths(
            [REPO_ROOT / "src" / "repro"], root=REPO_ROOT
        )
        baseline = load_baseline(REPO_ROOT / "analysis-baseline.json")
        report = AnalysisReport(violations=violations, baseline=baseline)
        assert report.fresh == [], "\n".join(
            v.render() for v in report.fresh
        )
        # Every baselined fingerprint must still exist somewhere, or the
        # baseline has gone stale and should be refreshed.
        live = {v.fingerprint() for v in violations}
        stale = baseline - live
        assert stale == set(), f"stale baseline entries: {sorted(stale)}"

    def test_shipped_baseline_is_empty(self) -> None:
        # PR 4 fixed or suppressed-with-reason every historical finding;
        # keep it that way -- new violations need a fix or an inline
        # '# repro: allow[R00x] reason', not a baseline entry.
        assert load_baseline(REPO_ROOT / "analysis-baseline.json") == frozenset()


# ---------------------------------------------------------------------------
# R000: stale suppressions.
# ---------------------------------------------------------------------------


class TestStaleSuppressions:
    def test_stale_marker_flagged(self) -> None:
        found = scan(
            "x = compute()  # repro: allow[R001] fixed long ago\n",
            "src/repro/sketch/thing.py",
        )
        assert rule_ids(found) == ["R000"]
        assert "stale suppression" in found[0].message

    def test_live_marker_not_flagged(self) -> None:
        found = scan(
            "ok = isinstance(g, EH3)  # repro: allow[R001] registry "
            "migration pending\n",
            "src/repro/sketch/thing.py",
        )
        assert found == []

    def test_partial_rule_run_cannot_judge_staleness(self) -> None:
        # Running only R002 cannot tell whether an R001 marker is stale.
        found = analyze_source(
            "x = compute()  # repro: allow[R001] fixed long ago\n",
            "src/repro/sketch/thing.py",
            rules=[rule_by_id("R002")],
        )
        assert found == []

    def test_marker_text_inside_string_is_not_a_suppression(self) -> None:
        # Rule docs quote the marker syntax in string literals; the
        # tokenizer keeps those from registering (and from going stale).
        found = scan(
            "HELP = \"justify with '# repro: allow[R001] reason'\"\n",
            "src/repro/sketch/thing.py",
        )
        assert found == []

    def test_standalone_stale_marker_flagged(self) -> None:
        found = scan(
            """\
            # repro: allow[R001] the next line used to dispatch on type
            x = compute()
            """,
            "src/repro/sketch/thing.py",
        )
        assert rule_ids(found) == ["R000"]


# ---------------------------------------------------------------------------
# --diff: changed-lines-only reporting.
# ---------------------------------------------------------------------------


class TestDiffScan:
    def _seed_repo(self, tmp_path: Path) -> Path:
        import subprocess

        def git(*argv: str) -> None:
            subprocess.run(
                ["git", "-C", str(tmp_path), *argv],
                check=True,
                capture_output=True,
                env={
                    "GIT_AUTHOR_NAME": "t",
                    "GIT_AUTHOR_EMAIL": "t@t",
                    "GIT_COMMITTER_NAME": "t",
                    "GIT_COMMITTER_EMAIL": "t@t",
                    "HOME": str(tmp_path),
                    "PATH": "/usr/bin:/bin:/usr/local/bin",
                },
            )

        package = tmp_path / "repro" / "sketch"
        package.mkdir(parents=True)
        target = package / "thing.py"
        target.write_text("a = 1\nb = 2\nok = isinstance(g, EH3)\n")
        git("init", "-q")
        git("add", ".")
        git("commit", "-q", "-m", "seed")
        # Change line 2 only; the pre-existing violation on line 3 is
        # NOT part of this change.
        target.write_text("a = 1\nb = isinstance(g, BCH3)\nok = isinstance(g, EH3)\n")
        return target

    def test_changed_lines_parse(self, tmp_path: Path) -> None:
        from repro.analysis.diff import changed_lines

        self._seed_repo(tmp_path)
        touched = changed_lines("HEAD", tmp_path)
        assert touched == {"repro/sketch/thing.py": {2}}

    def test_diff_scan_reports_only_touched_lines(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        target = self._seed_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        code = run_analyze(
            paths=[str(target)],
            strict=True,
            diff_ref="HEAD",
            baseline_path=str(tmp_path / "absent.json"),
            stream=out,
        )
        text = out.getvalue()
        assert code == 1
        assert "BCH3" in text  # the line this change touched
        assert text.count("R001") >= 1
        assert ":3:" not in text  # the untouched pre-existing finding

    def test_bad_ref_is_a_clean_error(
        self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        target = self._seed_repo(tmp_path)
        monkeypatch.chdir(tmp_path)
        out = io.StringIO()
        code = run_analyze(
            paths=[str(target)],
            diff_ref="no-such-ref",
            baseline_path=str(tmp_path / "absent.json"),
            stream=out,
        )
        assert code == 2
        assert "analyze --diff" in out.getvalue()


# ---------------------------------------------------------------------------
# SARIF artifact.
# ---------------------------------------------------------------------------


class TestSarifOutput:
    def test_sarif_structure(self) -> None:
        from repro.analysis.sarif import SARIF_VERSION, to_sarif

        violations = scan(
            "ok = isinstance(g, EH3)\n", "src/repro/sketch/thing.py"
        )
        log = to_sarif(violations, ALL_RULES)
        assert log["version"] == SARIF_VERSION
        run = log["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-analyze"
        rule_ids_listed = [entry["id"] for entry in driver["rules"]]
        assert rule_ids_listed[0] == "R000"
        assert "R010" in rule_ids_listed
        (result,) = run["results"]
        assert result["ruleId"] == "R001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == (
            "src/repro/sketch/thing.py"
        )
        assert location["region"]["startLine"] == 1
        assert "reproFingerprint/v1" in result["partialFingerprints"]

    def test_baselined_findings_are_notes(self) -> None:
        from repro.analysis.sarif import to_sarif

        violations = scan(
            "ok = isinstance(g, EH3)\n", "src/repro/sketch/thing.py"
        )
        baseline = frozenset(v.fingerprint() for v in violations)
        log = to_sarif(violations, ALL_RULES, baseline)
        (result,) = log["runs"][0]["results"]
        assert result["level"] == "note"

    def test_cli_writes_artifact(self, tmp_path: Path) -> None:
        bad = tmp_path / "repro" / "sketch"
        bad.mkdir(parents=True)
        (bad / "thing.py").write_text("ok = isinstance(g, EH3)\n")
        sarif_path = tmp_path / "scan.sarif"
        out = io.StringIO()
        run_analyze(
            paths=[str(bad)],
            sarif_path=str(sarif_path),
            baseline_path=str(tmp_path / "absent.json"),
            stream=out,
        )
        log = json.loads(sarif_path.read_text())
        assert log["runs"][0]["results"], "artifact must carry findings"
        assert "sarif:" in out.getvalue()


# ---------------------------------------------------------------------------
# --graph / --why introspection.
# ---------------------------------------------------------------------------


class TestIntrospectionCLI:
    def test_graph_artifact_round_trips(self, tmp_path: Path) -> None:
        from repro.analysis.callgraph import CallGraph

        package = tmp_path / "repro" / "apps"
        package.mkdir(parents=True)
        (package / "thing.py").write_text(
            "def f():\n    return g()\n\ndef g():\n    return 1\n"
        )
        graph_path = tmp_path / "graph.json"
        out = io.StringIO()
        run_analyze(
            paths=[str(package)],
            graph_path=str(graph_path),
            baseline_path=str(tmp_path / "absent.json"),
            stream=out,
        )
        data = json.loads(graph_path.read_text())
        clone = CallGraph.from_dict(data)
        assert any(
            info.qualname == "f" for info in clone.functions.values()
        )
        assert "graph:" in out.getvalue()

    def test_why_prints_evidence_chain(self, tmp_path: Path) -> None:
        package = tmp_path / "repro" / "apps"
        package.mkdir(parents=True)
        (package / "thing.py").write_text(
            "import time\n"
            "from repro.generators.eh3 import EH3\n"
            "\n"
            "def make():\n"
            "    seed = time.time_ns()\n"
            "    return EH3(seed)\n"
        )
        out = io.StringIO()
        code = run_analyze(
            paths=[str(package)],
            why="R008",
            baseline_path=str(tmp_path / "absent.json"),
            stream=out,
        )
        text = out.getvalue()
        assert code == 0
        assert "source: time.time_ns" in text
        assert "fingerprint: R008::" in text

    def test_why_without_match_fails(self, tmp_path: Path) -> None:
        package = tmp_path / "repro" / "apps"
        package.mkdir(parents=True)
        (package / "thing.py").write_text("x = 1\n")
        out = io.StringIO()
        code = run_analyze(
            paths=[str(package)],
            why="R008::nope",
            baseline_path=str(tmp_path / "absent.json"),
            stream=out,
        )
        assert code == 1
        assert "no finding" in out.getvalue()
