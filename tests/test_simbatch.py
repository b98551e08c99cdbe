"""simbatch rule tests: one firing and one clean fixture per rule.

Mirrors ``tests/test_simcost.py``: simbatch is whole-program, so
fixtures go through :func:`analyze_sources` with explicit (path, source)
pairs.  Contracts are parsed syntactically, so fixture files only need
the ``@batchable``/``@reduction`` decorator *names* — no importable
``repro.batch`` stub is required.  Fixture paths sit under
``repro/host/`` so they land in the simbatch hot-path scope.

The seeded-mutant class is the SB001/SB003 regression gate: the real
repo tree is clean, so each test plants one realistic independence-
breaking bug in a declared ``@batchable`` loop
(``core/memory_system.py`` / ``host/plb.py``) and requires the rule to
catch it at the mutated line.

The cross-oracle class is the three-way consistency gate: every
``@batchable`` region committed to ``BATCH.json`` may only call kernels
certified in ``EFFECTS.json``, and each such kernel must carry a cost
entry in ``COSTS.json`` — the vectorized engine consults all three.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.simbatch import (
    OPPORTUNITY_RULE_CODE,
    RULES,
    analyze_paths,
    analyze_sources,
    opportunity_violations,
    report_for_paths,
)
from repro.analysis.simbatch import read_sources
from repro.batch import COMMUTATIVE_OPS, batchable, reduction

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# --------------------------------------------------------------------- #
# Stub modules for fixtures that need the clock spec seeds
# --------------------------------------------------------------------- #

CLOCK_STUB = textwrap.dedent(
    """
    class SimClock:
        def __init__(self) -> None:
            self.now = 0

        def advance(self, delta_ns):
            self.now += delta_ns

        def advance_to(self, ts_ns):
            self.now = ts_ns
    """
)


def codes(violations):
    return [v.code for v in violations]


def check(snippet, path="repro/host/fake.py", select=None, extra=()):
    sources = [(path, textwrap.dedent(snippet))] + list(extra)
    return analyze_sources(sources, select=select)


def check_opportunities(snippet, path="repro/host/fake.py"):
    return opportunity_violations([(path, textwrap.dedent(snippet))])


# --------------------------------------------------------------------- #
# Runtime contract decorators (repro.batch)
# --------------------------------------------------------------------- #


class TestContractDecorators:
    def test_batchable_marks_and_returns_the_function(self):
        @batchable
        def region(items):
            return list(items)

        assert region.__sim_batchable__ is True
        assert region([1, 2]) == [1, 2]

    def test_reduction_accumulates_declarations(self):
        @reduction(var="a", op="+")
        @reduction(var="b", op="max")
        def region(items):
            return items

        assert region.__sim_reductions__ == (("b", "max"), ("a", "+"))

    def test_reduction_rejects_non_identifier_var(self):
        with pytest.raises(ValueError, match="identifier"):
            reduction(var="1bad", op="+")

    def test_reduction_rejects_order_sensitive_op(self):
        with pytest.raises(ValueError, match="op must be one of"):
            reduction(var="x", op="//")

    def test_batchable_rejects_non_callable(self):
        with pytest.raises(ValueError, match="decorate a function"):
            batchable("not a function")


# --------------------------------------------------------------------- #
# SB000: syntax errors
# --------------------------------------------------------------------- #


def test_sb000_syntax_error_is_reported_not_raised():
    violations = check("def broken(:\n")
    assert codes(violations) == ["SB000"]
    assert violations[0].line == 1


# --------------------------------------------------------------------- #
# SB001: carried dependence inside a declared @batchable loop
# --------------------------------------------------------------------- #


def test_sb001_flags_undeclared_fold_with_suggestion():
    violations = check(
        """
        class Walker:
            @batchable
            def run(self, items):
                total = 0
                for item in items:
                    total += item
                return total
        """
    )
    assert codes(violations) == ["SB001"]
    assert "@reduction(var='total', op='+')" in violations[0].message


def test_sb001_clean_when_fold_is_declared():
    violations = check(
        """
        class Walker:
            @batchable
            @reduction(var="total", op="+")
            def run(self, items):
                total = 0
                for item in items:
                    total += item
                return total
        """
    )
    assert violations == []


def test_sb001_flags_mismatched_declared_op():
    violations = check(
        """
        class Walker:
            @batchable
            @reduction(var="total", op="*")
            def run(self, items):
                total = 0
                for item in items:
                    total += item
                return total
        """
    )
    assert codes(violations) == ["SB001"]
    assert "declared @reduction(op='*')" in violations[0].message


def test_sb001_flags_recurrence():
    violations = check(
        """
        class Walker:
            @batchable
            def smooth(self, items, scale):
                acc = 0
                for item in items:
                    acc = acc * scale + item
                return acc
        """
    )
    assert codes(violations) == ["SB001"]
    assert "'acc'" in violations[0].message


def test_sb001_flags_data_dependent_trip_count():
    violations = check(
        """
        class Walker:
            @batchable
            def drain(self, n):
                while n > 0:
                    n -= 1
                return n
        """
    )
    assert codes(violations) == ["SB001"]
    assert "loop condition" in violations[0].message


# --------------------------------------------------------------------- #
# SB002: undeclared order-sensitive reduction
# --------------------------------------------------------------------- #


def test_sb002_flags_last_writer_wins_output():
    violations = check(
        """
        class Walker:
            @batchable
            def last(self, items):
                winner = None
                for item in items:
                    winner = item
                return winner
        """
    )
    assert codes(violations) == ["SB002"]
    assert "last-writer-wins" in violations[0].message


def test_sb002_flags_order_sensitive_append():
    violations = check(
        """
        class Walker:
            @batchable
            def take(self, items):
                out = []
                for item in items:
                    out.append(item)
                    if len(out) > 3:
                        break
                return out
        """
    )
    assert codes(violations) == ["SB002"]
    assert "append" in violations[0].message


def test_sb002_clean_positional_gather():
    violations = check(
        """
        class Walker:
            @batchable
            def gather(self, items):
                out = []
                for item in items:
                    out.append(item * 2)
                return out
        """
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SB003: cross-iteration aliasing via container mutation
# --------------------------------------------------------------------- #


def test_sb003_flags_unkeyed_subscript_store():
    violations = check(
        """
        class Cache:
            def __init__(self):
                self._slots = {}

            @batchable
            def fill(self, items):
                for item in items:
                    self._slots["last"] = item
        """
    )
    assert codes(violations) == ["SB003"]
    assert "not keyed off the loop variable" in violations[0].message


def test_sb003_clean_keyed_scatter():
    violations = check(
        """
        class Cache:
            def __init__(self):
                self._slots = {}

            @batchable
            def fill(self, items):
                for item in items:
                    self._slots[item] = 1
        """
    )
    assert violations == []


def test_sb003_clean_keyed_dict_pop():
    violations = check(
        """
        class Cache:
            def __init__(self):
                self._slots = {}

            @batchable
            def evict(self, keys):
                for key in keys:
                    self._slots.pop(key, None)
        """
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SB004: yield/clock-advance/fault-hook inside a batchable region
# --------------------------------------------------------------------- #


def test_sb004_flags_clock_advance_with_witness_chain():
    violations = check(
        """
        from repro.sim.clock import SimClock

        class Device:
            def __init__(self, clock: SimClock):
                self.clock = clock

            def _tick(self):
                self.clock.advance(5)

            @batchable
            def run(self, items):
                for item in items:
                    self._tick()
        """,
        extra=[("repro/sim/clock.py", CLOCK_STUB)],
    )
    assert codes(violations) == ["SB004"]
    assert "advances clock" in violations[0].message
    assert "_tick" in violations[0].message  # witness chain names the callee


def test_sb004_flags_yield_inside_region():
    violations = check(
        """
        class Device:
            @batchable
            def emit(self, items):
                for item in items:
                    yield item
        """
    )
    assert "SB004" in codes(violations)


# --------------------------------------------------------------------- #
# SB005: batchable region calls a function not certified in EFFECTS.json
# --------------------------------------------------------------------- #


def test_sb005_flags_uncertified_state_mutator():
    violations = check(
        """
        class Store:
            def __init__(self):
                self._n = 0

            def bump(self):
                self._n += 1

            @batchable
            def run(self, items):
                for item in items:
                    self.bump()
        """
    )
    assert codes(violations) == ["SB005"]
    assert "not certified in EFFECTS.json" in violations[0].message


def test_sb005_clean_certified_kernel_call():
    violations = check(
        """
        from repro.effects import kernel

        class Table:
            def __init__(self):
                self._slots = {}

            @kernel
            def lookup(self, key):
                return self._slots.get(key)

        class Scanner:
            def __init__(self, table: Table):
                self.table = table

            @batchable
            def probe(self, keys):
                found = []
                for key in keys:
                    found.append(self.table.lookup(key))
                return found
        """
    )
    assert violations == []


def test_sb005_clean_effect_free_helper():
    violations = check(
        """
        class Scanner:
            def _double(self, value):
                return value * 2

            @batchable
            def run(self, items):
                out = []
                for item in items:
                    out.append(self._double(item))
                return out
        """
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SB006: stale contract vs analysis
# --------------------------------------------------------------------- #


def test_sb006_flags_batchable_without_a_loop():
    violations = check(
        """
        class Walker:
            @batchable
            def once(self, item):
                return item * 2
        """
    )
    assert codes(violations) == ["SB006"]
    assert "contains no loop" in violations[0].message


def test_sb006_flags_reduction_var_that_never_carries():
    violations = check(
        """
        class Walker:
            @batchable
            @reduction(var="ghost", op="+")
            def run(self, items):
                out = []
                for item in items:
                    out.append(item)
                return out
        """
    )
    assert codes(violations) == ["SB006"]
    assert "'ghost'" in violations[0].message


# --------------------------------------------------------------------- #
# SB007: opportunity audit (--check-opportunities only)
# --------------------------------------------------------------------- #

OPPORTUNITY_FIXTURE = """
    from repro.effects import kernel

    class Table:
        def __init__(self):
            self._slots = {}

        @kernel
        def lookup(self, key):
            return self._slots.get(key)

    class Scanner:
        def __init__(self, table: Table):
            self.table = table

        def probe(self, keys):
            found = []
            for key in keys:
                found.append(self.table.lookup(key))
            return found
"""


def test_sb007_flags_undeclared_batchable_loop():
    violations = check_opportunities(OPPORTUNITY_FIXTURE)
    assert codes(violations) == ["SB007"]
    assert "provably VECTORIZABLE" in violations[0].message
    assert "Table.lookup" in violations[0].message


def test_sb007_not_raised_by_the_contract_scan():
    # The default scan polices declared regions only; coverage gaps are
    # the --check-opportunities pass's job.
    assert check(OPPORTUNITY_FIXTURE) == []


def test_sb007_silent_on_order_dependent_loops():
    violations = check_opportunities(
        """
        from repro.effects import kernel

        class Table:
            def __init__(self):
                self._slots = {}

            @kernel
            def lookup(self, key):
                return self._slots.get(key)

        class Scanner:
            def __init__(self, table: Table):
                self.table = table

            def probe(self, keys):
                last = None
                for key in keys:
                    last = self.table.lookup(key)
                return last
        """
    )
    assert violations == []


# --------------------------------------------------------------------- #
# Scope, suppressions, select
# --------------------------------------------------------------------- #


def test_rules_only_fire_in_hot_path_scope():
    snippet = """
        class Walker:
            @batchable
            def run(self, items):
                total = 0
                for item in items:
                    total += item
                return total
    """
    assert check(snippet, path="repro/host/fake.py") != []
    assert check(snippet, path="repro/analysis/fake.py") == []
    assert check(snippet, path="tools/fake.py") == []


def test_suppression_comment_silences_a_finding():
    violations = check(
        """
        class Walker:
            @batchable
            def run(self, items):
                total = 0
                for item in items:
                    total += item  # simbatch: disable=SB001
                return total
        """
    )
    assert violations == []


def test_select_filters_to_requested_codes():
    snippet = """
        class Cache:
            def __init__(self):
                self._slots = {}

            @batchable
            def run(self, items):
                total = 0
                for item in items:
                    total += item
                    self._slots["last"] = item
                return total
    """
    assert codes(check(snippet)) == ["SB001", "SB003"]
    assert codes(check(snippet, select=["SB003"])) == ["SB003"]


def test_stale_simbatch_suppression_is_flagged_by_sup001(tmp_path):
    from repro.analysis import analyze

    clean = tmp_path / "repro" / "host" / "clean.py"
    clean.parent.mkdir(parents=True)
    clean.write_text(
        "def twice(items):\n"
        "    return [item * 2 for item in items]  # simbatch: disable=SB001\n"
    )
    stale, crashes = analyze.check_suppressions([str(tmp_path / "repro")])
    assert crashes == []
    assert [v.code for v in stale] == ["SUP001"]
    assert "[simbatch]" in stale[0].message


# --------------------------------------------------------------------- #
# Rule catalogue
# --------------------------------------------------------------------- #


def test_rule_catalogue_is_complete_and_disjoint():
    assert [rule.code for rule in RULES] == [
        "SB001", "SB002", "SB003", "SB004", "SB005", "SB006",
    ]
    assert OPPORTUNITY_RULE_CODE == "SB007"
    for rule in RULES:
        assert rule.title
        assert rule.explanation
        assert rule.sim_scope_only


def test_commutative_ops_match_the_declared_contract_set():
    assert COMMUTATIVE_OPS == {"+", "*", "min", "max", "or", "and", "|", "&", "^"}


# --------------------------------------------------------------------- #
# Seeded mutants: the SB001/SB003 regression gate on real repo code
# --------------------------------------------------------------------- #


def _mutated_repo_sources(suffix, old, new):
    sources = read_sources([str(SRC / "repro")])
    out = []
    mutated_line = None
    for path, text in sources:
        if path.endswith(suffix) and old in text:
            before = text[: text.index(old)]
            mutated_line = before.count("\n") + 1
            text = text.replace(old, new, 1)
        out.append((path, text))
    assert mutated_line is not None, f"mutation target not found: {old!r}"
    return out, mutated_line


class TestSeededMutants:
    def test_sb001_catches_broken_walk_ns_fold(self):
        """Replacing warm_translations' declared '+' fold with a running
        average (a true recurrence) must fire SB001 at the mutated line."""
        mutant, line = _mutated_repo_sources(
            "core/memory_system.py",
            "walk_ns += cost",
            "walk_ns = (walk_ns + cost) // 2",
        )
        violations = [v for v in analyze_sources(mutant) if v.code == "SB001"]
        assert len(violations) == 1, [v.format() for v in violations]
        assert violations[0].path.endswith("core/memory_system.py")
        assert violations[0].line == line
        assert "walk_ns" in violations[0].message

    def test_sb003_catches_unkeyed_retire(self):
        """Replacing batch_retire's keyed pop with popitem() (an arbitrary-
        slot mutation) must fire SB003 at the mutated line."""
        mutant, line = _mutated_repo_sources(
            "host/plb.py",
            "            self._by_ssd_tag.pop(entry.ssd_tag, None)\n"
            "            retired += 1",
            "            self._by_ssd_tag.popitem()\n"
            "            retired += 1",
        )
        violations = [v for v in analyze_sources(mutant) if v.code == "SB003"]
        assert len(violations) == 1, [v.format() for v in violations]
        assert violations[0].path.endswith("host/plb.py")
        assert violations[0].line == line
        assert "_by_ssd_tag" in violations[0].message


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def _run_cli(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.simbatch", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(SRC)},
    )


def _write_fixture_tree(tmp_path, body):
    root = tmp_path / "repro" / "host"
    root.mkdir(parents=True)
    (root / "fake.py").write_text(textwrap.dedent(body))
    return root


def test_cli_exits_zero_on_clean_tree(tmp_path):
    _write_fixture_tree(
        tmp_path,
        """
        class Walker:
            @batchable
            @reduction(var="total", op="+")
            def run(self, items):
                total = 0
                for item in items:
                    total += item
                return total
        """,
    )
    result = _run_cli(["repro"], tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_cli_exits_nonzero_on_violation(tmp_path):
    _write_fixture_tree(
        tmp_path,
        """
        class Walker:
            @batchable
            def run(self, items):
                total = 0
                for item in items:
                    total += item
                return total
        """,
    )
    result = _run_cli(["repro"], tmp_path)
    assert result.returncode == 1
    assert "SB001" in result.stdout


def test_cli_list_rules(tmp_path):
    result = _run_cli(["--list-rules"], tmp_path)
    assert result.returncode == 0
    for code in ("SB001", "SB006", "SB007"):
        assert code in result.stdout


def test_cli_json_shared_schema(tmp_path):
    _write_fixture_tree(tmp_path, "x = 1\n")
    result = _run_cli(["--json", "repro"], tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["tool"] == "simbatch"
    assert payload["count"] == 0
    assert payload["findings"] == []


def test_cli_report_writes_batch_json(tmp_path):
    _write_fixture_tree(
        tmp_path,
        """
        class Walker:
            @batchable
            @reduction(var="total", op="+")
            def run(self, items):
                total = 0
                for item in items:
                    total += item
                return total
        """,
    )
    result = _run_cli(["--report", "BATCH.json", "repro"], tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((tmp_path / "BATCH.json").read_text())
    assert report["tool"] == "simbatch"
    assert report["summary"]["regions"] == 1
    assert report["summary"]["certified_regions"] == 1
    (region,) = report["regions"]
    assert region["function"] == "host.fake.Walker.run"
    assert region["certified"] is True
    assert region["reductions"] == [{"var": "total", "op": "+"}]
    (loop,) = report["loops"]
    assert loop["classification"] == "REDUCTION"
    assert loop["declared"] is True


def test_cli_check_opportunities_flags_undeclared_loop(tmp_path):
    _write_fixture_tree(tmp_path, OPPORTUNITY_FIXTURE)
    result = _run_cli(["--check-opportunities", "repro"], tmp_path)
    assert result.returncode == 1
    assert "SB007" in result.stdout
    # The default scan stays clean on the same tree.
    assert _run_cli(["repro"], tmp_path).returncode == 0


# --------------------------------------------------------------------- #
# Repo gates: the tree is clean and BATCH.json answers the ROADMAP
# --------------------------------------------------------------------- #


def test_repo_tree_is_simbatch_clean():
    violations = analyze_paths([str(SRC)])
    assert violations == [], "\n".join(v.format() for v in violations)


def test_repo_has_no_undeclared_batchable_opportunities():
    sources = read_sources([str(SRC / "repro")])
    violations = opportunity_violations(sources)
    assert violations == [], "\n".join(v.format() for v in violations)


class TestRepoBatchReport:
    @pytest.fixture(scope="class")
    def report(self):
        return report_for_paths([str(SRC / "repro")])

    def test_every_region_is_certified(self, report):
        assert report["summary"]["regions"] == len(report["regions"])
        for region in report["regions"]:
            assert region["certified"] is True, region
            assert region["violations"] == []

    def test_roadmap_access_loops_are_certified(self, report):
        """The loops ROADMAP item 1 batches must be certified: PLB lookup,
        TLB lookup + page-table walk, and the SSD-Cache lookup."""
        kernels_by_region = {
            r["function"]: set(r["kernel_calls"]) for r in report["regions"]
        }
        assert "host.plb.PLB.lookup" in kernels_by_region["host.plb.PLB.batch_lookup"]
        warm = kernels_by_region["core.memory_system.MemorySystem.warm_translations"]
        assert "host.tlb.TLB.lookup" in warm
        assert "host.page_table.PageTable.walk" in warm
        assert (
            "ssd.ssd_cache.SSDCache.lookup"
            in kernels_by_region["ssd.ssd_cache.SSDCache.batch_lookup"]
        )

    def test_declared_regions_cover_the_contract_surface(self, report):
        functions = {r["function"] for r in report["regions"]}
        assert {
            "core.hierarchy.FlatFlash._assemble_plb_lines",
            "core.memory_system.MemorySystem.warm_translations",
            "host.plb.PLB.batch_lookup",
            "host.plb.PLB.batch_retire",
            "host.tlb.TLB.batch_invalidate",
            "ssd.ssd_cache.SSDCache.batch_lookup",
        } <= functions

    def test_no_opportunities_remain(self, report):
        assert report["summary"]["opportunities"] == 0

    def test_summary_counts_are_consistent(self, report):
        summary = report["summary"]
        assert summary["loops"] == len(report["loops"])
        assert summary["loops"] == (
            summary["vectorizable"] + summary["reduction"]
            + summary["order_dependent"]
        )
        declared = [loop for loop in report["loops"] if loop["declared"]]
        assert {loop["classification"] for loop in declared} <= {
            "VECTORIZABLE", "REDUCTION",
        }

    def test_order_dependent_loops_carry_witnesses(self, report):
        for loop in report["loops"]:
            if loop["classification"] != "ORDER_DEPENDENT":
                continue
            assert loop["carried"], loop
            for dep in loop["carried"]:
                assert dep["kind"]
                assert dep["line"] > 0

    def test_committed_batch_json_is_current(self, report):
        def relative(document):
            # The committed report was generated from the repo root with
            # a relative path; the fixture uses an absolute one.
            text = json.dumps(document, sort_keys=True)
            return text.replace(str(SRC.parent) + "/", "")

        committed = json.loads(
            (SRC.parent / "BATCH.json").read_text(encoding="utf-8")
        )
        assert relative(committed) == relative(report), (
            "BATCH.json is stale — regenerate with "
            "`python -m repro.analysis.simbatch --report BATCH.json src/repro`"
        )


# --------------------------------------------------------------------- #
# Cross-oracle consistency: BATCH.json vs EFFECTS.json vs COSTS.json
# --------------------------------------------------------------------- #


class TestCrossOracleConsistency:
    @pytest.fixture(scope="class")
    def oracles(self):
        root = SRC.parent
        return (
            json.loads((root / "BATCH.json").read_text(encoding="utf-8")),
            json.loads((root / "EFFECTS.json").read_text(encoding="utf-8")),
            json.loads((root / "COSTS.json").read_text(encoding="utf-8")),
        )

    def test_region_kernel_calls_are_certified_in_effects_json(self, oracles):
        batch, effects, _costs = oracles
        certified = set(effects["certified"])
        for region in batch["regions"]:
            missing = set(region["kernel_calls"]) - certified
            assert not missing, (
                f"{region['function']} calls kernels not certified in "
                f"EFFECTS.json: {sorted(missing)}"
            )

    def test_region_kernel_calls_have_cost_entries(self, oracles):
        batch, _effects, costs = oracles
        costed = {entry["function"] for entry in costs["entry_points"]}
        for region in batch["regions"]:
            missing = set(region["kernel_calls"]) - costed
            assert not missing, (
                f"{region['function']} calls kernels with no COSTS.json "
                f"entry: {sorted(missing)}"
            )
