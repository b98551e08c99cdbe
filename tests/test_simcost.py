"""simcost rule tests: one firing and one clean fixture per rule.

Mirrors ``tests/test_simeffect.py``: simcost is whole-program, so
fixtures go through :func:`analyze_sources` with explicit (path, source)
pairs.  The evaluator only special-cases calls it can *resolve* to the
clock/stat primitives, so every fixture ships tiny stub modules under
the real ``repro.sim.clock`` / ``repro.sim.stats`` paths; the cost atoms
come from a stub ``repro/config.py`` LatencyConfig (the model reads the
analyzed program's own config, not the live one).

The seeded-mutant classes are the SC001/SC002 regression gate: the real
repo tree is clean, so each test plants one realistic accounting bug in
``core/memory_system.py`` and requires the rule to catch it.
"""

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.simcost import (
    RULES,
    analyze_paths,
    analyze_sources,
    config_violations,
    report_for_paths,
)
from repro.analysis.simcost import read_sources

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# --------------------------------------------------------------------- #
# Stub modules every fixture program shares
# --------------------------------------------------------------------- #

CLOCK_STUB = textwrap.dedent(
    """
    class SimClock:
        def __init__(self) -> None:
            self.now_ns = 0

        def advance(self, delta_ns):
            self.now_ns += delta_ns

        def advance_to(self, ts_ns):
            self.now_ns = ts_ns
    """
)

STATS_STUB = textwrap.dedent(
    """
    class Counter:
        def add(self, amount=1):
            pass

    class RatioStat:
        def record(self, hit):
            pass

    class LatencyStats:
        def record(self, value):
            pass

        def extend(self, values):
            pass

    class StatRegistry:
        def counter(self, name):
            return Counter()

        def ratio(self, name):
            return RatioStat()

        def latency(self, name):
            return LatencyStats()
    """
)

CONFIG_STUB = textwrap.dedent(
    """
    class LatencyConfig:
        read_ns: int = 100
        write_ns: int = 200
    """
)


def codes(violations):
    return [v.code for v in violations]


def check(snippet, path="repro/sim/fake.py", select=None, config=CONFIG_STUB,
          **kwargs):
    sources = [
        ("repro/sim/clock.py", CLOCK_STUB),
        ("repro/sim/stats.py", STATS_STUB),
        ("repro/config.py", textwrap.dedent(config)),
        (path, textwrap.dedent(snippet)),
    ]
    return analyze_sources(sources, select=select, **kwargs)


#: A component that charges both config atoms, so SC006 stays quiet
#: while other rules are under test.  Indented to match the inline
#: fixture strings it is concatenated with, so dedent sees one block.
DEV_HEADER = """
        from repro.config import LatencyConfig
        from repro.sim.clock import SimClock
        from repro.sim.stats import StatRegistry

        class Dev:
            def __init__(self, clock: SimClock, lat: LatencyConfig,
                         stats: StatRegistry) -> None:
                self.clock = clock
                self.lat = lat
                self._reads = stats.counter("dev.reads")

            def _burn_all_atoms(self) -> None:
                self.clock.advance(self.lat.read_ns)
                self.clock.advance(self.lat.write_ns)
"""


# --------------------------------------------------------------------- #
# SC000: syntax errors
# --------------------------------------------------------------------- #


def test_sc000_syntax_error_is_reported_not_raised():
    violations = check("def broken(:\n", select=["SC000"])
    assert codes(violations) == ["SC000"]
    assert violations[0].line == 1


# --------------------------------------------------------------------- #
# SC001: TimeNs result discarded without being charged
# --------------------------------------------------------------------- #


def test_sc001_flags_discarded_time_result():
    violations = check(
        DEV_HEADER
        + """
        TimeNs = int

        class Cache:
            def __init__(self, dev: Dev) -> None:
                self.dev = dev

            def probe_cost(self) -> TimeNs:
                return 40

            def touch(self) -> None:
                self.probe_cost()
        """,
        select=["SC001"],
    )
    assert codes(violations) == ["SC001"]
    assert "discarded" in violations[0].message


def test_sc001_clean_when_result_is_charged():
    violations = check(
        DEV_HEADER
        + """
        TimeNs = int

        class Cache:
            def __init__(self, dev: Dev) -> None:
                self.dev = dev

            def probe_cost(self) -> TimeNs:
                return 40

            def touch(self) -> None:
                self.dev.clock.advance(self.probe_cost())
        """,
        select=["SC001"],
    )
    assert violations == []


def test_sc001_clean_when_callee_charges_itself():
    violations = check(
        DEV_HEADER
        + """
        TimeNs = int

        class Cache:
            def __init__(self, dev: Dev) -> None:
                self.dev = dev

            def charge(self) -> TimeNs:
                cost = self.dev.lat.read_ns
                self.dev.clock.advance(cost)
                return cost

            def touch(self) -> None:
                self.charge()
        """,
        select=["SC001"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SC002: the same cost charged twice on one path
# --------------------------------------------------------------------- #


def test_sc002_flags_double_charge():
    violations = check(
        DEV_HEADER
        + """
        class App:
            def __init__(self, dev: Dev) -> None:
                self.dev = dev

            def read(self) -> None:
                cost = self.dev.lat.read_ns
                self.dev.clock.advance(cost)
                self.dev.clock.advance(cost)
        """,
        select=["SC002"],
    )
    assert codes(violations) == ["SC002"]
    assert "read_ns" in violations[0].message


def test_sc002_clean_on_disjoint_branches():
    # The same constant charged on *different* paths is fine: each
    # concrete execution charges once.
    violations = check(
        DEV_HEADER
        + """
        class App:
            def __init__(self, dev: Dev) -> None:
                self.dev = dev

            def read(self, fast: bool) -> None:
                cost = self.dev.lat.read_ns
                if fast:
                    self.dev.clock.advance(cost)
                else:
                    self.dev.clock.advance(cost)
        """,
        select=["SC002"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SC003: magic-number time
# --------------------------------------------------------------------- #


def test_sc003_flags_magic_number_advance():
    violations = check(
        DEV_HEADER
        + """
        class App:
            def __init__(self, dev: Dev) -> None:
                self.dev = dev

            def stall(self) -> None:
                self.dev.clock.advance(750)
        """,
        select=["SC003"],
    )
    assert codes(violations) == ["SC003"]
    assert "magic number" in violations[0].message


def test_sc003_clean_atom_traced_advance():
    violations = check(
        DEV_HEADER
        + """
        class App:
            def __init__(self, dev: Dev) -> None:
                self.dev = dev

            def read_two(self) -> None:
                self.dev.clock.advance(2 * self.dev.lat.read_ns)
        """,
        select=["SC003"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SC004: counter-conservation invariants
# --------------------------------------------------------------------- #

COUNTED_HEADER = """
        from repro.config import LatencyConfig
        from repro.costs import counters
        from repro.sim.clock import SimClock
        from repro.sim.stats import StatRegistry
"""


def test_sc004_flags_violated_invariant():
    violations = check(
        COUNTED_HEADER
        + """
        @counters(owner="dev", conserve=("touch: dev.reads == 1",))
        class Dev:
            def __init__(self, clock: SimClock, lat: LatencyConfig,
                         stats: StatRegistry) -> None:
                self.clock = clock
                self.lat = lat
                self._reads = stats.counter("dev.reads")

            def _burn_all_atoms(self) -> None:
                self.clock.advance(self.lat.read_ns)
                self.clock.advance(self.lat.write_ns)

            def touch(self) -> None:
                self._reads.add()
                self._reads.add()
        """,
        select=["SC004"],
    )
    assert codes(violations) == ["SC004"]
    assert "dev.reads == 1" in violations[0].message


def test_sc004_verifies_conditional_bump_with_le():
    violations = check(
        COUNTED_HEADER
        + """
        @counters(owner="dev", conserve=("touch: dev.reads <= 1",))
        class Dev:
            def __init__(self, clock: SimClock, lat: LatencyConfig,
                         stats: StatRegistry) -> None:
                self.clock = clock
                self.lat = lat
                self._reads = stats.counter("dev.reads")

            def _burn_all_atoms(self) -> None:
                self.clock.advance(self.lat.read_ns)
                self.clock.advance(self.lat.write_ns)

            def touch(self, hot: bool) -> None:
                if hot:
                    self._reads.add()
        """,
        select=["SC004"],
    )
    assert violations == []


def test_sc004_flags_bad_invariant_grammar_in_decorator():
    violations = check(
        COUNTED_HEADER
        + """
        @counters(owner="dev", conserve=("dev.reads < 1",))
        class Dev:
            def __init__(self, clock: SimClock, lat: LatencyConfig,
                         stats: StatRegistry) -> None:
                self.clock = clock
                self.lat = lat
                self._reads = stats.counter("dev.reads")

            def _burn_all_atoms(self) -> None:
                self.clock.advance(self.lat.read_ns)
                self.clock.advance(self.lat.write_ns)
        """,
        select=["SC004"],
    )
    assert codes(violations) == ["SC004"]


# --------------------------------------------------------------------- #
# SC005: stat mutated outside its owning component
# --------------------------------------------------------------------- #


def test_sc005_flags_foreign_stat_mutation():
    violations = check(
        COUNTED_HEADER
        + """
        @counters(owner="dev")
        class Dev:
            def __init__(self, clock: SimClock, lat: LatencyConfig,
                         stats: StatRegistry) -> None:
                self.clock = clock
                self.lat = lat
                self._reads = stats.counter("dev.reads")

            def _burn_all_atoms(self) -> None:
                self.clock.advance(self.lat.read_ns)
                self.clock.advance(self.lat.write_ns)

        class Meddler:
            def __init__(self, stats: StatRegistry) -> None:
                self._sneak = stats.counter("dev.reads")

            def poke(self) -> None:
                self._sneak.add()
        """,
        select=["SC005"],
    )
    assert codes(violations) == ["SC005"]
    assert "owned by" in violations[0].message
    assert "Meddler" in violations[0].message


def test_sc005_clean_mutation_inside_owner():
    violations = check(
        COUNTED_HEADER
        + """
        @counters(owner="dev")
        class Dev:
            def __init__(self, clock: SimClock, lat: LatencyConfig,
                         stats: StatRegistry) -> None:
                self.clock = clock
                self.lat = lat
                self._reads = stats.counter("dev.reads")

            def _burn_all_atoms(self) -> None:
                self.clock.advance(self.lat.read_ns)
                self.clock.advance(self.lat.write_ns)

            def touch(self) -> None:
                self._reads.add()
        """,
        select=["SC005"],
    )
    assert violations == []


def test_sc005_subclass_of_owner_is_not_foreign():
    violations = check(
        COUNTED_HEADER
        + """
        @counters(owner="dev")
        class Dev:
            def __init__(self, clock: SimClock, lat: LatencyConfig,
                         stats: StatRegistry) -> None:
                self.clock = clock
                self.lat = lat
                self._reads = stats.counter("dev.reads")

            def _burn_all_atoms(self) -> None:
                self.clock.advance(self.lat.read_ns)
                self.clock.advance(self.lat.write_ns)

        class FastDev(Dev):
            def touch(self) -> None:
                self._reads.add()
        """,
        select=["SC005"],
    )
    assert violations == []


# --------------------------------------------------------------------- #
# SC006: dead cost constant
# --------------------------------------------------------------------- #


def test_sc006_flags_unused_latency_field():
    violations = check(
        DEV_HEADER,
        config="""
        class LatencyConfig:
            read_ns: int = 100
            write_ns: int = 200
            orphan_ns: int = 300
        """,
        select=["SC006"],
    )
    assert codes(violations) == ["SC006"]
    assert "orphan_ns" in violations[0].message


def test_sc006_clean_when_every_field_is_read():
    violations = check(DEV_HEADER, select=["SC006"])
    assert violations == []


def test_builtin_call_inside_counter_add_does_not_crash():
    # Call edges are keyed by line, so ``counter.add(sum(xs))`` puts
    # ``Counter.add`` as the lone candidate for the builtin call too;
    # the path evaluator must not mistake ``sum`` for the counter add.
    snippet = DEV_HEADER + """
        class App:
            def __init__(self, dev: Dev) -> None:
                self.dev = dev

            def tally(self, xs) -> None:
                self.dev._reads.add(sum(xs) - min(xs))
    """
    assert check(snippet) == []


# --------------------------------------------------------------------- #
# Suppressions and --select
# --------------------------------------------------------------------- #


def test_suppression_comment_silences_a_finding():
    snippet = DEV_HEADER + """
        class App:
            def __init__(self, dev: Dev) -> None:
                self.dev = dev

            def stall(self) -> None:
                self.dev.clock.advance(750)  # simcost: disable=SC003 (why)
    """
    assert check(snippet, select=["SC003"]) == []
    raw = check(snippet, select=["SC003"], apply_suppressions=False)
    assert codes(raw) == ["SC003"]


def test_select_filters_rules():
    snippet = DEV_HEADER + """
        class App:
            def __init__(self, dev: Dev) -> None:
                self.dev = dev

            def stall(self) -> None:
                cost = self.dev.lat.read_ns
                self.dev.clock.advance(cost)
                self.dev.clock.advance(cost)
                self.dev.clock.advance(750)
    """
    assert codes(check(snippet, select=["SC002"])) == ["SC002"]
    assert codes(check(snippet, select=["SC003"])) == ["SC003"]
    both = codes(check(snippet, select=["SC002", "SC003"]))
    assert sorted(both) == ["SC002", "SC003"]


def test_rule_catalogue_is_complete():
    assert [rule.code for rule in RULES] == [
        "SC001", "SC002", "SC003", "SC004", "SC005", "SC006",
    ]
    for rule in RULES:
        assert rule.title
        assert rule.explanation


# --------------------------------------------------------------------- #
# SC007 (--check-config): dead tuning knobs
# --------------------------------------------------------------------- #


def test_sc007_flags_never_read_config_knob():
    sources = [
        ("repro/sim/clock.py", CLOCK_STUB),
        ("repro/sim/stats.py", STATS_STUB),
        (
            "repro/config.py",
            textwrap.dedent(
                """
                class FlatFlashConfig:
                    page_size: int = 4096
                    phantom_knob: int = 7
                """
            ),
        ),
        (
            "repro/sim/fake.py",
            textwrap.dedent(
                """
                from repro.config import FlatFlashConfig

                def use(config: FlatFlashConfig) -> int:
                    return config.page_size
                """
            ),
        ),
    ]
    violations = config_violations(sources)
    assert codes(violations) == ["SC007"]
    assert "phantom_knob" in violations[0].message


def test_sc007_derived_accessor_reads_count():
    # A knob consumed only by a derived accessor *inside* config.py is
    # still live (the resolved_* pattern the real GeometryConfig uses).
    sources = [
        ("repro/sim/clock.py", CLOCK_STUB),
        ("repro/sim/stats.py", STATS_STUB),
        (
            "repro/config.py",
            textwrap.dedent(
                """
                class FlatFlashConfig:
                    cache_ratio: float = 0.1

                    def resolved_pages(self, total: int) -> int:
                        return int(total * self.cache_ratio)
                """
            ),
        ),
    ]
    assert config_violations(sources) == []


# --------------------------------------------------------------------- #
# Seeded mutants: the SC001/SC002 regression gate on real repo code
# --------------------------------------------------------------------- #


def _mutated_repo_sources(old, new):
    sources = read_sources([str(SRC / "repro")])
    out = []
    hit = False
    for path, text in sources:
        if path.endswith("core/memory_system.py") and old in text:
            text = text.replace(old, new, 1)
            hit = True
        out.append((path, text))
    assert hit, f"mutation target not found: {old!r}"
    return out


class TestSeededMutants:
    def test_sc001_catches_dropped_background_booking(self):
        """Discarding batch_invalidate's TimeNs instead of booking it to
        gc background time must fire SC001 at the mutated line."""
        mutant = _mutated_repo_sources(
            "self._background_ns.add(self.tlb.batch_invalidate(vpns))",
            "self.tlb.batch_invalidate(vpns)",
        )
        violations = [v for v in analyze_sources(mutant) if v.code == "SC001"]
        assert len(violations) == 1, [v.format() for v in violations]
        assert "batch_invalidate" in violations[0].message
        assert violations[0].path.endswith("core/memory_system.py")

    def test_sc002_catches_double_charged_access_latency(self):
        """Charging one access's latency twice must fire SC002 naming a
        constant that flowed into the doubled value."""
        mutant = _mutated_repo_sources(
            "        self.clock.advance(total_latency)\n",
            "        self.clock.advance(total_latency)\n"
            "        self.clock.advance(total_latency)\n",
        )
        violations = [v for v in analyze_sources(mutant) if v.code == "SC002"]
        assert len(violations) == 1, [v.format() for v in violations]
        assert "double charge" in violations[0].message


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


def _run_cli(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.simcost", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(SRC)},
    )


def _write_fixture_tree(tmp_path):
    root = tmp_path / "repro"
    (root / "sim").mkdir(parents=True)
    (root / "sim" / "clock.py").write_text(CLOCK_STUB)
    (root / "sim" / "stats.py").write_text(STATS_STUB)
    (root / "config.py").write_text(CONFIG_STUB)
    (root / "sim" / "dev.py").write_text(textwrap.dedent(DEV_HEADER))
    return root


def test_cli_exits_zero_on_clean_tree(tmp_path):
    _write_fixture_tree(tmp_path)
    result = _run_cli(["repro"], tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_cli_exits_nonzero_on_violation(tmp_path):
    root = _write_fixture_tree(tmp_path)
    (root / "sim" / "bad.py").write_text(
        textwrap.dedent(
            """
            from repro.sim.clock import SimClock

            class App:
                def __init__(self, clock: SimClock) -> None:
                    self.clock = clock

                def stall(self) -> None:
                    self.clock.advance(750)
            """
        )
    )
    result = _run_cli(["repro"], tmp_path)
    assert result.returncode == 1
    assert "SC003" in result.stdout


def test_cli_list_rules(tmp_path):
    result = _run_cli(["--list-rules"], tmp_path)
    assert result.returncode == 0
    for code in ("SC001", "SC006", "SC007"):
        assert code in result.stdout


def test_cli_json_shared_schema(tmp_path):
    _write_fixture_tree(tmp_path)
    result = _run_cli(["--json", "repro"], tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["tool"] == "simcost"
    assert payload["count"] == 0
    assert payload["findings"] == []


def test_cli_report_writes_costs_json(tmp_path):
    _write_fixture_tree(tmp_path)
    result = _run_cli(["--report", "COSTS.json", "repro"], tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    report = json.loads((tmp_path / "COSTS.json").read_text())
    assert report["tool"] == "simcost"
    assert "entry_points" in report
    assert "invariants" in report
    assert "latency_fields" in report


def test_cli_check_config_flags_dead_knob(tmp_path):
    root = _write_fixture_tree(tmp_path)
    (root / "config.py").write_text(
        CONFIG_STUB
        + textwrap.dedent(
            """
            class FlatFlashConfig:
                phantom_knob: int = 7
            """
        )
    )
    result = _run_cli(["--check-config", "repro"], tmp_path)
    assert result.returncode == 1
    assert "SC007" in result.stdout
    assert "phantom_knob" in result.stdout


# --------------------------------------------------------------------- #
# Repo gates: the tree is clean and COSTS.json answers the ROADMAP
# --------------------------------------------------------------------- #


def test_repo_tree_is_simcost_clean():
    violations = analyze_paths([str(SRC)])
    assert violations == [], "\n".join(v.format() for v in violations)


def test_repo_config_has_no_dead_knobs():
    sources = read_sources([str(SRC / "repro")])
    violations = config_violations(sources)
    assert violations == [], "\n".join(v.format() for v in violations)


class TestRepoCostReport:
    @pytest.fixture(scope="class")
    def report(self):
        return report_for_paths([str(SRC / "repro")])

    def test_every_certified_kernel_has_an_entry(self, report):
        from repro.analysis.simeffect import report_for_paths as effects_report

        certified = set(effects_report([str(SRC / "repro")])["certified"])
        assert len(certified) == report["summary"]["kernels"]
        covered = {
            e["function"] for e in report["entry_points"] if e["group"] == "kernel"
        }
        assert certified <= covered, f"missing: {certified - covered}"

    def test_promotion_fault_and_persistence_paths_are_covered(self, report):
        groups = {e["group"] for e in report["entry_points"]}
        assert {"kernel", "promotion", "fault-retry", "persistence"} <= groups

    def test_entries_are_path_conditional(self, report):
        by_name = {e["function"]: e for e in report["entry_points"]}
        walk = by_name["host.page_table.PageTable.walk"]
        assert len(walk["paths"]) == 2
        raises = {p["raises"] for p in walk["paths"]}
        assert raises == {None, "KeyError"}
        for path in walk["paths"]:
            assert path["counters"]["page_table.walks"] == [1, 1]
        tlb = by_name["host.tlb.TLB.lookup"]
        conds = {tuple(p["conditions"]) for p in tlb["paths"]}
        assert len(conds) == len(tlb["paths"]) == 2

    def test_required_invariants_are_declared_and_verified(self, report):
        required = {
            ("host.plb.PLB", "lookup: plb.hits:total == 1"),
            ("host.plb.PLB", "plb.hits:hit + plb.hits:miss == plb.hits:total"),
            ("host.tlb.TLB", "lookup: tlb.hits:total == 1"),
            ("host.tlb.TLB", "tlb.hits:hit + tlb.hits:miss == tlb.hits:total"),
            ("host.page_table.PageTable", "walk: page_table.walks == 1"),
            ("ssd.ssd_cache.SSDCache", "lookup: ssd_cache.hits:total <= 1"),
            (
                "ssd.ssd_cache.SSDCache",
                "ssd_cache.hits:hit + ssd_cache.hits:miss == ssd_cache.hits:total",
            ),
        }
        status = {
            (inv["class"], inv["invariant"]): inv["status"]
            for inv in report["invariants"]
        }
        for key in required:
            assert status.get(key) == "verified", (key, status.get(key))

    def test_no_invariant_is_violated(self, report):
        summary = report["summary"]
        assert summary["invariants_violated"] == 0
        assert summary["invariants_declared"] == len(report["invariants"])

    def test_no_dead_latency_fields(self, report):
        assert report["dead_latency_fields"] == []

    def test_committed_costs_json_is_current(self, report):
        def relative(document):
            # The committed report was generated from the repo root with
            # a relative path; the fixture uses an absolute one.
            text = json.dumps(document, sort_keys=True)
            return text.replace(str(SRC.parent) + "/", "")

        committed = json.loads(
            (SRC.parent / "COSTS.json").read_text(encoding="utf-8")
        )
        assert relative(committed) == relative(report), (
            "COSTS.json is stale — regenerate with "
            "`python -m repro.analysis.simcost --report COSTS.json src/repro`"
        )
