"""Shared findings plumbing: baselines, stale suppressions, crash handling.

Covers the edge cases the per-tool suites don't: duplicate findings on
one line, findings that move between lines, baselines naming deleted
files, the ``SUP001`` stale-suppression audit, the umbrella runner's
exit-code contract when an analyzer crashes mid-run, and the runner's
promise to do each piece of work once per run.
"""

import argparse
import ast
import collections
import json
import pathlib
import subprocess
import sys

import pytest

from repro.analysis import analyze
from repro.analysis.findings import (
    ALL_CODES,
    UNUSED_SUPPRESSION_CODE,
    Violation,
    baseline_key,
    filter_baseline,
    load_baseline,
    parse_suppressions,
    strip_suppression_comments,
    unused_suppressions,
    write_baseline,
)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _violation(path="repro/sim/x.py", line=5, col=0, code="SL001", message="msg"):
    return Violation(path, line, col, code, message)


# --------------------------------------------------------------------- #
# Baseline edge cases
# --------------------------------------------------------------------- #


class TestBaselineEdgeCases:
    def test_duplicate_findings_on_one_line_share_one_key(self, tmp_path):
        """Two identical findings at the same site collapse to one baseline
        entry, and the baseline still filters both occurrences."""
        twins = [_violation(), _violation()]
        snapshot = tmp_path / "baseline.json"
        write_baseline(str(snapshot), "simlint", twins)
        keys = load_baseline(str(snapshot))
        assert keys == {baseline_key(twins[0])}
        assert filter_baseline(twins, keys) == []

    def test_moved_finding_stays_baselined(self, tmp_path):
        """Keys are (path, code, message): a finding that drifts to another
        line after an unrelated edit stays filtered."""
        snapshot = tmp_path / "baseline.json"
        write_baseline(str(snapshot), "simlint", [_violation(line=5)])
        keys = load_baseline(str(snapshot))
        assert filter_baseline([_violation(line=50)], keys) == []
        assert filter_baseline([_violation(line=50, col=7)], keys) == []

    def test_message_change_unbaselines_a_finding(self, tmp_path):
        snapshot = tmp_path / "baseline.json"
        write_baseline(str(snapshot), "simlint", [_violation(message="old")])
        keys = load_baseline(str(snapshot))
        fresh = _violation(message="new")
        assert filter_baseline([fresh], keys) == [fresh]

    def test_deleted_file_entries_are_harmless(self, tmp_path):
        """Baseline entries for files that no longer produce findings (or
        no longer exist) are simply never matched."""
        snapshot = tmp_path / "baseline.json"
        write_baseline(
            str(snapshot),
            "simlint",
            [_violation(path="repro/sim/deleted.py"), _violation()],
        )
        keys = load_baseline(str(snapshot))
        live = [_violation(), _violation(path="repro/sim/other.py", code="SL002")]
        remaining = filter_baseline(live, keys)
        assert remaining == [live[1]]

    def test_empty_baseline_document_filters_nothing(self, tmp_path):
        snapshot = tmp_path / "empty.json"
        snapshot.write_text(json.dumps({"tool": "simlint", "findings": []}))
        keys = load_baseline(str(snapshot))
        v = _violation()
        assert filter_baseline([v], keys) == [v]


# --------------------------------------------------------------------- #
# Suppression stripping + stale-suppression detection (SUP001)
# --------------------------------------------------------------------- #


class TestSuppressionAudit:
    def test_strip_preserves_line_numbers(self):
        source = "a = 1\nb = 2  # simlint: disable=SL001\nc = 3\n"
        stripped = strip_suppression_comments(source, "simlint")
        assert len(stripped.splitlines()) == 3
        assert parse_suppressions(stripped.splitlines(), "simlint") == {}
        # the non-marker part of the line is intact
        assert stripped.splitlines()[1].startswith("b = 2  #")

    def test_strip_only_touches_the_named_tool(self):
        source = "x = 1  # simflow: disable=SF001\n"
        assert strip_suppression_comments(source, "simlint") == source.rstrip("\n")

    def test_stale_blanket_marker_is_flagged(self):
        lines = ["x = 1  # simlint: disable"]
        stale = unused_suppressions("p.py", lines, "simlint", [])
        assert [v.code for v in stale] == [UNUSED_SUPPRESSION_CODE]
        assert "no simlint finding" in stale[0].message

    def test_used_blanket_marker_is_quiet(self):
        lines = ["x = 1  # simlint: disable"]
        raw = [_violation(path="p.py", line=1)]
        assert unused_suppressions("p.py", lines, "simlint", raw) == []

    def test_partially_stale_code_list(self):
        lines = ["x = 1  # simlint: disable=SL001,SL009"]
        raw = [_violation(path="p.py", line=1, code="SL001")]
        stale = unused_suppressions("p.py", lines, "simlint", raw)
        assert len(stale) == 1
        assert "SL009" in stale[0].message
        assert "SL001" not in stale[0].message

    def test_findings_from_other_files_do_not_count(self):
        lines = ["x = 1  # simlint: disable=SL001"]
        raw = [_violation(path="other.py", line=1, code="SL001")]
        stale = unused_suppressions("p.py", lines, "simlint", raw)
        assert [v.code for v in stale] == [UNUSED_SUPPRESSION_CODE]

    def test_all_codes_marker_constant(self):
        table = parse_suppressions(["y = 2  # simrace: disable"], "simrace")
        assert table == {1: {ALL_CODES}}


# --------------------------------------------------------------------- #
# Umbrella: --check-suppressions end to end
# --------------------------------------------------------------------- #


def _run_analyze(args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.analyze", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(SRC)},
    )


class TestCheckSuppressionsCLI:
    def test_stale_marker_fails_the_run(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "stale.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def fine(a, b):\n"
            "    return a + b  # simlint: disable=SL003\n"
        )
        result = _run_analyze(["--check-suppressions", "repro"], tmp_path)
        assert result.returncode == 1
        assert "SUP001" in result.stdout
        assert "[simlint]" in result.stdout

    def test_used_marker_passes(self, tmp_path):
        # SL004: _us-suffixed timing name in sim scope — really fires here,
        # so its suppression is *used* and the audit stays quiet.
        used = tmp_path / "repro" / "sim" / "used.py"
        used.parent.mkdir(parents=True)
        used.write_text(
            "def cost(latency_ns):\n"
            "    latency_us = latency_ns // 1000  # simlint: disable=SL004\n"
            "    return latency_us\n"
        )
        plain = _run_analyze(["repro"], tmp_path)
        assert plain.returncode == 0, plain.stdout + plain.stderr
        audited = _run_analyze(["--check-suppressions", "repro"], tmp_path)
        assert audited.returncode == 0, audited.stdout + audited.stderr

    def test_repo_tree_has_no_stale_suppressions(self):
        stale, crashes = analyze.check_suppressions([str(SRC / "repro")])
        assert crashes == []
        assert stale == [], "\n".join(v.format() for v in stale)


# --------------------------------------------------------------------- #
# Crash handling: a crashing analyzer must not look like a clean pass
# --------------------------------------------------------------------- #


def _boom(path):
    raise RuntimeError("boom")


class TestCrashHandling:
    @pytest.fixture()
    def tree(self, tmp_path):
        good = tmp_path / "repro" / "sim" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text("def distance(a, b):\n    return a - b\n")
        return tmp_path

    def test_run_all_records_crashes(self, tree, monkeypatch):
        monkeypatch.setattr(
            analyze, "TOOLS", analyze.TOOLS + (("simboom", _boom),)
        )
        per_tool, files, crashes = analyze.run_all([str(tree / "repro")])
        assert files == 1
        assert len(crashes) == 1
        assert crashes[0].tool == "simboom"
        assert "RuntimeError: boom" in crashes[0].error
        # the other tools still report their (empty) results
        assert set(per_tool) == {
            "simlint", "simrace", "simflow", "simeffect", "simcost",
            "simbatch", "simboom",
        }

    def test_run_exits_2_on_crash(self, tree, monkeypatch, capsys):
        monkeypatch.setattr(
            analyze, "TOOLS", analyze.TOOLS + (("simboom", _boom),)
        )
        args = argparse.Namespace(
            paths=[str(tree / "repro")], json=False, check_suppressions=False,
            baseline=None, write_baseline=None,
        )
        assert analyze.run(args) == 2
        err = capsys.readouterr().err
        assert "CRASH" in err
        assert "NOT fully analyzed" in err

    def test_json_document_carries_crashes(self, tree, monkeypatch, capsys):
        monkeypatch.setattr(
            analyze, "TOOLS", analyze.TOOLS + (("simboom", _boom),)
        )
        args = argparse.Namespace(
            paths=[str(tree / "repro")], json=True, check_suppressions=False,
            baseline=None, write_baseline=None,
        )
        assert analyze.run(args) == 2
        payload = json.loads(capsys.readouterr().out)
        (crash,) = payload["crashes"]
        assert crash["tool"] == "simboom"
        assert "boom" in crash["error"]

    def test_clean_run_without_crashes_exits_0(self, tree):
        args = argparse.Namespace(
            paths=[str(tree / "repro")], json=False, check_suppressions=False,
            baseline=None, write_baseline=None,
        )
        assert analyze.run(args) == 0


# --------------------------------------------------------------------- #
# CLI edge cases shared by every analyzer family
# --------------------------------------------------------------------- #

#: (module, example rule code) for each analyzer CLI.
TOOL_CLIS = [
    ("simlint", "SL001"),
    ("simrace", "SR001"),
    ("simflow", "SF001"),
    ("simeffect", "SE001"),
    ("simcost", "SC001"),
    ("simbatch", "SB001"),
]


def _run_tool(tool, args, tmp_path):
    return subprocess.run(
        [sys.executable, "-m", f"repro.analysis.{tool}", *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(SRC)},
    )


class TestSharedCLIEdgeCases:
    """Every tool must agree on exit codes for degenerate inputs:

    * an empty target directory is a *clean pass* (0), not an error;
    * an unreadable input is exit 2 with a message on stderr — never a
      silent "clean";
    * an unknown ``--select`` code is a usage error (argparse's exit 2).
    """

    @pytest.mark.parametrize("tool,_code", TOOL_CLIS)
    def test_empty_directory_is_clean(self, tool, _code, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = _run_tool(tool, [str(empty)], tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "no Python files" in result.stderr

    @pytest.mark.parametrize("tool,_code", TOOL_CLIS)
    def test_unreadable_file_exits_2(self, tool, _code, tmp_path):
        # A directory named *.py: collected by the file walk, unreadable
        # as source.  (chmod tricks don't work when tests run as root.)
        target = tmp_path / "tree"
        (target / "trap.py").mkdir(parents=True)
        result = _run_tool(tool, [str(target)], tmp_path)
        assert result.returncode == 2, result.stdout + result.stderr
        assert result.stderr.strip() != ""

    @pytest.mark.parametrize("tool,_code", TOOL_CLIS)
    def test_invalid_utf8_exits_2(self, tool, _code, tmp_path):
        target = tmp_path / "tree"
        target.mkdir()
        (target / "bad.py").write_bytes(b"x = 1\n\xff\xfe\n")
        result = _run_tool(tool, [str(target)], tmp_path)
        assert result.returncode == 2, result.stdout + result.stderr
        assert result.stderr.strip() != ""

    @pytest.mark.parametrize("tool,code", TOOL_CLIS)
    def test_unknown_select_code_is_usage_error(self, tool, code, tmp_path):
        target = tmp_path / "tree"
        target.mkdir()
        (target / "ok.py").write_text("x = 1\n")
        result = _run_tool(tool, ["--select", "ZZ999", str(target)], tmp_path)
        assert result.returncode == 2
        assert "unknown rule code" in result.stderr

    @pytest.mark.parametrize("tool,code", TOOL_CLIS)
    def test_known_select_code_and_json_shape(self, tool, code, tmp_path):
        target = tmp_path / "tree"
        target.mkdir()
        (target / "ok.py").write_text("x = 1\n")
        result = _run_tool(tool, ["--select", code, "--json", str(target)], tmp_path)
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["tool"] == tool
        assert payload["count"] == 0
        assert payload["files_checked"] == 1
        assert payload["findings"] == []

    @pytest.mark.parametrize("tool", ["simeffect", "simcost", "simbatch"])
    def test_report_directory_is_usage_error(self, tool, tmp_path, monkeypatch, capsys):
        """``--report DIR`` would take the paths' place as the output FILE:
        a usage error before any file is read or analyzed."""
        target = tmp_path / "tree"
        target.mkdir()
        (target / "ok.py").write_text("x = 1\n")

        def no_analysis(*args, **kwargs):
            raise AssertionError("the analysis ran")

        monkeypatch.setattr(analyze, "iter_python_files", no_analysis)
        monkeypatch.setattr(analyze, "findings", no_analysis)
        with pytest.raises(SystemExit) as exit_info:
            analyze.main(["--report", str(target)], tool=tool)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--report takes the output FILE, not a directory" in err
        assert target.is_dir() and (target / "ok.py").read_text() == "x = 1\n"

    @pytest.mark.parametrize("tool,_code", TOOL_CLIS)
    def test_overlapping_paths_check_each_file_once(self, tool, _code, tmp_path):
        """A file reached through two path arguments is one file."""
        fixture = tmp_path / "repro" / "sim" / "x.py"
        fixture.parent.mkdir(parents=True)
        fixture.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        overlapping = ["repro", "repro/sim/x.py", "repro/sim"]
        result = _run_tool(tool, ["--json", *overlapping], tmp_path)
        payload = json.loads(result.stdout)
        assert payload["files_checked"] == 1
        if tool == "simlint":
            assert [f["code"] for f in payload["findings"]] == ["SL001"]
        text = _run_tool(tool, overlapping, tmp_path)
        assert "in 1 file(s)" in text.stdout or "1 file(s) clean" in text.stdout

    def test_overlapping_paths_in_the_umbrella(self, tmp_path):
        fixture = tmp_path / "repro" / "sim" / "x.py"
        fixture.parent.mkdir(parents=True)
        fixture.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        result = _run_analyze(["--json", "repro", "repro/sim/x.py"], tmp_path)
        payload = json.loads(result.stdout)
        assert payload["files_checked"] == 1
        assert [f["code"] for f in payload["findings"]] == ["SL001"]


# --------------------------------------------------------------------- #
# One run does each piece of work once
# --------------------------------------------------------------------- #


def test_one_parse_per_file_and_one_program_per_run(tmp_path):
    """The umbrella with --check-suppressions parses each file once and
    builds the whole-program model once for all six tools and the audit."""
    from repro.analysis.simeffect import model

    files = {
        "repro/sim/a.py": "def f(a, b):\n    return a + b  # simlint: disable=SL003\n",
        "repro/host/b.py": "def twice(items):\n    return [i * 2 for i in items]\n",
        "repro/c.py": "X = 1\n",
    }
    for name, source in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    spied = {model.build_program.__code__: "build", ast.parse.__code__: "parse"}
    calls = []

    def spy(frame, event, _arg):
        if event == "call" and frame.f_code in spied:
            local = frame.f_locals
            calls.append((spied[frame.f_code], local.get("filename"), local.get("mode")))

    sys.setprofile(spy)
    try:
        status = analyze.main(["--check-suppressions", str(tmp_path / "repro")])
    finally:
        sys.setprofile(None)
    assert status == 1  # the stale SL003 marker
    assert [call for call in calls if call[0] == "build"] == [("build", None, None)]
    parsed = collections.Counter(
        filename for kind, filename, mode in calls if kind == "parse" and mode == "exec"
    )
    assert parsed == {str(tmp_path / name): 1 for name in files}


def test_several_runs_in_one_process(tmp_path):
    """``python -m repro.analysis "CMD" ...`` runs each command line in turn
    and exits with the worst status; an unknown command is a usage error."""
    fixture = tmp_path / "repro" / "sim" / "x.py"
    fixture.parent.mkdir(parents=True)
    fixture.write_text("import time\n\ndef stamp():\n    return time.time()\n")

    def run(*commands):
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *commands],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={"PYTHONPATH": str(SRC)},
        )

    result = run("simrace repro", "simlint repro", "simcost --check-config repro")
    assert result.returncode == 1
    assert result.stdout.index("simrace: 1 file(s) clean") < result.stdout.index("SL001")
    assert "simcost: 1 file(s) clean" in result.stdout
    assert run("simrace repro").returncode == 0
    assert run("simlnt repro").returncode == 2
