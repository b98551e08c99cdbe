"""Tests for the command-line entry point."""

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert "fig8" in out
    assert "table2" in out
    assert "ablations" in out


def test_every_listed_experiment_is_callable():
    for name, runner in EXPERIMENTS.items():
        assert callable(runner), name


def test_run_table2(capsys):
    assert main(["run", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "4.80" in out


def test_run_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["run", "fig99"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_all_writes_file(tmp_path, monkeypatch):
    # Patch the generator so the CLI path is tested without the full run.
    import repro.experiments.run_all as run_all

    monkeypatch.setattr(run_all, "generate", lambda: "# stub results\n")
    target = tmp_path / "out.md"
    assert main(["all", str(target)]) == 0
    assert target.read_text() == "# stub results\n"


def test_analyze_help_names_every_tool(capsys):
    from repro.analysis.analyze import TOOLS

    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    analyze_help = " ".join(out[out.index("    analyze") : out.index("    faults")].split())
    for tool in TOOLS:
        assert tool.name in analyze_help, tool.name
