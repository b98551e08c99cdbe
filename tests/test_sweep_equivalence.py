"""Serial/parallel equivalence: the tentpole guarantee of the sweep.

One full sweep runs inline (``jobs=1``) and one across a spawn-based
process pool (``jobs=2``); every cell must produce identical rows,
sections, and metrics, and the assembled EXPERIMENTS.md must be
byte-identical.  The pool deliberately uses the *spawn* start method, so
workers re-import the simulator under fresh hash seeds — any
hash-order-dependent rendering shows up here as a byte diff.

The two sweeps dominate the suite's runtime, so they are module-scoped
fixtures computed once, with the (orthogonal, separately tested)
sanitizer and domain-tag instrumentation switched off.
"""

import pytest

from repro.experiments import run_all
from repro.sim import domain_tags, sanitizers
from repro.sweep.document import HEADER, assemble, document_cells
from repro.sweep.engine import run_sweep
from repro.sweep.model import result_hash
from repro.sweep.registry import default_registry

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def _plain_simulators():
    """Run the sweeps without shadow instrumentation (it is orthogonal to
    scheduling and roughly doubles two already-full experiment runs)."""
    previous_sanitizers = sanitizers.set_default_enabled(False)
    previous_tags = domain_tags.set_enabled(False)
    yield
    sanitizers.set_default_enabled(previous_sanitizers)
    domain_tags.set_enabled(previous_tags)


@pytest.fixture(scope="module")
def serial_report(_plain_simulators):
    return run_sweep(jobs=1)


@pytest.fixture(scope="module")
def pool_report(_plain_simulators):
    return run_sweep(jobs=2)


def test_every_cell_ran(serial_report, pool_report):
    names = [run.name for run in serial_report.runs]
    assert names == [run.name for run in pool_report.runs]
    assert names == default_registry().names()  # registration order, complete


@pytest.mark.parametrize("field", ["rows", "sections", "metrics"])
def test_cells_identical_inline_vs_pool(serial_report, pool_report, field):
    for name in serial_report.results:
        serial = getattr(serial_report.results[name], field)
        pooled = getattr(pool_report.results[name], field)
        assert serial == pooled, f"cell {name!r} diverged on {field}"


def test_result_hashes_identical(serial_report, pool_report):
    for name, result in serial_report.results.items():
        assert result_hash(result) == result_hash(pool_report.results[name])


def test_document_byte_identical(serial_report, pool_report):
    serial_doc = assemble(serial_report.results)
    pool_doc = assemble(pool_report.results)
    assert serial_doc == pool_doc
    assert serial_doc.startswith(HEADER)


def test_pool_runs_report_real_timings(pool_report):
    for run in pool_report.runs:
        assert not run.cached
        assert run.seconds > 0.0


def test_generate_matches_assembled_document(serial_report, monkeypatch):
    """``run_all.generate`` is a thin client of the same sweep + assembly."""
    # generate() imports run_sweep lazily, so patch it at the engine.
    monkeypatch.setattr("repro.sweep.engine.run_sweep", lambda jobs, cache: serial_report)
    assert run_all.generate() == assemble(serial_report.results)


def test_document_needs_every_cell(serial_report):
    partial = dict(serial_report.results)
    del partial[document_cells()[0]]
    with pytest.raises(KeyError):
        assemble(partial)


@pytest.fixture(scope="module")
def scalar_sweep(_plain_simulators):
    """The same full sweep with the replay engine forced off everywhere,
    and how many rows its replays fused and delegated (a spy on the
    interpreter's two row loops)."""
    import importlib

    from repro.config import set_engine_default

    replay_module = importlib.import_module("repro.engine.replay")
    rows = {"fused": 0, "delegated": 0}
    real_fused = replay_module._replay_fused
    real_scalar = replay_module._replay_scalar

    def fused(system, trace_rows, latencies):
        count = real_fused(system, trace_rows, latencies)
        rows["fused"] += count
        return count

    def scalar(system, trace_rows, latencies):
        real_scalar(system, trace_rows, latencies)
        rows["delegated"] += len(trace_rows)

    previous = set_engine_default(False)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(replay_module, "_replay_fused", fused)
            patch.setattr(replay_module, "_replay_scalar", scalar)
            return run_sweep(jobs=1), rows
    finally:
        set_engine_default(previous)


@pytest.fixture(scope="module")
def scalar_report(scalar_sweep):
    return scalar_sweep[0]


def test_scalar_sweep_fuses_no_row(scalar_sweep):
    """Engine off, the trace-driven cells still replay their compiled
    streams, and no row of them is fused."""
    _report, rows = scalar_sweep
    assert rows["fused"] == 0
    assert rows["delegated"] > 0


def test_sweeps_run_with_engine_enabled():
    """The serial/pool sweeps above exercise the engine-on configuration."""
    from repro.config import engine_default_enabled

    assert engine_default_enabled()


def test_engine_vs_scalar_cells_identical(serial_report, scalar_report):
    """Engine replay must not change a single cell result anywhere."""
    for name in serial_report.results:
        scalar = scalar_report.results[name]
        engine = serial_report.results[name]
        assert engine.rows == scalar.rows, f"cell {name!r} diverged with engine on"
        assert result_hash(engine) == result_hash(scalar)


def test_engine_document_byte_identical_to_scalar(serial_report, scalar_report):
    assert assemble(serial_report.results) == assemble(scalar_report.results)


def test_engine_document_matches_seed_baseline(serial_report):
    """Zero faults + engine on reproduces the committed EXPERIMENTS.md
    bit-for-bit (the seed baseline predates the engine entirely)."""
    import pathlib

    committed = (
        pathlib.Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
    ).read_text()
    assert assemble(serial_report.results) == committed
