"""Per-analyzer wall-clock timing for the static-analysis family.

Two entry points share one measurement core:

* Under pytest-benchmark (``pytest benchmarks/bench_analyze.py
  --benchmark-only``) each analyzer is one benchmark case, so analysis
  cost shows up in the same report as the paper-shape experiments.
* As a script (``python benchmarks/bench_analyze.py --output
  BENCH_analyze.json``) it times every analyzer once and writes a small
  JSON document — the artifact CI uploads so analyzer-cost regressions
  are visible per commit.  ``--check BASELINE`` additionally compares
  the fresh timings against a committed baseline document and fails
  (exit 1) when any analyzer has slowed by more than 2x, with a small
  absolute noise floor so sub-50 ms analyzers can't trip the guard on
  scheduler jitter.

simeffect, simcost and simbatch are whole-program (one call-graph
fixpoint over the tree); the other three are per-file.  Each row runs
one tool on its own (its own parse and Program), except ``analyze``:
the umbrella with ``--check-suppressions``, all six tools and the
stale-suppression audit over one parse and one Program.  All are timed
over ``src/repro``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

ANALYZE_PATHS = [str(SRC / "repro")]


def _simlint() -> int:
    from repro.analysis.simlint import lint_paths

    return len(lint_paths(ANALYZE_PATHS))


def _simrace() -> int:
    from repro.analysis.simrace import analyze_paths

    return len(analyze_paths(ANALYZE_PATHS))


def _simflow() -> int:
    from repro.analysis.simflow import analyze_paths

    return len(analyze_paths(ANALYZE_PATHS))


def _simeffect() -> int:
    from repro.analysis.simeffect import analyze_paths

    return len(analyze_paths(ANALYZE_PATHS))


def _simeffect_report() -> int:
    from repro.analysis.simeffect import report_for_paths

    report = report_for_paths(ANALYZE_PATHS)
    return int(report["summary"]["annotated"])


def _simcost() -> int:
    from repro.analysis.simcost import analyze_paths

    return len(analyze_paths(ANALYZE_PATHS))


def _simcost_report() -> int:
    from repro.analysis.simcost import report_for_paths

    report = report_for_paths(ANALYZE_PATHS)
    return int(report["summary"]["entry_points"])


def _simbatch() -> int:
    from repro.analysis.simbatch import analyze_paths

    return len(analyze_paths(ANALYZE_PATHS))


def _simbatch_report() -> int:
    from repro.analysis.simbatch import report_for_paths

    report = report_for_paths(ANALYZE_PATHS)
    return int(report["summary"]["loops"])


def _analyze() -> int:
    from repro.analysis.analyze import run_all

    per_tool, _files, crashes = run_all(ANALYZE_PATHS, check_suppressions=True)
    assert not crashes, crashes
    return sum(len(violations) for violations in per_tool.values())


ANALYZERS: Tuple[Tuple[str, Callable[[], int]], ...] = (
    ("simlint", _simlint),
    ("simrace", _simrace),
    ("simflow", _simflow),
    ("simeffect", _simeffect),
    ("simeffect_report", _simeffect_report),
    ("simcost", _simcost),
    ("simcost_report", _simcost_report),
    ("simbatch", _simbatch),
    ("simbatch_report", _simbatch_report),
    ("analyze", _analyze),
)

#: Per-analyzer slowdown budget for ``--check`` (new > 2x old fails).
SLOWDOWN_LIMIT = 2.0

#: Baseline times are clamped up to this before comparing, so an
#: analyzer that took 10 ms on the baseline machine can't fail CI by
#: taking 30 ms on a noisier one.
NOISE_FLOOR_SECONDS = 0.05


def time_analyzers() -> Dict[str, Dict[str, float]]:
    """Run every analyzer once; returns {name: {seconds, result}}."""
    timings: Dict[str, Dict[str, float]] = {}
    for name, run in ANALYZERS:
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        timings[name] = {"seconds": round(elapsed, 4), "result": result}
    return timings


# --------------------------------------------------------------------------
# pytest-benchmark cases
# --------------------------------------------------------------------------


def test_bench_simlint(once):
    assert once(_simlint) == 0


def test_bench_simrace(once):
    assert once(_simrace) == 0


def test_bench_simflow(once):
    assert once(_simflow) == 0


def test_bench_simeffect(once):
    assert once(_simeffect) == 0


def test_bench_simeffect_report(once):
    assert once(_simeffect_report) > 0


def test_bench_simcost(once):
    assert once(_simcost) == 0


def test_bench_simcost_report(once):
    assert once(_simcost_report) > 0


def test_bench_simbatch(once):
    assert once(_simbatch) == 0


def test_bench_simbatch_report(once):
    assert once(_simbatch_report) > 0


def test_bench_analyze(once):
    assert once(_analyze) == 0


# --------------------------------------------------------------------------
# Script mode: write BENCH_analyze.json for the CI artifact
# --------------------------------------------------------------------------


def check_regressions(
    timings: Dict[str, Dict[str, float]], baseline: Dict[str, object]
) -> List[str]:
    """Analyzers that slowed past ``SLOWDOWN_LIMIT`` vs ``baseline``.

    Analyzers absent from the baseline (newly added) are skipped — the
    baseline must be regenerated to start guarding them.
    """
    failures: List[str] = []
    old_timings = baseline.get("analyzers", {})
    for name, timing in timings.items():
        old = old_timings.get(name)
        if not isinstance(old, dict) or "seconds" not in old:
            continue
        budget = max(float(old["seconds"]), NOISE_FLOOR_SECONDS) * SLOWDOWN_LIMIT
        if timing["seconds"] > budget:
            failures.append(
                f"{name}: {timing['seconds']:.3f}s > {budget:.3f}s "
                f"(baseline {float(old['seconds']):.3f}s x {SLOWDOWN_LIMIT:g})"
            )
    return failures


def main(argv: List[str]) -> int:
    output = "BENCH_analyze.json"
    if "--output" in argv:
        output = argv[argv.index("--output") + 1]
    check_path = None
    if "--check" in argv:
        check_path = argv[argv.index("--check") + 1]
    timings = time_analyzers()
    document = {
        "schema_version": 1,
        "paths": ["src/repro"],
        "analyzers": timings,
        "total_seconds": round(sum(t["seconds"] for t in timings.values()), 4),
    }
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for name, timing in timings.items():
        print(f"{name:>18}: {timing['seconds']:8.3f}s (result={timing['result']})")
    print(f"wrote {output}")
    if check_path is not None:
        with open(check_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        failures = check_regressions(timings, baseline)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION {failure}", file=sys.stderr)
            return 1
        print(f"no analyzer slower than {SLOWDOWN_LIMIT:g}x the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
