"""``python -m repro.analysis.simbatch <paths>``: the simbatch command line."""

from repro.analysis.analyze import cli

if __name__ == "__main__":
    cli("simbatch")
