"""``python -m repro.analysis.simrace <paths>``: the simrace command line."""

from repro.analysis.analyze import cli

if __name__ == "__main__":
    cli("simrace")
