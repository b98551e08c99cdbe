"""``python -m repro.analysis.simflow <paths>``: the simflow command line."""

from repro.analysis.analyze import cli

if __name__ == "__main__":
    cli("simflow")
