"""``python -m repro.analysis.simeffect <paths>``: the simeffect command line."""

from repro.analysis.analyze import cli

if __name__ == "__main__":
    cli("simeffect")
