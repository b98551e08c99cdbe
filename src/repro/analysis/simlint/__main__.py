"""``python -m repro.analysis.simlint <paths>``: the simlint command line."""

from repro.analysis.analyze import cli

if __name__ == "__main__":
    cli("simlint")
