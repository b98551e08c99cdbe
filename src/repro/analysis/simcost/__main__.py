"""``python -m repro.analysis.simcost <paths>``: the simcost command line."""

from repro.analysis.analyze import cli

if __name__ == "__main__":
    cli("simcost")
