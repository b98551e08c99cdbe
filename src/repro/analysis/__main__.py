"""``python -m repro.analysis "CMD" ["CMD" ...]``: several analyzer runs, one process.

Each CMD is one analyzer command line without its ``python -m
repro.analysis.`` prefix — ``analyze`` or a tool name, then that
command's arguments::

    python -m repro.analysis "analyze --check-suppressions src/" \\
        "simcost --check-config src/" "simbatch --check-opportunities src/"

The runs share one :class:`~repro.analysis.runner.Session`, so each file
is parsed once and the whole-program tools solve one Program for all of
them.  The exit status is the worst of the runs'.
"""

import shlex
import sys

from repro.analysis.analyze import TOOLS_BY_NAME, main
from repro.analysis.runner import Session


def run_commands(commands):
    runs = [shlex.split(command) for command in commands]
    names = ["analyze", *TOOLS_BY_NAME]
    if not runs or any(not run or run[0] not in names for run in runs):
        print(
            f"usage: python -m repro.analysis \"CMD\" [\"CMD\" ...], each CMD "
            f"one of {', '.join(names)} followed by its arguments",
            file=sys.stderr,
        )
        return 2
    session = Session()
    status = 0
    for name, *argv in runs:
        tool = None if name == "analyze" else name
        status = max(status, main(argv, tool=tool, session=session))
    return status


if __name__ == "__main__":
    sys.exit(run_commands(sys.argv[1:]))
