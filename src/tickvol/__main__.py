"""`python -m tickvol` and the `tickvol` script: cli.main, a flush of stdout and stderr, and
os._exit, which skips the interpreter's teardown (sys.exit if a flush raises)."""

import os
import sys

from .cli import main


def _run():
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except (OSError, ValueError):  # a closed or failing stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    _run()
