"""The process entry of the ``timed-plactic`` command and of ``python -m
timed_plactic``.

``run`` runs ``cli.main`` and exits with its code. Before it exits it
moves every object the process holds into the garbage collector's
permanent generation (``gc.freeze``), so the collections the interpreter
runs at exit skip them instead of visiting every object of every imported
module: a few milliseconds of a command that takes tens. The exit is an
ordinary ``sys.exit``: streams are still flushed and closed and ``atexit``
handlers still run. In-process callers (tests, the self-check) call
``cli.main`` and freeze nothing.
"""

import gc
import sys

from .cli import main


def run() -> None:
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
