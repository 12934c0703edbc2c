"""Entry point of `python -m jscc` and the `jscc` script: run().

OpenBLAS is pinned to one thread per process before numpy is imported:
with --workers above 1 every process runs its own BLAS calls, and threads
on top of them would oversubscribe the cores.  A thread count already set
in the environment is kept.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main, report_error  # noqa: E402  (after the pin)


def run():
    """Run cli.main, flush stdout and stderr, and end the process with its
    exit code, without tearing the interpreter down.

    By the time main returns, every output file is closed and any worker
    pool is shut down, so the skipped teardown would only free memory.  An
    exception that escapes main, and argparse's SystemExit (usage errors,
    --help), take Python's normal exit instead.  main flushes each stdout
    write itself and reports a failed one as exit 4, so a flush that fails
    here repeats a failure already reported, unless main returned 0.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError as exc:
            if code == 0 and stream is sys.stdout:
                report_error(f"i/o error: {exc}")
                code = 4
    os._exit(code)


if __name__ == "__main__":
    run()
