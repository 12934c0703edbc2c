"""Entry point of `python -m jscc` and the `jscc` script.

OpenBLAS is pinned to one thread per process before numpy is imported:
with --workers above 1 every process runs its own BLAS calls, and threads
on top of them would oversubscribe the cores.  A thread count already set
in the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (after the pin)

if __name__ == "__main__":
    raise SystemExit(main())
