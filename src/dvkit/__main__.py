"""The ``dvkit`` command and ``python -m dvkit``.

BLAS and OpenMP read their thread counts once, when numpy loads, so this
entry sets them before it imports :mod:`dvkit.cli`.  dvkit's matrices are
small, and extra threads only add start-up time and contention; a value
the caller has set is kept.
"""

import os
import sys


def main(argv=None) -> int:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
