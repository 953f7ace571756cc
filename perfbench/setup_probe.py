"""Time one import in this fresh interpreter.

Usage: python3 perfbench/setup_probe.py sunharm|reference

``sunharm`` times ``import sunharm``.  ``reference`` times the import of a
fixed set of standard-library modules, the yardstick that ``run.py`` scales
the first by (see ``speed.REF_IMPORT_S``).  Prints the seconds taken.
"""

import sys
import time

t0 = time.perf_counter()
if sys.argv[1:] == ["sunharm"]:
    import sunharm  # noqa: F401
elif sys.argv[1:] == ["reference"]:
    import concurrent.futures  # noqa: F401
    import dataclasses  # noqa: F401
    import decimal  # noqa: F401
    import fractions  # noqa: F401
    import inspect  # noqa: F401
    import logging  # noqa: F401
    import multiprocessing  # noqa: F401
    import subprocess  # noqa: F401
else:
    sys.exit(__doc__)
print(time.perf_counter() - t0)
