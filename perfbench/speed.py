"""The host's current speed, measured alongside the program.

On a machine shared with other tenants the same Python code runs at
different speeds from one minute to the next: on the reference machine a
workload's wall time moved by up to 60% between iterations a few seconds
apart.  Times taken in one stretch cannot be compared with times taken in
another, so the benchmark also times a fixed yardstick of the same kind of
work while it measures, and scales each time to the speed at which the
yardstick takes its reference duration:

    time at reference speed = measured time * reference duration / yardstick time

The scaled time still grows one for one with the work the program does; what
it drops is the host's speed at that moment.  Two yardsticks are used:

* ``ref_loop``, exact rational arithmetic, for the workloads, and
* the import of a fixed set of standard-library modules
  (``setup_probe.py reference``) for ``import sunharm``, which is mostly
  module loading rather than arithmetic and does not follow the loop's speed.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from fractions import Fraction

#: Duration of ``ref_loop`` at the reference speed: about its median time on
#: a 2-vCPU Intel Xeon virtual machine under CPython 3.11, so that
#: scaled times there read close to raw ones.
REF_LOOP_S = 0.0006
#: Duration of ``setup_probe.py reference`` at the reference speed, its
#: median on the same machine.
REF_IMPORT_S = 0.024
SAMPLE_EVERY_S = 0.05


def ref_loop() -> float:
    """Seconds taken by a fixed loop of exact rational arithmetic, the kind
    of work the program does, written without any of the program's code.

    The garbage collector is off during the loop, so a collection of the
    program's heap, whose cost grows with that heap, never lands in it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        x, y, acc = Fraction(3, 7), Fraction(5, 11), Fraction(0)
        for _ in range(100):
            acc = acc + x * y - y
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times ``ref_loop`` every ``SAMPLE_EVERY_S`` in a background thread
    while the ``with`` block runs, and once on entry and on exit.

    The samples cost about 1.5% of the block's time, the same on every run.
    """

    def __init__(self):
        self.loops: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.loops.append(ref_loop())

    def __enter__(self) -> "SpeedSampler":
        self.loops.append(ref_loop())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.loops.append(ref_loop())

    def scale(self) -> float:
        """Factor that turns a time measured in the block into a time at
        the reference speed.

        The mean, not the median, of the loop times: they cluster at a few
        levels and the median jumps between them.  Over five iterations of
        sweep-default, scaled by the median the wall time ranged over
        19.4-23.1 s, scaled by the mean over 20.5-21.3 s.
        """
        return REF_LOOP_S / statistics.mean(self.loops)
