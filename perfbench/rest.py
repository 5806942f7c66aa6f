"""Times at rest: measured times scaled to the reference machine with nothing
else running.

The benchmark's machine is shared.  For fractions of a second up to minutes
at a time it runs everything up to twice as slow, so one run can read half
again another's time for the same work.  The benchmark therefore runs a fixed
piece of pure-Python work, the reference loop, just before and just after
every timed piece of work (an item, a round, a set-up step), and reports that
work's time scaled by REF_S over the mean of the two loops.  The drift that
slows the loop and the work alike cancels; a change in tamemod's own speed
does not touch the loop and shows whole.
"""

from __future__ import annotations

import time

# The reference loop's time on the reference machine with nothing else
# running: about its best over 3000 runs.
REF_S = 0.0009


def reference_loop() -> float:
    """Time of a fixed piece of work that does not touch tamemod: dict
    updates and integer arithmetic, the interpreter work the kernel does."""
    t0 = time.perf_counter()
    d, s = {}, 0
    for i in range(5000):
        k = i * 7919 % 1009
        d[k] = d.get(k, 0) + i * i
        s += d[k] % 13
    return time.perf_counter() - t0


def at_rest(seconds: float, ref_s: float) -> float:
    """A time measured while the reference loop took `ref_s`, scaled to the
    reference machine at rest."""
    return seconds * REF_S / ref_s
