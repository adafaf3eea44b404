"""Host-speed factor: wall times scaled to a nominal speed of the host.

On a shared host the same pure-Python work runs up to about 30% slower for
stretches of tens of seconds, which is more than any bound a regression
check could use. The benchmark therefore runs a fixed reference kernel just
before each unit it times and multiplies the unit's wall time by
``NOMINAL_KERNEL_S / kernel time``: the result is the time the unit would
have taken had the host run the kernel in ``NOMINAL_KERNEL_S``.

The kernel is a first-affordable scan over ranked tuples, the loop shape of
the program's evaluator, on fixed data; it uses no rankprice code, so a
change to the program cannot change it. Its time follows the host's slow
and fast stretches more closely than heap, sorting or string kernels do.
"""

from __future__ import annotations

import random
import statistics
import time

# Kernel seconds that define the nominal host speed: about the kernel's
# time when the measuring host was not slowed down, so that scaled times
# stay close to wall times there.
NOMINAL_KERNEL_S = 0.005
KERNEL_REPEATS = 3

_DATA = random.Random(2405)
_BUDGETS = tuple(_DATA.randint(18, 66) for _ in range(60))
_RANKED = tuple(tuple(_DATA.sample(range(50), 25)) for _ in range(60))
_PRICES = tuple(tuple(_DATA.randint(18, 66) for _ in range(50)) for _ in range(360))


def reference_kernel() -> int:
    total = 0
    for prices in _PRICES:
        for budget, ranked in zip(_BUDGETS, _RANKED):
            for i in ranked:
                if prices[i] <= budget:
                    total += prices[i]
                    break
    return total


def factor() -> float:
    """``NOMINAL_KERNEL_S`` over the median of a few kernel timings made now."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return NOMINAL_KERNEL_S / statistics.median(times)
