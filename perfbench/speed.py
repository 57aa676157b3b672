"""How fast the machine is running right now, from a fixed piece of work.

On a shared host the speed of one core swings by up to 2x in phases that
last from seconds to minutes, and the phases hit every run differently.
The benchmark therefore times this kernel every ``EVERY_S`` seconds of its
loop and reports times at reference speed: a time measured while the kernel
took ``k`` seconds is scaled by ``REFERENCE_S / k``.  The kernel does the
kind of work spinwreath does (tuple-keyed dicts, ``Fraction`` sums, big-int
masks, JSON), so a contended phase slows both alike.  It shares no code
with spinwreath, so a change to the program cannot change the scale.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

# the kernel's time on an uncontended core; this only fixes the unit
REFERENCE_S = 0.005
EVERY_S = 0.1


def _kernel():
    table = {}
    for i in range(1000):
        table[(i % 37, i // 37)] = Fraction(i, 1 + i % 11)
    total = sum(table.values(), Fraction(0))
    mask = 0
    for i in range(2000):
        mask |= 1 << ((i * 7919) % 4096)
    text = json.dumps([list(key) for key in table])
    return total, bin(mask).count("1"), len(text)


def measure() -> float:
    """Seconds the kernel takes now."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started
