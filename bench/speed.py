"""Machine speed, measured with a fixed piece of work.

On a shared machine the speed at which the same instructions run changes
by tens of percent within seconds and drifts over minutes.  The reference
loop is benchmark code that never changes, so its time measures that
speed.  The benchmark times it next to every op and scales the op's time
to the speed of the reference machine.  This module does not import the
program.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: median time of ``reference_loop`` on the reference machine (2-core VM,
#: Python 3.11.7), where it runs before every op of a benchmark run
REFERENCE_LOOP_S = 0.0080
#: an op's machine speed is the median reference-loop time of the op and
#: of this many ops on each side of it
SPEED_WINDOW = 2


def reference_loop() -> Fraction:
    """About 8 ms on the reference machine: a product of two dense
    polynomials with ``Fraction`` coefficients, the arithmetic the program
    spends most of its time in."""
    a = {i: Fraction(i + 1, 2 * i + 3) for i in range(40)}
    b = {i: Fraction(3 * i + 1, i + 5) for i in range(40)}
    product: dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            product[i + j] = product.get(i + j, 0) + x * y
    return sum(product.values())


def time_reference_loop() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def loop_time_after_import(repeats: int) -> float:
    """Median of ``repeats`` loop times; a set-up interpreter runs this
    after the timed import, so the import pays for nothing of it."""
    return statistics.median(time_reference_loop() for _ in range(repeats))


def scale_to_reference(records: list[dict]) -> None:
    """Add each op's time scaled to the reference machine speed: times
    ``REFERENCE_LOOP_S`` over the op's local reference-loop time, the
    median over the op and its ``SPEED_WINDOW`` neighbours on each side.
    A run-wide median would leave the speed changes within the run in the
    times."""
    loops = [r["reference_loop_s"] for r in records]
    for i, record in enumerate(records):
        local = statistics.median(loops[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1])
        record["scaled_seconds"] = record["seconds"] * REFERENCE_LOOP_S / local
