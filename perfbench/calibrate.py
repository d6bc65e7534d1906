"""Speed probes that run inside each operation, to scale away machine speed.

On a shared host the same Maxwell operation can take from 3 to 6 s
depending on what other tenants run, in phases longer than one benchmark
run.  While an operation runs, a SIGALRM timer interrupts it every
``INTERVAL_S`` and runs ``probe``, a fixed piece of pure-Python work that
mimics jetvar's inner loops (tuple-keyed dicts, sorting, Fraction
arithmetic) and shares no code with jetvar.  The probes' time is taken out
of the operation's time, and the operation is scaled to a reference speed:
``net time * REFERENCE_S / typical(probe times)``.  Probes run during the
operation, so they see the same machine phases; a change to jetvar moves
the scaled time and a change of machine speed largely does not.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# Roughly one probe's wall seconds on the 2-vCPU Xeon guest (2.1 GHz) where
# the benchmark was defined; scaled times are seconds on a machine that runs
# a probe in exactly this long.
REFERENCE_S = 0.0009


def _polynomial(state: int, terms: int):
    poly = {}
    for _ in range(terms):
        mono = []
        for _ in range(3):
            state = (state * 1103515245 + 12345) % 2**31
            mono.append((state >> 8) % 12)
        state = (state * 1103515245 + 12345) % 2**31
        coeff = Fraction((state >> 8) % 19 - 9, (state >> 16) % 4 + 1)
        key = tuple(sorted(mono))
        poly[key] = poly.get(key, Fraction(0)) + coeff
    return poly, state


def probe() -> int:
    """The fixed work: one product of two sparse rational polynomials."""
    a, state = _polynomial(7, 10)
    b, _ = _polynomial(state, 10)
    product = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            key = tuple(sorted(ma + mb))
            product[key] = product.get(key, Fraction(0)) + ca * cb
    return len(product)


class Sampler:
    """Runs a probe every INTERVAL_S while active; `samples` holds (wall, CPU) seconds."""

    def __init__(self):
        self.samples = []
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        probe()
        self.samples.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def typical(times) -> float:
    """Harmonic mean of probe times.

    Probes are spread evenly over wall time, but an operation's time is
    spread over its work, and the machine gets through more work in its
    fast phases.  Weighting each probe by its speed gives the probe time per
    unit of work, which is the harmonic mean.
    """
    return statistics.harmonic_mean([t for t in times if t > 0])


def probe_samples(count: int):
    """(wall, CPU) seconds of `count` probes run back to back."""
    out = []
    for _ in range(count):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        probe()
        out.append((time.perf_counter() - wall0, time.process_time() - cpu0))
    return out
