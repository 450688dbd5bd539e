"""The speed probe: a fixed reference computation that tracks machine speed.

The benchmark's host changes speed by up to 1.7x for minutes at a time,
and within seconds, and the program's wall time changes with it.  The
benchmark therefore also times this probe next to the program's work, and
reports the gated `wall_s` at a fixed reference speed:

    reference seconds = measured seconds * REF_PROBE_S / mean probe time

A query worker times the probe once between two blocks of queries.  A
check is one long call, so `Sampler` times a short slice of the probe every
`INTERVAL` seconds during it, from a timer signal, and the time spent in the
slices is taken out of the check's time.

The probe mixes what the program does per point: small numpy matrix
products and solves and Python complex arithmetic.  It uses no `hessgeo`
code, so a change of the program does not change the probe, and a program
that gets slower reads slower at any machine speed.
"""

import signal
import time

import numpy as np

# A typical probe time on the 2-core Xeon VM the bounds were set on, so that
# reference seconds read close to that machine's seconds.  Changing it
# rescales every gated time; it is a unit, not a setting.
REF_PROBE_S = 0.035
ROUNDS = 1500
WARM_ROUNDS = 20
SLICE_ROUNDS = 120  # one slice takes about 4 ms with its warm-up
INTERVAL = 0.2  # seconds between two slices during a check

_A = np.arange(9.0).reshape(3, 3) / 7.0 + np.eye(3)
_ONES = np.ones(3)


def _kernel(rounds):
    acc = 0.0
    for i in range(rounds):
        b = _A @ _A.T + i
        acc += float(np.trace(b)) * 1e-9
        z = [complex(j, 0.5) * 0.5 for j in range(12)]
        acc += abs(sum(z)) * 1e-9
        c = np.linalg.solve(_A + np.eye(3) * (i % 3), _ONES)
        acc += float(c[0])
    return acc


def probe(repeats=1):
    """Wall times of `repeats` runs of the reference computation."""
    _kernel(WARM_ROUNDS)  # first calls into numpy.linalg set up lazily
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _kernel(ROUNDS)
        times.append(time.perf_counter() - start)
    return times


class Sampler:
    """Times a slice of the probe every INTERVAL s while active.

    `probe_s` holds each slice's time scaled to a whole probe, and `spent`
    the seconds the slices took, to be taken out of the measured time.
    """

    def __init__(self):
        self.probe_s = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _kernel(WARM_ROUNDS)  # the program has just evicted the probe's code
        timed = time.perf_counter()
        _kernel(SLICE_ROUNDS)
        end = time.perf_counter()
        self.probe_s.append((end - timed) * ROUNDS / SLICE_ROUNDS)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        _kernel(WARM_ROUNDS)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
