"""Host-speed reference: a fixed pure-Python kernel timed next to every op.

On a shared VM the speed of the whole host drifts by tens of percent
within seconds.  The kernel below does a fixed amount of work in the
decoder's style (GF(16) log/antilog arithmetic, dicts keyed by monomial
tuples, short lists) and imports nothing from agbms, so its time tracks
the host and not the program.  Timings are rescaled to a host on which
the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import time

REFERENCE_S = 75e-6  # kernel time that defines the reporting scale
RUNS = 3  # kernel runs per speed reading

_EXP = [0] * 15
_LOG = [-1] * 16
_v = 1
for _k in range(15):
    _EXP[_k], _LOG[_v] = _v, _k
    _v <<= 1
    if _v & 16:
        _v ^= 0b10011
_POINTS = [(k % 15, (7 * k + 3) % 15) for k in range(24)]


def kernel() -> int:
    table = {}
    for n1 in range(6):
        for n2 in range(4):
            table[(n1, n2)] = [(n1 * x + n2 * y) % 15 for x, y in _POINTS]
    acc = -1
    for row in table.values():
        for v in row:
            if acc == -1:
                acc = v
            else:
                s = _EXP[acc] ^ _EXP[v]
                acc = _LOG[s] if s else -1
    return acc


def scale() -> float:
    """Factor that turns a time measured right now into reference-host
    time: REFERENCE_S over the fastest of a few kernel runs (the fastest,
    because one run can itself be hit by an interrupt or a cold cache)."""
    best = float("inf")
    for _ in range(RUNS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return REFERENCE_S / best
