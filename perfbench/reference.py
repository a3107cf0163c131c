"""A fixed reference kernel, timed next to every measured call.

The benchmark shares a few cores of a host with other work, and the host's
speed as this process sees it drifts by up to 1.6x over tens of seconds: the
same analyze call takes 0.6 s in one minute and 1.0 s in the next, in user
time, with the same page faults. Timing a fixed kernel right before and
right after each call and dividing by it cancels most of that drift, since
both see the same host. run.py reports times as the median of these ratios
times NOMINAL_S, about the kernel's fastest time on the 2-core Xeon box the
benchmark was tuned on (its median there was 0.063 s): seconds at that
machine's speed. NOMINAL_S is a fixed constant; changing it rescales every
reported time and breaks comparison with earlier runs.

The kernel mixes the two kinds of work toplag does: an interpreted Python
loop and short numpy vector operations, in about equal time.
"""

import time

import numpy as np

NOMINAL_S = 0.05

_VEC = np.random.default_rng(0).random(4000)


def kernel():
    x = 0
    for i in range(300_000):
        x += i * i
    a = _VEC
    for _ in range(3000):
        b = np.abs(a[1:] - a[:-1])
        x += float(np.minimum(b, a[1:]).sum())
    return x


def timed():
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
