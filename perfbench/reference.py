"""Fixed reference tasks that measure how fast the machine is right now.

On a shared machine the speed of a core drifts by tens of percent within
minutes.  The benchmark times a reference task next to every request and
scales the request's time by NOMINAL / (reference time), that is, to a
machine on which the reference takes its nominal time.  The reference
involves no kzbraid code, so a change to the program cannot move it.

- In-process requests: `kernel`, a Python loop over small complex numpy
  arrays (the shape of the transport's inner loop), timed in the worker
  right before the request.
- Fresh-process requests and set-up: `COLD_COMMAND`, a new interpreter that
  imports numpy and runs a short Python loop, timed from spawn to exit.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_NOMINAL_S = 0.01
COLD_NOMINAL_S = 0.2
COLD_CODE = "import numpy\ns = 0\nfor i in range(50000):\n    s += i * i\n"
WINDOW = 2  # references on each side that the rolling median takes in


def kernel():
    """About 10 ms of small-array numpy work driven from Python."""
    state = np.zeros(64, dtype=complex)
    state[0] = 1.0
    source = np.arange(63)
    pairs = np.arange(6)
    for step in range(1000):
        omega = np.exp(1j * (step / 1000.0) * pairs)
        out = np.zeros_like(state)
        out[1:] = omega[source % 6] * state[source]
        state = state + 1e-3 * out
    return state


def time_kernel():
    begin = time.perf_counter()
    kernel()
    return time.perf_counter() - begin


def scaled(seconds, references, nominal):
    """Each time times nominal over the rolling median of nearby references.

    references[k] was taken next to seconds[k]; the median over the
    2 * WINDOW + 1 references around k smooths the reference's own noise.
    """
    out = []
    for k, value in enumerate(seconds):
        nearby = references[max(0, k - WINDOW): k + WINDOW + 1]
        out.append(value * nominal / statistics.median(nearby))
    return out
