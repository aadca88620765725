"""A fixed pure-Python loop that measures how fast the host runs just now.

It imports nothing, so that a fresh interpreter can time it before
``import beamkit`` without changing what that import costs.
"""

# REF_LOOPS iterations take about REF_S on a 2-vCPU Xeon
REF_LOOPS = 11000
REF_S = 1e-3


def reference_loop() -> int:
    s = 0
    for i in range(REF_LOOPS):
        s += i * i % 7
    return s
