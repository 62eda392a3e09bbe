"""Fixed workloads that gauge the host's speed.

The benchmark divides each cell's latencies by its gauge loop's time in the
same run, and its set-up time by reference_loop's time in the same fresh
process: on a shared host the whole machine's speed moves by 20-30% over
seconds and minutes, and the ratio cancels most of that. The host's phases
slow interpreter work far more than long big-int division in C, so a cell
whose work is the latter names division_loop as its gauge instead. Neither
imports anything from pairbij, so no change to the library moves them.
"""

# Set-up time is reported in seconds on a nominal host where one
# reference_loop() call takes this long.
NOMINAL_REF_S = 0.0005


def reference_loop():
    """Big-int shifts and list appends, about 0.4-0.6 ms of interpreter work."""
    x = 1 << 200
    bits = []
    for i in range(3000):
        bits.append(x >> (i % 200) & 1)
    return bits


_DIVIDEND = 7**6000 * 3


def division_loop():
    """Repeated division of a 17k-bit integer by 7, about 0.4-0.5 ms of big-int work."""
    x = _DIVIDEND
    for _ in range(100):
        x //= 7
    return x


# The loops a workload's Op can name as its gauge.
GAUGES = {"interp": reference_loop, "division": division_loop}
