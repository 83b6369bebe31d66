"""Fixed calibration kernel that measures how fast the host runs right now.

On a shared host the speed a process gets drifts by tens of percent within
minutes, as neighbours load the same cores and memory.  Each workload
invocation runs this kernel right after its CLI calls, in the same process,
and the benchmark scales the invocation's times by REF_S / kernel time.  The
kernel mixes the kinds of work treeohm does (interpreter-bound object churn
and float formatting, per-call numpy overhead, large-array gathers and
reductions) and imports nothing from treeohm, so a change to the package
cannot move it.
"""

import time

import numpy as np

# kernel seconds that define the reference speed; a scaled time is the time
# the work would take on a host where kernel() takes REF_S
REF_S = 0.25


def kernel() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    rows = [(j, 4, j * 1.000001, 1.0 / (j + 1.5)) for j in range(20000)]
    text = "\n".join(",".join(format(v, ".17g") for v in row) for row in rows)
    table = {}
    for j in range(60000):
        table[j] = (j, float(j))
    for j in range(1500):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(7, spawn_key=(j,))))
        u = gen.random(15)
        scales = np.cumprod(np.concatenate(([1.0], np.full(3, 2.0))))
        u = 1.0 / (u[:8].reshape(-1, 2)[:, 0] * scales[1] + u[8:].sum())
    gen = np.random.Generator(np.random.PCG64(1))
    order = gen.permutation(1 << 18)
    for _ in range(6):
        w = gen.random(1 << 18)[order]
        cond = (1.0 / w).reshape(-1, 2)
        csum = cond[:, 0] + cond[:, 1]
    del text, table, u, csum
    return time.perf_counter() - t0
