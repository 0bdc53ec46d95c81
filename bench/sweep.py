"""Time one b_star call at a given n under an address-space cap; print one JSON line.

run.py starts one of these per n. The cap is set on this process only
(resource.RLIMIT_AS, the address space after imports plus BUDGET_MB), so a
size whose tensors do not fit ends in a MemoryError reported here, not in
the machine running out of memory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

import numpy as np

from dtameta import Dataset, Study, Sym2, b_star

BUDGET_MB = 1536  # address space allowed beyond the imports
MIN_SECONDS = 0.3  # small sizes repeat until this much time has passed, up to 50 calls


def address_space_bytes() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmSize not found in /proc/self/status")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, required=True)
    args = ap.parse_args()

    rng = np.random.default_rng(args.n)
    s = 0.02 + 0.3 * rng.random((args.n, 2))
    y = rng.standard_normal((args.n, 2))
    data = Dataset(Study(y[i, 0], y[i, 1], s[i, 0], s[i, 1]) for i in range(args.n))
    sigma = Sym2(0.3, 0.05, 0.25)

    cap = address_space_bytes() + BUDGET_MB * 2**20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    times, status = [], "ok"
    start = time.perf_counter()
    try:
        while not times or (time.perf_counter() - start < MIN_SECONDS and len(times) < 50):
            t0 = time.perf_counter()
            b_star(data, sigma)
            times.append(time.perf_counter() - t0)
    except MemoryError:
        status = "MemoryError"
    ms = 1e3 * (statistics.median(times) if times else time.perf_counter() - start)
    print(json.dumps({
        "n": args.n,
        "status": status,
        "ms": ms,
        "calls": len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cap_mb": cap / 2**20,
    }))


if __name__ == "__main__":
    main()
