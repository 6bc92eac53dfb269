"""Set-up probe: a fresh process imports troplag and writes one workload's
inputs.  It prints the wall-clock time at which it is ready to run jobs,
the seconds it spent in speed-sampling slices before then, and the host
speed the slices saw (see speed.py).

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR
"""

import os
import sys
import time

import speed

if __name__ == "__main__":
    sampler = speed.Sampler()
    sampler.start()
    import workloads
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    ready_at = time.perf_counter()
    ready = time.time()
    sampler.stop()
    print(repr(ready), repr(sampler.busy(float("-inf"), ready_at)), repr(sampler.speed()))
