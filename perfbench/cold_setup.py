"""One cold set-up of a workload, in the fresh interpreter this script runs in.

    PYTHONPATH=src python3 perfbench/cold_setup.py WORKLOAD SEED SIZES_JSON

Times everything from the first import of numpy and hexplane, through
config, scene synthesis and model init, to the end of one warm-up
operation, and prints the seconds. run.py starts it several times and
reports the median as `setup_s`.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402  (imports numpy and hexplane)

name, seed, sizes = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
workloads.WORKLOADS[name](seed, workloads.Sizes(**sizes)).warm_up()
print(time.perf_counter() - t0)
