"""Time one set-up in a fresh process: import, benchmark spec, initial space.

python3 bench/setup_probe.py WORKLOAD   prints the seconds on its last line.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hbplate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

wl = WORKLOADS[sys.argv[1]]
wl.make_spec(hbplate)
wl.make_space(hbplate)
print("%.9f" % (time.perf_counter() - T0))
