"""Set-up probe: how long a fresh interpreter takes to import ``mimo_recal``
and load one workload config.  Nothing else is imported before the clock
starts.

    python3 perfbench/probe.py CONFIG.json
"""

import sys
import time

t0 = time.perf_counter()
import mimo_recal.cli  # noqa: E402

mimo_recal.cli.load_config(sys.argv[1])
print(repr(time.perf_counter() - t0))
