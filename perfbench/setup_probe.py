"""Set-up time of a fresh interpreter: import the CLI and load the configs.

    python3 perfbench/setup_probe.py SRC_DIR [CONFIG.yaml ...]

Only `sys` and `time` are imported before the timer starts, so every module
the CLI pulls in is inside the measurement.  Prints {"setup_s": ...}.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import confocal.cli  # noqa: E402

for path in sys.argv[2:]:
    confocal.cli.load_config(path)
setup_s = time.perf_counter() - t0
print('{"setup_s": %r}' % setup_s)
