"""Set-up probe: import everything an ionvib CLI call needs, then print the monotonic clock.

``run.py`` starts this file as a fresh process and subtracts the time it
started it, so one sample covers interpreter start, the numpy/scipy/ionvib
imports and the lazy pulse-duration calibration.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ionvib import cli, pulses  # noqa: E402,F401  (cli imports every layer)

pulses.default_duration_calibration()
print(repr(time.monotonic()))
