"""``python -m benchmarks.system run | compare A.json B.json``."""

import sys

from benchmarks.system.run import entry

sys.exit(entry())
