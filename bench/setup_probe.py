"""Set-up in a fresh interpreter: import qdleak from this checkout's src and
run one workload's warm-up operations.  run.py times this script from
spawn to exit for setup_s.

    python3 bench/setup_probe.py audit|dialogues|eavesdrop
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports qdleak)

workloads.warm_up(sys.argv[1])
