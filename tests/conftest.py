"""Make the sim-suite equivalence helpers importable for targeted runs.

A full-repo pytest run puts every test directory on ``sys.path`` as it
collects it (rootdir insertion), but only once it reaches ``tests/sim``.
The zero-interference and streaming-replay suites, and a targeted run of
any directory, reuse ``tests/sim/equivalence_utils`` (its field-by-field
result assertions and its ``segmented`` trace wrapper) rather than
duplicating them.
"""

import sys
from pathlib import Path

_SIM_TESTS = Path(__file__).resolve().parent / "sim"
if str(_SIM_TESTS) not in sys.path:
    sys.path.insert(0, str(_SIM_TESTS))
