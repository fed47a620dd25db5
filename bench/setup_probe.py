"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 setup_probe.py <src dir> <state file>...

Prints the seconds taken to import qsdbounds from <src dir> and load every
state file through ``qsdbounds.cli.parse_state_file``.
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from qsdbounds import cli  # noqa: E402

for path in sys.argv[2:]:
    cli.parse_state_file(path)
print(repr(time.perf_counter() - t0))
