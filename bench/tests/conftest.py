"""Make the program importable for harness unit tests (the harness runs
it with ``PYTHONPATH=src``)."""

import sys

from bench import spec

sys.path.insert(0, str(spec.ROOT / "src"))
