"""``python -m benchmarks.suite run|compare`` (see ``cli.py``)."""

import sys

from .cli import main

sys.exit(main())
