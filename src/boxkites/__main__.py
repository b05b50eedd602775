"""``python -m boxkites``: the command line of ``boxkites.cli``."""

import sys

from .cli import main

sys.exit(main())
