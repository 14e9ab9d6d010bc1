"""``python -m melnlab``: the ``melnlab`` command-line interface."""

import sys

from .cli import main

sys.exit(main())
