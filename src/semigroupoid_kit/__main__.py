"""``python -m semigroupoid_kit``: the same command line as ``semigroupoid-kit``."""

import sys

from .cli import main

sys.exit(main())
