"""``python -m cflsep``: the same front-end as the ``cflsep`` command."""

import sys

from .cli import main

sys.exit(main())
