"""``python -m star_kge``: the ``star-kge`` command line, from a source
checkout as well as from an installed package."""

import sys

from .cli import main

sys.exit(main())
