"""``python -m boundforge``: the same command line as the ``boundforge`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
