"""``python -m divaloha``: the same command line as the ``divaloha`` script."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
