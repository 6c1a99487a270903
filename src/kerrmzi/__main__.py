"""``python -m kerrmzi``: the command-line front end of :mod:`kerrmzi.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
