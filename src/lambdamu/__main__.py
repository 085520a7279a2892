"""``python -m lambdamu``: the command line, as the lambdamu script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
