"""`python -m flip754`: the same command line as the flip754 script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
