"""Run the command-line pipeline as ``python -m betaood``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
