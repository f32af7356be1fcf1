"""python -m tricomi: the command line, as the tricomi console script runs it."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
