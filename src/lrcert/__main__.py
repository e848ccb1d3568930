"""``python -m lrcert``: the command line, also from a checkout without an
installed ``lrcert`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
