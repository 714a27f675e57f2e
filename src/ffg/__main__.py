"""`python -m ffg`: the same command line as `ffg` (see `ffg.cli`)."""

import sys

from .cli import main

# importing the package's modules one by one (as the benchmark's tracer does)
# must not run the command line
if __name__ == "__main__":
    sys.exit(main())
