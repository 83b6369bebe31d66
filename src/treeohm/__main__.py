"""`python -m treeohm`: the treeohm command line (treeohm.cli.main)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
