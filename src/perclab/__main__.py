"""``python -m perclab``: the command-line front end."""

import sys

from perclab.cli import main

if __name__ == "__main__":
    sys.exit(main())
