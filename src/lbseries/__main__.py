"""``python -m lbseries <command> ...``: the command-line interface, runnable
from a checkout without an install."""

from .cli import main

if __name__ == "__main__":
    main()
