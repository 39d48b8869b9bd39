"""``python -m poolqueue``: the command-line front end, without an install."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
