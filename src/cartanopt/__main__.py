"""``python -m cartanopt``: the command-line front end, runnable from a checkout."""

from .cli import main_entry

if __name__ == "__main__":
    main_entry()
