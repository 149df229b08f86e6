"""``python -m robustphase``: the ``robust-phase`` command line tool."""

from .harness import main

if __name__ == "__main__":
    main()
