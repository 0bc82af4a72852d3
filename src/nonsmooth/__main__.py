"""``python -m nonsmooth``: the command-line interface of :mod:`nonsmooth.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
