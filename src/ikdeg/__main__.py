"""`python -m ikdeg`: the same entry point as the `ikdeg` command."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
