"""`python -m ikdeg`: the same entry point as the `ikdeg` command."""

from .cli import run

if __name__ == "__main__":
    run()
