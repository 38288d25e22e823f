"""`python -m nccalc`: the nccalc command line, as the console script runs it."""

from .cli import main

if __name__ == "__main__":
    main()
