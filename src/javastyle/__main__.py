"""`python -m javastyle`: the same command line as the `javastyle` script."""

from .cli import run

if __name__ == "__main__":
    run()
