"""``python -m zsig``: the same command line as the ``zsig`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
