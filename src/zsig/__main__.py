"""``python -m zsig`` and the ``zsig`` script: the command line of ``zsig.cli``."""

import sys


def entry() -> None:
    """Run the command line.  ``zsig.cli`` is imported inside the ``try``, so
    a Ctrl-C while its modules load exits 130 with one line, as one during a
    command does."""
    try:
        from .cli import main

        code = main()
    except KeyboardInterrupt:
        import signal

        # With SIGINT blocked a second Ctrl-C cannot break the exit, and it
        # stays 130 where CPython would end the process by SIGINT: under
        # python -m it does so once a KeyboardInterrupt has passed through
        # code that eval() ran, such as the __new__ namedtuple builds per record.
        if hasattr(signal, "pthread_sigmask"):
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        print("interrupted", file=sys.stderr)
        code = 130
    sys.exit(code)


if __name__ == "__main__":
    entry()
