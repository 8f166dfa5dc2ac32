import os
import sys

from .cli import main


def run() -> int:
    """main() as a process: a reader that closes the pipe early, as
    `| head` does, ends the output with exit code 1 and no traceback."""
    try:
        code = main()
        sys.stdout.flush()  # a failed flush at exit would escape the handler
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
