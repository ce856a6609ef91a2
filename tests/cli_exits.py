"""Drive the CLI in-process over the power ratings it must refuse, with
the standard library and vnfplace alone, so that an interpreter without
pytest can run it:

    PYTHONPATH=src python tests/cli_exits.py

Prints one "<case> <exit code> <stderr holds a traceback>" line per case
of helpers.BAD_POWER_RATINGS. test_interpreters.py runs it under every
other interpreter it finds and expects "2 False" for each.
"""

import contextlib
import io
import traceback

from helpers import BAD_POWER_RATINGS
from vnfplace import cli


def main():
    for name, argv in BAD_POWER_RATINGS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(["run", *argv])
            except SystemExit as exc:
                code = exc.code
            except Exception:       # what the interpreter would print
                traceback.print_exc()
                code = 1
        print(name, code, "Traceback" in err.getvalue())


if __name__ == "__main__":
    main()
