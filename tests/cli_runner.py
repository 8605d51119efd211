"""Run the gridecon command line in-process and capture what it writes."""

import contextlib
import io
from dataclasses import dataclass

from gridecon.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int  # 1 when the program raised instead of exiting
    output: str  # stdout and stderr, in the order written
    exception: BaseException | None  # what the program raised, if it did


def invoke(args) -> Result:
    """``gridecon <args>``, as the console script runs it but in this process."""
    output = io.StringIO()
    exit_code, exception = 1, None
    with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
        try:
            exit_code = main.main(list(args), prog_name="gridecon", standalone_mode=False)
        except Exception as exc:  # a traceback in a real process: the tests assert it never happens
            exception = exc
    return Result(exit_code, output.getvalue(), exception)
