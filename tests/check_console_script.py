"""Diff the ``gridecon`` console script on PATH against every golden file.

Each invocation of ``GOLDEN_INVOCATIONS`` and ``HIGH_CASE_INVOCATIONS`` in
``test_cli.py`` is run as ``gridecon <args>``, with no shell in between, and
its stdout must equal ``golden/<name>`` byte for byte, and it must write
nothing to stderr, so a warning that a dependency prints there fails the
check. Exits 1 on any difference, any stderr output, a non-zero exit or a
missing command. Usage, after
``pip install -e .``:

    python tests/check_console_script.py
"""

import difflib
import shlex
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

from test_cli import GOLDEN_DIR, GOLDEN_INVOCATIONS, HIGH_CASE_INVOCATIONS  # noqa: E402


def check(name: str, args: list[str]) -> bool:
    command = ["gridecon", *args]
    print(shlex.join(command), flush=True)
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    except FileNotFoundError:
        print("gridecon: command not found", file=sys.stderr)
        return False
    expected = (GOLDEN_DIR / name).read_bytes()
    if run.stdout == expected and run.returncode == 0 and not run.stderr:
        return True
    if run.returncode != 0:
        print(f"exit status {run.returncode}", file=sys.stderr)
    if run.stderr:
        print("stderr:", run.stderr.decode(errors="replace"), sep="\n", end="", file=sys.stderr)
    diff = difflib.unified_diff(
        expected.decode().splitlines(keepends=True),
        run.stdout.decode(errors="replace").splitlines(keepends=True),
        f"golden/{name}",
        "stdout",
    )
    sys.stderr.writelines(diff)
    return False


def main() -> int:
    invocations = {**GOLDEN_INVOCATIONS, **HIGH_CASE_INVOCATIONS}
    failed = [name for name, args in invocations.items() if not check(name, args)]
    if failed:
        print(f"{len(failed)} of {len(invocations)} failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
