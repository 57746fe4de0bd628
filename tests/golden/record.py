"""Rewrite the golden files from the examples that ``tests/test_golden.py`` lists.

Run from the root of a gridsde checkout at the commit whose outputs are the
reference (``python3 tests/golden/record.py``).  Each file's example runs
in a temporary directory; a JSON report is stored without ``config.out``
(the output directory), a CSV as written.  Only files whose text changed
are rewritten, and each is printed, so a change that alters an output by
design reruns this and names those files in its change notes.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]
from gridsde.cli import main as gridsde_main  # noqa: E402
from test_golden import EXAMPLES, GOLDEN, stored  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in EXAMPLES.items():
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                rc = gridsde_main([*argv, "--out", str(out)])
            if rc != 0:
                print(f"{' '.join(argv)}: exit code {rc}", file=sys.stderr)
                return 1
            text, golden = stored(out / name), GOLDEN / name
            if not golden.exists() or golden.read_text() != text:
                golden.write_text(text)
                print(f"rewrote {golden}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
