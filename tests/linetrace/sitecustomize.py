"""A line tracer for src/canp, started in every interpreter that sets CANP_LINETRACE.

Python imports `sitecustomize` at start-up from its path. With this
directory on PYTHONPATH and CANP_LINETRACE naming a directory, each
interpreter records the lines of `src/canp` it runs and writes them, one
`path:line` a line, to `<CANP_LINETRACE>/<pid>.lines` at exit. The test
suite's `child_env` passes both on, so child interpreters are traced too.
Only the standard library's always-loaded modules are imported here, so a
traced run loads no module that an untraced one does not.
"""

import atexit
import os
import sys

_OUT = os.environ.get("CANP_LINETRACE")
_PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.realpath(
    __file__)))), "src", "canp", "")

if _OUT:
    _reached: set = set()

    def _line(frame, event, arg):
        if event == "line":
            _reached.add((frame.f_code.co_filename, frame.f_lineno))
        return _line

    def _call(frame, event, arg):
        # Trace lines only in the package's own frames.
        return _line if frame.f_code.co_filename.startswith(_PACKAGE) else None

    def _write():
        with open(os.path.join(_OUT, f"{os.getpid()}.lines"), "w") as out:
            out.writelines(f"{path}:{line}\n" for path, line in sorted(_reached))

    atexit.register(_write)
    sys.settrace(_call)
