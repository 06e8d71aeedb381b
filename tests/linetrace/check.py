"""Run the test suite under the line tracer and list the lines of src/canp it never reached.

    python tests/linetrace/check.py [pytest arguments]

An executable line is the first line of a statement that compiles to code.
The script exits 1 if a test fails, or if an executable line of `src/canp`
is neither reached, by the suite or by a child interpreter it starts, nor
listed in `allowlist.txt` beside this file (entries read `module.py:line`,
then `# why`). The traced suite takes about 2.3 times as long as the plain
one, so it runs as its own CI step, not as a test.
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PACKAGE = ROOT / "src" / "canp"


def executable_lines(path: Path) -> set[int]:
    """Statement start lines that carry bytecode (a docstring, say, carries none)."""
    source = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}
    codes, lines = [compile(source, str(path), "exec")], set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return starts & lines


def main(pytest_args: list[str]) -> int:
    with tempfile.TemporaryDirectory() as out:
        path = os.pathsep.join(filter(None, (str(HERE), str(ROOT / "src"),
                                             os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "CANP_LINETRACE": out, "PYTHONPATH": path}
        tests = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                *pytest_args], cwd=ROOT, env=env)
        reached = set()
        for lines in Path(out).glob("*.lines"):
            for entry in lines.read_text().splitlines():
                name, line = entry.rsplit(":", 1)
                reached.add((os.path.realpath(name), int(line)))
    allowed = {entry.split("#")[0].strip() for entry in (HERE / "allowlist.txt").read_text()
               .splitlines()} - {""}
    total, unreached = 0, []
    for module in sorted(PACKAGE.glob("*.py")):
        source = module.read_text().splitlines()
        for line in sorted(executable_lines(module)):
            total += 1
            if (os.path.realpath(module), line) not in reached:
                unreached.append((f"{module.name}:{line}", source[line - 1].strip()))
    print(f"src/canp: {total - len(unreached)} of {total} executable lines reached")
    for entry, text in unreached:
        print(f"{entry}: {'allowed' if entry in allowed else 'UNREACHED'}: {text}")
    return int(tests.returncode != 0 or any(entry not in allowed for entry, _ in unreached))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
