"""List the statements of src/cvqkd that no command of tools/output_matrix.py executes.

Usage: python3 tools/unreached_lines.py [ROOT]

Runs each command of output_matrix.MATRIX through cvqkd.cli.main, imported
from ROOT/src (default: this checkout), in a temporary directory under
sys.settrace and threading.settrace, then prints ``path:line  source`` for
each statement of ROOT/src/cvqkd that never ran, on any thread.  No file is
left behind.
"""

import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile
import threading

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from output_matrix import CONFIGS, MATRIX  # noqa: E402


def _statements(tree):
    """(line, the lines that run it) for each statement that compiles to code."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring: like a global declaration, it compiles to no code
        body = getattr(node, "body", [])
        last = body[0].lineno - 1 if body else node.end_lineno  # a compound statement's header
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def main(argv):
    if len(argv) > 1:
        sys.exit(__doc__.split("\n\n")[1])
    root = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    package = os.path.join(root, "src", "cvqkd") + os.sep
    sys.path.insert(0, os.path.join(root, "src"))
    ran = {}

    def trace(frame, event, arg):  # global and local tracer; skips frames outside the package
        if frame.f_code.co_filename.startswith(package):
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
            return trace

    here = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="unreached-lines-") as work:
        os.chdir(work)
        sys.settrace(trace)
        threading.settrace(trace)  # the decoy descent fits on worker threads
        try:
            from cvqkd import cli

            for name, text in CONFIGS.items():
                pathlib.Path(name).write_text(text, encoding="latin-1")
            sink = io.StringIO()
            for _, args in MATRIX:
                # a usage error leaves through argparse's sys.exit(2)
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                        contextlib.suppress(SystemExit):
                    cli.main(args)
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(here)
    for path in sorted(os.path.join(package, f) for f in os.listdir(package) if f.endswith(".py")):
        with open(path) as fh:
            source = fh.read()
        lines, seen = source.splitlines(), ran.get(path, set())
        for line, span in sorted(dict(_statements(ast.parse(source))).items()):
            if seen.isdisjoint(span):
                print(f"{os.path.relpath(path, root)}:{line}  {lines[line - 1].strip()}")


if __name__ == "__main__":
    main(sys.argv[1:])
