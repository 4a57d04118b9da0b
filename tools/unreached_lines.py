"""List the statements of src/cvqkd that no command of tools/output_matrix.py executes.

Usage: python3 tools/unreached_lines.py [--check] [ROOT]

Runs each command of output_matrix.MATRIX through cvqkd.cli.main, imported
from ROOT/src (default: this checkout), in a temporary directory under
sys.settrace and threading.settrace, then prints ``path:line  function
source`` for each statement of ROOT/src/cvqkd that never ran, on any
thread.  ``function`` is the enclosing function's qualified name, or
``<module>``.  No file is left behind.

tools/unreached_lines.txt is the ledger of this checkout: the same
statements grouped by function, each group headed ``path  function: reason``
with its statements below, indented, without line numbers.  A group with no
reason is a candidate for deletion.  With --check the script compares ROOT's
statements with the ledger's, ignoring reasons and line numbers, prints each
difference (``-`` in the ledger only, ``+`` reported only) and exits 1 on
any, 0 when they match.
"""

import ast
import collections
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


LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "unreached_lines.txt")


def _statements(node, scope="<module>"):
    """(line, the lines that run it, enclosing function) for each statement that compiles to code."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
        # a docstring, like a global declaration, compiles to no code
        if isinstance(child, ast.stmt) and not isinstance(child, (ast.Global, ast.Nonlocal)) \
                and not (isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):
            body = getattr(child, "body", [])
            last = body[0].lineno - 1 if body else child.end_lineno  # a compound statement's header
            yield child.lineno, range(child.lineno, max(last, child.lineno) + 1), scope
        yield from _statements(child, inner)


def _unreached(root):
    """(path, line, function, source) of each statement of ROOT/src/cvqkd that no command runs."""
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
        threading.settrace(trace)  # a session save writes outcomes.csv on a worker thread
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
        statements = {line: (span, scope) for line, span, scope in _statements(ast.parse(source))}
        for line, (span, scope) in sorted(statements.items()):
            if seen.isdisjoint(span):
                yield os.path.relpath(path, root), line, scope, lines[line - 1].strip()


def _ledger():
    """The ledger's statements, as ``path  function  source`` with their counts."""
    statements, group = collections.Counter(), None
    with open(LEDGER) as fh:
        for line in fh.read().splitlines():
            if line.startswith("    "):
                statements[f"{group}  {line.strip()}"] += 1
            elif line.strip() and not line.startswith("#"):
                group = line.split(": ", 1)[0]
    return statements


def _check(root):
    """Exit status of comparing ROOT's unreached statements with the ledger's."""
    committed = _ledger()
    now = collections.Counter(f"{path}  {scope}  {source}" for path, _, scope, source in _unreached(root))
    changed = ([f"-{s}" for s in sorted((committed - now).elements())]
               + [f"+{s}" for s in sorted((now - committed).elements())])
    for line in changed:
        print(line)
    print(f"{len(changed)} changed statements against {sum(committed.values())} in the ledger",
          file=sys.stderr)
    return 1 if changed else 0


def main(argv):
    check = argv[:1] == ["--check"]
    argv = argv[1:] if check else argv
    if len(argv) > 1 or argv[:1] and argv[0].startswith("-"):
        sys.exit(__doc__.split("\n\n")[1])
    root = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    if check:
        sys.exit(_check(root))
    for path, line, scope, source in _unreached(root):
        print(f"{path}:{line}  {scope}  {source}")


if __name__ == "__main__":
    main(sys.argv[1:])
