"""List the functions of ``src/superflip`` that no command of the reference set reaches.

    python3 tools/reachability.py [SRC]

Runs every command of ``tools/reference_outputs.py`` on SRC (default: this
checkout's ``src``), each in a fresh interpreter whose ``PYTHONPATH`` also
holds a ``sitecustomize`` module.  That module installs a
``sys.setprofile`` hook which records the code object of every Python
call and writes them out when the interpreter exits.  The script then
prints each module-level function, and each method of a module-level
class, under SRC/superflip that no command called, with its line count
(decorators and docstring included; a nested function counts with the
function around it), and the totals.  Standard library only.
"""

import ast
import importlib.util
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

HOOK = '''\
import atexit
import os
import sys

_called = set()


def _hook(frame, event, arg):
    if event == "call":
        _called.add(frame.f_code)


@atexit.register
def _dump():
    sys.setprofile(None)
    with open(os.path.join(os.path.dirname(__file__), f"called-{os.getpid()}.txt"), "w") as fh:
        for code in _called:
            fh.write(f"{code.co_filename}\\t{code.co_firstlineno}\\n")


sys.setprofile(_hook)
'''


def functions(src):
    """(path, name, first, def_line, last) for each module-level function and method under src/superflip.

    first is the line of the first decorator (or the ``def``), last the
    function's last line; paths are real paths.
    """
    pkg = os.path.realpath(os.path.join(src, "superflip"))
    out = []
    for fname in sorted(os.listdir(pkg)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(pkg, fname)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            scope, body = (node.name + ".", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
            for d in body:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno] + [x.lineno for x in d.decorator_list])
                    out.append((path, scope + d.name, first, d.lineno, d.end_lineno))
    return out


def unreached(src, called):
    """(path relative to src, name, line count) of each function whose code no call in ``called`` ran.

    ``called`` holds (real path, first line) of the code objects called; a
    decorated function's code may start at a decorator or at its ``def``.
    """
    src = os.path.realpath(src)
    return [
        (os.path.relpath(path, src), name, last - first + 1)
        for path, name, first, def_line, last in functions(src)
        if not any((path, line) in called for line in range(first, def_line + 1))
    ]


def measure(src):
    """(real path, first line) of every code object the reference commands call on src."""
    spec = importlib.util.spec_from_file_location(
        "reference_outputs", os.path.join(HERE, "reference_outputs.py"))
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    called = set()
    with tempfile.TemporaryDirectory() as tmp:
        hookdir = os.path.join(tmp, "hook")
        os.makedirs(hookdir)
        with open(os.path.join(hookdir, "sitecustomize.py"), "w") as fh:
            fh.write(HOOK)
        reference.main(os.path.join(tmp, "out"), src + os.pathsep + hookdir)
        for name in os.listdir(hookdir):
            if name.startswith("called-"):
                with open(os.path.join(hookdir, name)) as fh:
                    for line in fh:
                        path, first = line.rstrip("\n").rsplit("\t", 1)
                        called.add((os.path.realpath(path), int(first)))
    return called


def main(src=os.path.join(os.path.dirname(HERE), "src")):
    src = os.path.realpath(src)
    rows = unreached(src, measure(src))
    for path, name, lines in rows:
        print(f"{lines:5d}  {path}  {name}")
    print(f"{len(rows)} functions, {sum(lines for *_, lines in rows)} lines that no command reaches")


if __name__ == "__main__":
    if len(sys.argv) > 2 or sys.argv[1:2] and sys.argv[1].startswith("-"):
        sys.exit(__doc__)
    main(*sys.argv[1:])
