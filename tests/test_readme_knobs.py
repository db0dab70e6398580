"""Every ``REPRO_*`` environment variable the package reads is in README.

An environment variable is an option nobody sees in a signature, so
README is where a user learns it exists.  The scan covers every way the
package reads one: ``os.environ.get(NAME)``, ``os.environ[NAME]``,
``NAME in os.environ`` and ``os.getenv(NAME)``.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent


def _is_environ(node):
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _read_name(node):
    """The string constant ``node`` reads from the environment, if any."""
    key = None
    if isinstance(node, ast.Call) and node.args:
        func = node.func
        if ((isinstance(func, ast.Attribute) and func.attr == "get"
                and _is_environ(func.value))
                or (isinstance(func, ast.Attribute) and func.attr == "getenv"
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os")):
            key = node.args[0]
    elif isinstance(node, ast.Subscript) and _is_environ(node.value):
        key = node.slice
    elif (isinstance(node, ast.Compare) and len(node.ops) == 1
          and isinstance(node.ops[0], (ast.In, ast.NotIn))
          and _is_environ(node.comparators[0])):
        key = node.left
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    return None


def _environment_reads():
    """``{name: [file:line, ...]}`` for every ``REPRO_*`` read in src."""
    reads = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            name = _read_name(node)
            if name is not None and name.startswith("REPRO_"):
                where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
                reads.setdefault(name, []).append(where)
    return reads


def test_every_environment_read_is_documented_in_readme():
    reads = _environment_reads()
    assert reads, "the scan found no environment reads at all"
    readme = (REPO_ROOT / "README.md").read_text()
    undocumented = {name: where for name, where in reads.items()
                    if name not in readme}
    assert undocumented == {}
