"""Every module-level function and class in the package has a caller there.

A definition that only tests use is a second API beside the stage
functions that programs run; the named ones are kept on purpose as
references that tests compare the fast paths against.
"""

import ast
from pathlib import Path

import forumnet

REFERENCES = {"emd", "emd_star", "count_orbits_bruteforce"}


def test_every_definition_is_used_in_the_package():
    defined, used = {}, set()
    for path in sorted(Path(forumnet.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            own = (stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                   else None)
            if own:
                defined[own] = path.name
            # a name counts as used when another top-level statement reads it
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    unused = {name: module for name, module in defined.items()
              if name not in used | REFERENCES}
    assert unused == {}
    assert REFERENCES <= set(defined)
