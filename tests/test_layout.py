"""Rules that have one home in the package stay in that home.

Each test walks the syntax trees of ``src/handgest`` and names the modules
that spell a rule out again instead of calling its home.
"""

import ast
from pathlib import Path

import pytest

import handgest

PACKAGE = Path(handgest.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}

CENTER_KNUCKLES = ({"INDEX_MCP", "MIDDLE_MCP", "PINKY_MCP"}, {5, 9, 17})


def _modules_with(predicate):
    return sorted(name for name, tree in MODULES.items()
                  if any(predicate(node) for node in ast.walk(tree)))


def _calls_open(node):
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return ((isinstance(func, ast.Name) and func.id == "open")
            or (isinstance(func, ast.Attribute) and func.attr == "open"))


def _uses_np_cross(node):
    return (isinstance(node, ast.Attribute) and node.attr == "cross"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def _calls_json_dump(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dumps", "dump")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")


def _names_handedness_values(node):
    return ((isinstance(node, ast.Name) and node.id == "HANDEDNESS_VALUES")
            or (isinstance(node, ast.Attribute) and node.attr == "HANDEDNESS_VALUES")
            or (isinstance(node, ast.alias) and node.name == "HANDEDNESS_VALUES"))


def _converts_to_float64(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("asarray", "array")
            and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy")):
        return False
    dtypes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "dtype"]
    return any(ast.unparse(d) in ("np.float64", "numpy.float64", "np.double", "float",
                                  "'float64'", "'float'", "'f8'") for d in dtypes)


def _lists_center_knuckles(node):
    if not isinstance(node, (ast.List, ast.Tuple)) or len(node.elts) != 3:
        return False
    keys = {e.id if isinstance(e, ast.Name) else getattr(e, "value", None)
            for e in node.elts}
    return keys in CENTER_KNUCKLES


def test_layout_sees_the_package():
    assert {"skeleton.py", "alignment.py", "features.py", "lifting.py"} <= set(MODULES)


@pytest.mark.parametrize("predicate, home", [
    # read_json, read_jsonl and open_output hold the one error mapping
    (_calls_open, ["skeleton.py"]),
    # write_json and write_jsonl are the one JSON writer
    (_calls_json_dump, ["skeleton.py"]),
    # check_handedness is the one handedness rule
    (_names_handedness_values, ["skeleton.py"]),
    # features.cross is the one cross product
    (_uses_np_cross, []),
    # alignment.CENTER_KEYPOINTS is the one crop centre
    (_lists_center_knuckles, ["alignment.py"]),
    # skeleton.float_array is the one conversion of an array argument
    (_converts_to_float64, ["skeleton.py"]),
], ids=["open", "json-dump", "handedness", "np-cross", "center-knuckles", "float64-array"])
def test_rule_lives_only_in_its_home(predicate, home):
    assert _modules_with(predicate) == home
