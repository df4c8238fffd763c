"""Rules that have one home in the package stay in that home.

Each test walks the syntax trees of ``src/handgest`` and names the modules
that spell a rule out again instead of calling its home.
"""

import ast
from pathlib import Path

import pytest

import handgest
from handgest.labels import POSITIVE_GESTURES

PACKAGE = Path(handgest.__file__).resolve().parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}

CENTER_KNUCKLES = ({"INDEX_MCP", "MIDDLE_MCP", "PINKY_MCP"}, {5, 9, 17})
FEATURE_PART_NAMES = {"euler", "fingers", "pairs"}
# the entries at which the feature parts start and stop
FEATURE_PART_BOUNDS = {3, 8, 12}


def _modules_with(predicate, modules=MODULES):
    return sorted(name for name, tree in modules.items()
                  if any(predicate(node) for node in ast.walk(tree)))


def _functions_with(predicate):
    """(module, top-level function or class) of every node that matches;
    None for a node at module level."""
    sites = []
    for name, tree in MODULES.items():
        for top in tree.body:
            function = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            sites += [(name, function) for node in ast.walk(top) if predicate(node)]
    return sorted(sites, key=repr)


def _imports_from_features(tree, names):
    return any(isinstance(node, ast.ImportFrom) and node.module == "features"
               and names & {alias.name for alias in node.names} for node in ast.walk(tree))


# modules that take a feature vector from the features module
FEATURE_USERS = {name: tree for name, tree in MODULES.items()
                 if _imports_from_features(tree, {"FEATURE_PARTS", "FEATURE_SIZE",
                                                  "feature_vector", "frame_features"})}


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


def _sets_numpy_error_state(node):
    return (isinstance(node, ast.Attribute) and node.attr in ("errstate", "seterr")
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def _reads_center_keypoints(node):
    return ((isinstance(node, ast.Name) and node.id == "CENTER_KEYPOINTS"
             and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == "CENTER_KEYPOINTS")
            or (isinstance(node, ast.alias) and node.name == "CENTER_KEYPOINTS"))


def _is_key_set(node):
    """obj.keys() or set(obj)."""
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Attribute) and node.func.attr == "keys")
        or (isinstance(node.func, ast.Name) and node.func.id == "set"))


def _subtracts_keys(node):
    """obj.keys() - keys, keys - set(obj) or set(obj).difference(keys)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return _is_key_set(node.left) or _is_key_set(node.right)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "difference")


def _compares_keys(node):
    """obj.keys() >= keys, or set(obj) != set(keys)."""
    return isinstance(node, ast.Compare) and any(
        _is_key_set(side) for side in [node.left, *node.comparators])


def _message_text(node):
    return "".join(v.value for v in node.values if isinstance(v, ast.Constant))


def _says_unknown_keys(node):
    """An f-string such as f"unknown {what} keys: {extra}"."""
    if not isinstance(node, ast.JoinedStr):
        return False
    text = _message_text(node)
    return text.startswith("unknown ") and " keys: " in text


def _says_needs_key(node):
    """An f-string such as f"{what} needs {key!r}"."""
    return isinstance(node, ast.JoinedStr) and " needs " in _message_text(node)


def _says_must_be_one_of(node):
    """An f-string such as f"{what} must be one of {names}, got {value}"."""
    return isinstance(node, ast.JoinedStr) and " must be one of " in _message_text(node)


def _says_must_be_a_list(node):
    """An f-string such as f"{what} must be a list, got {value}"."""
    return isinstance(node, ast.JoinedStr) and " must be a list" in _message_text(node)


def _says(words):
    """A predicate: a string, or an f-string as written, that holds ``words``."""
    def predicate(node):
        if isinstance(node, ast.JoinedStr):
            return words in ast.unparse(node)
        return (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and words in node.value)
    return predicate


def _raises_a_frame_error(words):
    """A predicate: MalformedFrame(...) called with a message that holds ``words``."""
    def predicate(node):
        return (isinstance(node, ast.Call) and _name_of(node.func) == "MalformedFrame"
                and any(words in ast.unparse(arg) for arg in node.args))
    return predicate


def _checks_an_image_size(node):
    """check_number(..., "w", ...) or check_number(..., "h", ...)."""
    return (isinstance(node, ast.Call) and _name_of(node.func) == "check_number"
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in ("w", "h"))


# the slices through which every module reads a (27,) pose
POSE_LAYOUT = {"ROTVEC", "TRANSLATION", "JOINTS"}


def _binds_the_pose_layout(node):
    """An assignment that binds ROTVEC, TRANSLATION or JOINTS, alone or in a tuple."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id in POSE_LAYOUT
               for target in targets for n in ast.walk(target))


def _raises(error):
    """A predicate: a raise statement that calls ``error``."""
    def predicate(node):
        return (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and _name_of(node.exc.func) == error)
    return predicate


def _reads_the_schema_tag(node):
    """obj["schema"] or obj.get("schema", ...)."""
    key = (node.slice if isinstance(node, ast.Subscript)
           else node.args[0] if isinstance(node, ast.Call) and node.args
           and _name_of(node.func) == "get" else None)
    return isinstance(key, ast.Constant) and key.value == "schema"


def _compares_a_schema_tag(node):
    """A comparison with a document's schema tag on either side."""
    return isinstance(node, ast.Compare) and any(
        _reads_the_schema_tag(n) for side in [node.left, *node.comparators]
        for n in ast.walk(side))


def _raises_a_name_error(node):
    """UnknownLabel(...) or UnknownReference(...) called, not passed to check_name."""
    return isinstance(node, ast.Call) and _name_of(node.func) in ("UnknownLabel",
                                                                  "UnknownReference")


def _catches_key_error(node):
    """An except clause that names KeyError, alone or in a tuple."""
    if not isinstance(node, ast.ExceptHandler) or node.type is None:
        return False
    names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    return any(isinstance(n, ast.Name) and n.id == "KeyError" for n in names)


def _lists_feature_parts(node):
    """A literal that names the three feature parts: dict keys, or entries
    of a tuple or list, bare or leading a (name, size) pair."""
    if isinstance(node, ast.Dict):
        entries = node.keys
    elif isinstance(node, (ast.Tuple, ast.List)):
        entries = [e.elts[0] if isinstance(e, (ast.Tuple, ast.List)) and e.elts else e
                   for e in node.elts]
    else:
        return False
    return FEATURE_PART_NAMES <= {getattr(e, "value", None) for e in entries}


def _int(node):
    return isinstance(node, ast.Constant) and type(node.value) is int


def _numbers_feature_entries(node):
    """fv[3:8], state[3:], 3 + finger, or an index table of int literals
    such as {"ThumbIndex": 8, ...}."""
    if isinstance(node, ast.Slice):
        return any(_int(b) and b.value in FEATURE_PART_BOUNDS for b in (node.lower, node.upper))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return any(_int(b) and b.value in FEATURE_PART_BOUNDS for b in (node.left, node.right))
    return isinstance(node, ast.Dict) and bool(node.values) and all(map(_int, node.values))


def test_layout_sees_the_package():
    assert {"skeleton.py", "alignment.py", "features.py", "lifting.py"} <= set(MODULES)
    assert {"cli.py", "heuristic.py", "mlp.py", "pipeline.py"} <= set(FEATURE_USERS)


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
    # features.FEATURE_PARTS is the one feature layout
    (_lists_feature_parts, ["features.py"]),
    # skeleton.check_name is the one name rule, and check_list the one list
    # rule; UnknownLabel and UnknownReference only go to check_name as error=
    (_says("must be one of"), ["skeleton.py"]),
    (_says("must be a list"), ["skeleton.py"]),
    (_raises_a_name_error, []),
    # a schema tag goes to check_name like every other name
    (_compares_a_schema_tag, []),
], ids=["open", "json-dump", "handedness", "np-cross", "center-knuckles", "float64-array",
        "feature-parts", "one-of", "a-list", "name-errors", "schema-tag"])
def test_rule_lives_only_in_its_home(predicate, home):
    assert _modules_with(predicate) == home


@pytest.mark.parametrize("predicate, home", [
    # cli.main sets numpy's error state once, around every command
    (_sets_numpy_error_state, [("cli.py", "main")]),
    # alignment.palm_center is the one mean of the center knuckles
    (_reads_center_keypoints, [("alignment.py", "palm_center")]),
    # skeleton.check_keys is the one key rule, for frames and config files
    # alike: it subtracts and compares key sets, and words both messages
    (_subtracts_keys, [("skeleton.py", "check_keys")] * 2),
    (_compares_keys, [("skeleton.py", "check_keys")] * 2),
    (_says_unknown_keys, [("skeleton.py", "check_keys")]),
    (_says_needs_key, [("skeleton.py", "check_keys")]),
    # skeleton.check_name is the one name rule, and check_list the one list rule
    (_says_must_be_one_of, [("skeleton.py", "check_name")]),
    (_says_must_be_a_list, [("skeleton.py", "check_list")]),
    # a frame checks itself when it is made: HandSkeleton words the keypoint
    # shape and finiteness messages, and HandFrame tests the image size
    (_raises_a_frame_error("must have shape"), [("skeleton.py", "HandSkeleton")]),
    (_raises_a_frame_error("contains non-finite values"), [("skeleton.py", "HandSkeleton")]),
    (_checks_an_image_size, [("skeleton.py", "HandFrame")] * 2),
    # one statement at lifting's top level states the pose layout
    (_binds_the_pose_layout, [("lifting.py", None)]),
    # features.frame_features is the one step from a frame to its features
    (_raises("Missing3D"), [("features.py", "frame_features")]),
], ids=["numpy-error-state", "palm-center", "unknown-keys", "key-subset", "unknown-keys-message",
        "needs-key-message", "one-of-message", "list-message", "frame-shape-message",
        "frame-finite-message", "frame-size", "pose-layout", "missing-3d"])
def test_rule_lives_in_one_function(predicate, home):
    assert _functions_with(predicate) == home


def test_feature_users_read_the_layout_from_features():
    # cli and heuristic slice and index a feature vector through
    # features.FEATURE_PARTS, never by number
    assert _modules_with(_numbers_feature_entries, FEATURE_USERS) == []


# the second type system that decoded JSON once met before check_number
RETIRED_TYPE_TESTS = {"is_int", "is_number", "_JSON_KINDS", "_matches"}


def _name_of(node):
    """The name a node reads, imports or defines, or None."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef))
            else None)


def _names_a_retired_type_test(node):
    return _name_of(node) in RETIRED_TYPE_TESTS


def _reads_a_type_annotation(node):
    # a dataclass field's .type is its annotation, a string under
    # "from __future__ import annotations"
    return isinstance(node, ast.Attribute) and node.attr == "type"


@pytest.mark.parametrize("predicate", [_names_a_retired_type_test, _reads_a_type_annotation],
                         ids=["is-int-is-number", "annotation-strings"])
def test_scalars_are_checked_by_check_number_alone(predicate):
    # skeleton.check_number tests every scalar, decoded JSON too; a config
    # dataclass checks its own values, so no module reads annotations
    assert _modules_with(predicate) == []


# the key tests and the catch-alls that the key rule replaced
RETIRED_KEY_TESTS = {"reject_unknown_keys", "_exact_keys"}


def _names_a_retired_key_test(node):
    return _name_of(node) in RETIRED_KEY_TESTS


@pytest.mark.parametrize("predicate", [_names_a_retired_key_test, _catches_key_error],
                         ids=["retired-key-tests", "key-error-catch-alls"])
def test_objects_are_checked_by_check_keys_alone(predicate):
    # a decoder tests an object's keys with skeleton.check_keys, and no
    # handler turns a KeyError, or whatever else it catches, into a message
    assert _modules_with(predicate) == []


def test_no_function_checks_a_frame_after_it_is_made():
    # HandSkeleton and HandFrame check themselves, so a frame that synth or
    # lift builds meets the same rule as one read from a file
    assert _modules_with(lambda node: _name_of(node) == "validate_frame") == []


# the record a pose once was, beside the (27,) array every kernel reads
RETIRED_POSE_NAMES = {"PoseParams", "as_vector", "from_vector"}


def test_a_pose_is_one_array():
    # a pose is built and read through lifting's ROTVEC, TRANSLATION and
    # JOINTS, with no converter to a second form
    assert _modules_with(lambda node: _name_of(node) in RETIRED_POSE_NAMES) == []


def test_fit_limits_are_module_constants():
    # lifting.MAX_ITER and lifting.MAX_RMS_PX; no caller passes its own
    params = {(name, arg.arg) for name, tree in MODULES.items() for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.Lambda))
              for arg in node.args.args + node.args.kwonlyargs + node.args.posonlyargs}
    assert {p for p in params if p[1] in ("max_iter", "max_rms_px")} == set()


def test_the_six_targets_are_listed_once():
    # labels.ALL_GESTURES is POSITIVE_GESTURES + NEGATIVE_GESTURES
    strings = [node.value for node in ast.walk(MODULES["labels.py"])
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert {name: strings.count(name) for name in POSITIVE_GESTURES} == dict.fromkeys(
        POSITIVE_GESTURES, 1)


def test_the_frame_codec_is_two_functions():
    # frame_to_dict and frame_from_dict hold the hand's half of the format
    retired = {"skeleton_to_dict", "skeleton_from_dict"}
    assert _modules_with(lambda node: _name_of(node) in retired) == []
