"""The command line as a user runs it: each case runs ``handgest`` in its own
process, in a fresh directory, on files derived from one shared corpus.

conftest.handgest_command picks the command: ``python -m handgest.cli`` when
the tests import the package from this checkout's src/, and the installed
``handgest`` console script otherwise, as in CI's installed step. A new
command-line case is one more row of CASES, not a line of the CI workflow.
"""

import json
import re
import shlex
import subprocess
from dataclasses import dataclass, field
from importlib.resources import files
from pathlib import Path
from typing import Callable

import pytest

from conftest import handgest_command, run_handgest
from handgest.errors import ValidationError
from handgest.harness import SynthConfig
from handgest.lifting import default_hand_model, default_intrinsics
from handgest.mlp import TrainConfig
from handgest.pipeline import PipelineConfig

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
CORPUS = "synth --out data.jsonl --per-gesture 2 --seed 5"
ROWS = 42
PIPE = {"schema": "pipeline/1", "max_detect_hz": 5.0, "classifier": "heuristic"}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The bytes of data.jsonl, written by the command under test."""
    root = tmp_path_factory.mktemp("corpus")
    proc = run_handgest(*shlex.split(CORPUS), cwd=root)
    assert proc.returncode == 0, proc.stderr
    return (root / "data.jsonl").read_bytes()


def _jsonl(rows):
    return "".join(json.dumps(row) + "\n" for row in rows)


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _edited(edit):
    """A JSONL file of the corpus rows after ``edit(rows)``; a list that
    ``edit`` returns replaces them."""
    def make(rows):
        edited = edit(rows)
        return _jsonl(rows if edited is None else edited)
    return make


def _scale_first(key, scale):
    def edit(rows):
        hand = rows[0]["hand"]
        hand[key] = [[v * scale for v in p] for p in hand[key]]
    return edit


def _rename_kp3d_on_line_3(rows):
    rows[2]["hand"]["kp3D"] = rows[2]["hand"].pop("kp3d")


def _packaged_model(_):
    return (files("handgest") / "data" / "hand_model.json").read_text()


def _misspelt_model(_):
    model = json.loads(_packaged_model(None))
    ring = model["fingers"]["ring"]
    ring["lenghts"] = ring.pop("lengths")
    return json.dumps(model) + "\n"


def _every_row_lifts(name):
    def check(cwd, _):
        assert all(row["hand"]["kp3d"] is not None for row in _read_jsonl(cwd / name))
    return check


def _eval_counts_every_row(cwd, _):
    assert json.loads((cwd / "eval.json").read_text())["n"] == ROWS


def _stats_count_every_frame(cwd, _):
    stats = json.loads((cwd / "stats.json").read_text())
    assert stats["tracked_frames"] + stats["untracked_frames"] == ROWS


def _short_note(_, stderr):
    assert max(map(len, stderr.splitlines())) < 120


_COPY = _edited(lambda rows: None)
# a copy of data.jsonl with a fractional t_us appended as line 43
_FRACTIONAL_T_US = _edited(lambda rows: rows + [dict(rows[0], t_us=1.5)])


@dataclass(frozen=True)
class Case:
    """One run of the command line and what it must leave behind."""

    argv: str                   # shell-quoted, run in a directory holding data.jsonl
    # file name -> a JSON object, or a function of the corpus rows giving its text
    files: dict = field(default_factory=dict)
    before: tuple = ()          # command lines that must exit 0 first
    code: int = 0
    err: str | None = None      # a regex that matches stderr exactly once (re.M)
    err_lines: int | None = None
    lines: dict = field(default_factory=dict)   # output file -> line count
    absent: tuple = ()          # files the run must not write
    unchanged: tuple = ()       # files whose bytes the run must keep
    check: Callable | None = None   # of the working directory and stderr, after the run


CASES = {
    "synth-no-gestures": Case(
        "synth --gestures , --out no-gestures.jsonl", code=2, err="^error: ", err_lines=1,
        absent=("no-gestures.jsonl",)),
    # eval writes an indented JSON report through the package's one writer
    "classify-then-eval": Case(
        "eval --pred pred.jsonl --truth data.jsonl --out eval.json",
        before=("classify --frames data.jsonl --out pred.jsonl",),
        lines={"pred.jsonl": ROWS}, check=_eval_counts_every_row),
    "synth-misspelt-handedness": Case(
        "synth --config badhand.json --out bad-hand.jsonl",
        files={"badhand.json": {"handedness": "left"}}, code=2,
        err=r"^error: badhand\.json: handedness must be one of", err_lines=1,
        absent=("bad-hand.jsonl",)),
    "synth-range-wider-than-a-float": Case(
        "synth --config wide.json --out wide.jsonl",
        files={"wide.json": {"x_range": [-1e308, 1e308]}}, code=2,
        err=r"^error: wide\.json: x_range", err_lines=1, absent=("wide.jsonl",)),
    "train-diverges": Case(
        "train --data data.jsonl --config diverge.json --out diverged.json",
        files={"diverge.json": {"learning_rate": 1e300, "epochs": 3}}, code=3,
        err="^numerical error: training diverged in epoch ", err_lines=1, absent=("diverged.json",)),
    "stream": Case(
        "stream --frames data.jsonl --pipeline pipe.json --out stream.jsonl --stats stats.json",
        files={"pipe.json": PIPE}, lines={"stream.jsonl": ROWS},
        check=_stats_count_every_frame),
    "lift": Case(
        "lift --frames data.jsonl --out lifted.jsonl", err_lines=0,
        lines={"lifted.jsonl": ROWS}, check=_every_row_lifts("lifted.jsonl")),
    # left hands are fitted in the mirror image of the right-hand model
    "synth-left-then-lift": Case(
        "lift --frames left.jsonl --out left-lifted.jsonl",
        files={"left.json": {"handedness": "Left"}},
        before=("synth --config left.json --out left.jsonl --per-gesture 2 --seed 5",),
        err_lines=0, lines={"left.jsonl": ROWS, "left-lifted.jsonl": ROWS},
        check=_every_row_lifts("left-lifted.jsonl")),
    "lift-packaged-model": Case(
        "lift --frames data.jsonl --model hand.json --out model-lifted.jsonl",
        files={"hand.json": _packaged_model}, err_lines=0,
        lines={"model-lifted.jsonl": ROWS}, check=_every_row_lifts("model-lifted.jsonl")),
    "lift-model-misspelt-key": Case(
        "lift --frames data.jsonl --model lenghts.json --out bad-model.jsonl",
        files={"lenghts.json": _misspelt_model}, code=2,
        err=r"^error: .*lenghts\.json: .*'lenghts'", err_lines=1,
        absent=("bad-model.jsonl",)),
    # stream.jsonl holds a copy of data.jsonl, which a stream would replace
    "stream-stats-unwritable": Case(
        "stream --frames data.jsonl --pipeline pipe.json --out stream.jsonl "
        "--stats nodir/s.json",
        files={"pipe.json": PIPE, "stream.jsonl": _COPY}, code=2,
        err=r"^error: cannot write nodir/s\.json: ", err_lines=1, unchanged=("stream.jsonl",)),
    # an empty path names no file: it used to classify with the heuristic
    "classify-empty-model": Case(
        "classify --frames data.jsonl --model ''", code=2, err="^error: ", err_lines=1),
    "features-fractional-t-us": Case(
        "features --frames bad.jsonl", files={"bad.jsonl": _FRACTIONAL_T_US}, code=2,
        err=r"bad\.jsonl:43: ", err_lines=1),
    # a hand key spelt wrong is a bad row, not a 2D-only hand
    "features-kp3D": Case(
        "features --frames kp3D.jsonl", files={"kp3D.jsonl": _edited(_rename_kp3d_on_line_3)},
        code=2, err=r"^error: .*kp3D\.jsonl:3: unknown hand keys: \['kp3D'\]", err_lines=1),
    "classify-frames-and-features": Case(
        "classify --frames data.jsonl --features data.jsonl", code=2,
        err="not allowed with argument"),
    "lift-width-past-a-float": Case(
        "lift --frames huge.jsonl --out huge-lifted.jsonl",
        files={"huge.jsonl": _edited(lambda rows: rows[0].update(w=10 ** 400))}, code=2,
        err=r"huge\.jsonl:1: ", err_lines=1, absent=("huge-lifted.jsonl",)),
    # a fit that ends 1e144 px off on a 10**150 px image is noted in one short line
    "lift-far-off-fit": Case(
        "lift --frames far.jsonl --out far-lifted.jsonl",
        files={"far.jsonl": _edited(lambda rows: [dict(rows[0], w=10 ** 150, h=10 ** 150)])},
        err="^row 0 ", err_lines=1, check=_short_note),
    # keypoints too large to measure: it wrote a row of NaN after a numpy warning
    "features-kp3d-too-large": Case(
        "features --frames huge3d.jsonl",
        files={"huge3d.jsonl": _edited(_scale_first("kp3d", 1e300))}, code=3,
        err=r"huge3d\.jsonl:1: ", err_lines=1),
    "lift-kp2d-too-large": Case(
        "lift --frames huge2d.jsonl --out huge2d-lifted.jsonl",
        files={"huge2d.jsonl": _edited(_scale_first("kp2d", 1e300))}, err="^row 0 "),
    "features-failure-keeps-output": Case(
        "features --frames bad.jsonl --out feats.jsonl", files={"bad.jsonl": _FRACTIONAL_T_US},
        before=("features --frames data.jsonl --out feats.jsonl",), code=2,
        err=r"^error: bad\.jsonl:43: ", err_lines=1, unchanged=("feats.jsonl",)),
    "features-out-is-input": Case(
        "features --frames self.jsonl --out self.jsonl",
        files={"self.jsonl": _COPY}, lines={"self.jsonl": ROWS}),
}


def _write_inputs(cwd, case, corpus):
    (cwd / "data.jsonl").write_bytes(corpus)
    for name, content in case.files.items():
        if callable(content):
            text = content([json.loads(line) for line in corpus.splitlines()])
        else:
            text = json.dumps(content) + "\n"
        (cwd / name).write_text(text)


@pytest.mark.parametrize("name", list(CASES))
def test_command_line(corpus, tmp_path, name):
    case = CASES[name]
    _write_inputs(tmp_path, case, corpus)
    for argv in case.before:
        proc = run_handgest(*shlex.split(argv), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    kept = {path: (tmp_path / path).read_bytes() for path in case.unchanged}
    proc = run_handgest(*shlex.split(case.argv), cwd=tmp_path)
    err = proc.stderr
    assert proc.returncode == case.code, err
    assert "Traceback" not in err and "Warning" not in err, err
    if case.err is not None:
        assert len(re.findall(case.err, err, re.M)) == 1, err
    if case.err_lines is not None:
        lines = err.splitlines(keepends=True)
        assert len(lines) == case.err_lines and all(s.endswith("\n") for s in lines), err
    for path, count in case.lines.items():
        assert (tmp_path / path).read_text().count("\n") == count, path
    for path in case.absent:
        assert not (tmp_path / path).exists(), path
    for path, data in kept.items():
        assert (tmp_path / path).read_bytes() == data, path
    if case.check is not None:
        case.check(tmp_path, err)


def test_a_reader_that_leaves_early_gets_exit_2_and_one_line(tmp_path):
    # also past the shutdown flush that runs after main returns
    proc = run_handgest("synth", "--out", "long.jsonl", "--per-gesture", 20, "--seed", 5,
                        cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    command, env = handgest_command()
    # stdout block-buffered, as it is by default on a pipe
    env = {k: v for k, v in env.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen([*command, "features", "--frames", "long.jsonl"], cwd=tmp_path,
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as reader:
        first = reader.stdout.readline()        # head -n 1
        reader.stdout.close()
        err = reader.stderr.read().decode()
        code = reader.wait(timeout=120)
    assert first.startswith(b"{") and first.endswith(b"\n")
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_synth_rounds_keypoints(corpus):
    # synth stores kp2d to 1e-3 px and kp3d to 1e-6 m
    hands = [json.loads(line)["hand"] for line in corpus.splitlines()]
    assert all(v == round(v, 3) for h in hands for p in h["kp2d"] for v in p)
    assert all(v == round(v, 6) for h in hands for p in h["kp3d"] for v in p)


@pytest.mark.parametrize("call", [
    lambda: SynthConfig(seed=True), lambda: TrainConfig(epochs=2.5),
    lambda: PipelineConfig(max_detect_hz=True), lambda: default_intrinsics(640.5, 480),
])
def test_numeric_settings_meet_one_rule(call):
    with pytest.raises(ValidationError):
        call()


def test_the_packaged_hand_model_is_read_only():
    assert not default_hand_model().lengths.flags.writeable


def test_the_table_is_the_only_home_of_command_line_cases():
    lines = WORKFLOW.read_text().splitlines()
    code = [line.split("#", 1)[0] for line in lines]
    assert not [line for line in code if re.search(r"\bhandgest(\.cli)?\s", line)]

    def step(name):
        start = lines.index(f"      - name: {name}")
        rest = lines[start:]
        return "\n".join(rest[:next((i for i, line in enumerate(rest[1:], 1)
                                     if line.startswith("      - ")), len(rest))])

    # the package is installed, with its test extra, before the table runs
    assert "python -m pip install '.[test]'" in step("Install")
    table = step("Installed command line")
    assert len(table.splitlines()) < 15
    assert "python -m pytest -q tests/test_installed.py" in table
