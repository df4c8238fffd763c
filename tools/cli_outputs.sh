#!/usr/bin/env bash
# Run a fixed set of handgest commands on the source of one tree and keep
# each command's stdout, stderr and exit code, and every file it writes.
#
#   tools/cli_outputs.sh TREE OUTDIR
#
# TREE is a checkout of this repository (its src/ is imported); OUTDIR is
# created and filled. Commands run inside OUTDIR on relative paths, so the
# outputs of two trees compare with `diff -r OUTDIR1 OUTDIR2`; a change that
# keeps the command line as it was leaves no difference.
set -u
if [ $# -ne 2 ]; then
    echo "usage: $0 TREE OUTDIR" >&2
    exit 2
fi
tree=$(cd "$1" && pwd) || exit 2
mkdir -p "$2" && cd "$2" || exit 2
export PYTHONPATH="$tree/src" PYTHONDONTWRITEBYTECODE=1

# hg NAME ARGS...: handgest ARGS, keeping NAME.out, NAME.err and NAME.exit
hg() {
    local name=$1
    shift
    python3 -m handgest.cli "$@" >"$name.out" 2>"$name.err"
    echo $? >"$name.exit"
}

# drop-kp3d IN OUT [ROWS]: IN's frames with kp3d removed, its first ROWS rows
drop_kp3d() {
    python3 - "$@" <<'PY'
import json, sys
rows = [json.loads(line) for line in open(sys.argv[1])]
rows = rows[:int(sys.argv[3])] if len(sys.argv) > 3 else rows
with open(sys.argv[2], "w") as out:
    for row in rows:
        if row["hand"] is not None:
            del row["hand"]["kp3d"]
        out.write(json.dumps(row) + "\n")
PY
}

echo '{"seed": 2, "handedness": "Left", "noise_px": 1.0}' >left-1px.json
echo '{"seed": 7, "noise_px": 1.0}' >right-1px.json
echo '{"epochs": 5}' >train.json
echo '{"schema": "mlp/1", "epochs": 2}' >train-mlp-tag.json
echo '{"schema": "pipeline/1", "max_detect_hz": 5.0}' >pipeline.json
echo '{"schema": "pipeline/1", "max_detect_hz": 5.0, "classifier": "nn",
      "classifier_ref": "calibrated.json"}' >pipeline-nn.json
echo '{"schema": "gestures/9", "thresholds": {}, "gestures": []}' >gestures-9.json
echo '{"t_us": 0, "w": 640, "h": 480, "hand": null}' >no-hand.jsonl

hg synth-right synth --seed 1 --per-gesture 5 --out right.jsonl
hg synth-left-1px synth --config left-1px.json --per-gesture 3 --out left-1px.jsonl
hg synth-right-1px synth --config right-1px.json --per-gesture 5 --out right-1px.jsonl
hg synth-test synth --seed 3 --per-gesture 4 --out test.jsonl
hg synth-negatives synth --seed 4 --per-gesture 4 --gestures OK,Three,Loser,CallMe \
    --out negatives.jsonl
hg features features --frames right.jsonl --out features.jsonl
hg classify-rules-frames classify --frames test.jsonl --out pred-rules.jsonl
hg classify-rules-features classify --features features.jsonl
hg train train --data right.jsonl --config train.json --out model.json
hg calibrate calibrate --model model.json --negatives negatives.jsonl --fpr 0.05 \
    --out calibrated.json
# the same training and calibration from feature rows instead of frames
hg features-negatives features --frames negatives.jsonl --out features-negatives.jsonl
hg train-features train --data features.jsonl --config train.json --out model-features.json
hg calibrate-features calibrate --model model-features.json \
    --negatives features-negatives.jsonl --fpr 0.05 --out calibrated-features.json
hg classify-model classify --frames test.jsonl --model calibrated.json --out pred-nn.jsonl
hg eval-rules eval --pred pred-rules.jsonl --truth test.jsonl
hg eval-nn eval --pred pred-nn.jsonl --truth test.jsonl
drop_kp3d left-1px.jsonl left-2d.jsonl 60
drop_kp3d test.jsonl test-2d.jsonl
drop_kp3d right-1px.jsonl right-2d.jsonl
hg lift lift --frames left-2d.jsonl --out lifted.jsonl
hg lift-right lift --frames right-2d.jsonl --out lifted-right.jsonl
# one row in a 10**150 px image: the seed's depth clips at TZ_BOX's far end
python3 - <<'PY'
import json
row = json.loads(open("right-2d.jsonl").readline())
row["w"] = row["h"] = 10 ** 150
open("huge-2d.jsonl", "w").write(json.dumps(row) + "\n")
PY
hg lift-huge lift --frames huge-2d.jsonl --out lifted-huge.jsonl
hg stream-3d stream --frames test.jsonl --pipeline pipeline.json --stats stats-3d.json
hg stream-2d stream --frames test-2d.jsonl --pipeline pipeline.json --stats stats-2d.json
hg stream-nn stream --frames test.jsonl --pipeline pipeline-nn.json
hg stream-lifted stream --frames lifted.jsonl --pipeline pipeline.json
# inputs that exit 2
hg features-2d features --frames test-2d.jsonl
hg features-no-hand features --frames no-hand.jsonl
hg classify-gestures-schema-9 classify --features features.jsonl --gestures gestures-9.json
hg train-mlp-tag train --data right.jsonl --config train-mlp-tag.json --out model-mlp-tag.json
exit 0
