#!/usr/bin/env bash
# End-to-end smoke run of the command line: every subcommand that writes an
# artifact, a resumed VB fit, config files, and the exit code and JSON
# error record of a usage error and of a malformed checkpoint.
# Run from the root of a checkout: bash tests/cli_smoke.sh
set -euo pipefail
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
outtree() { PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m outtree.cli "$@"; }
# data rows of a headered file must equal $2
rows() { test "$(($(wc -l < "$1") - 1))" -eq "$2"; }
outtree spiral --rows 40 --seed 1 --output "$dir/train.csv"
rows "$dir/train.csv" 40
outtree spiral --rows 10 --seed 2 --output "$dir/test.csv"
outtree fit --input "$dir/train.csv" --output "$dir/m.model" --max-iters 3
outtree eval --input "$dir/train.csv" --test "$dir/test.csv" \
  --model "$dir/m.model" --output "$dir/score.tsv"
rows "$dir/score.tsv" 1
outtree sample --model "$dir/m.model" --rows 15 --seed 3 --output "$dir/draw.csv"
rows "$dir/draw.csv" 15
printf 'a,b\n0,1\n1,1\n2,0\n0,0\n1,2\n2,2\n' > "$dir/cats.csv"
outtree vb --input "$dir/cats.csv" --max-rounds 2 --output "$dir/state.ckpt"
rows "$dir/state.ckpt.trace.tsv" 3
outtree vb --input "$dir/cats.csv" --max-rounds 2 --resume "$dir/state.ckpt" \
  --output "$dir/resumed.ckpt"
rows "$dir/resumed.ckpt.trace.tsv" 5
printf 'rows = 20\n' > "$dir/c.cfg"
outtree spiral --config "$dir/c.cfg" --row 50 --seed 1 --output "$dir/a.csv"
rows "$dir/a.csv" 50
# the config file alone may supply required options
printf 'output = %s\nrows = 25\n' "$dir/b.csv" > "$dir/b.cfg"
outtree spiral --config "$dir/b.cfg" --seed 1
rows "$dir/b.csv" 25
# usage errors and malformed artifacts: exit code and one JSON record
expect_error() {
  local code=$1; shift
  local status=0
  outtree "$@" 2> "$dir/err" || status=$?
  test "$status" -eq "$code"
  tail -n 1 "$dir/err" | python -c \
    'import json, sys; sys.exit(json.loads(sys.stdin.read())["exit_code"] != int(sys.argv[1]))' "$code"
}
expect_error 2 spiral --noise abc --seed 1 --output "$dir/c.csv"
head -n 4 "$dir/state.ckpt" > "$dir/truncated.ckpt"
expect_error 3 vb --input "$dir/cats.csv" --resume "$dir/truncated.ckpt" \
  --output "$dir/never.ckpt"
