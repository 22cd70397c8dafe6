#!/usr/bin/env bash
# End-to-end smoke run of the command line: every subcommand that writes an
# artifact, a fit of 300 rows checked against a fresh likelihood, a fit of
# those rows moved by 1e5 (its seed objective checked against the unmoved
# rows', its last against a fresh likelihood), a resumed VB fit, a VB fit
# of equal rows and one of 200 000 rows, a tabular fit
# scored by eval and one of all-zero columns (no free parameter), config
# files, label inference over two and three classes, and the exit code and
# JSON error record of a usage error, of numeric flags out of range, of a
# malformed checkpoint, of a labelled row whose weights overflow, of a
# model document with a NaN mean, of a non-integer cell scored under a
# tabular model, of inputs with no attribute columns or no rows, of a
# one-row kernel fit, of a categorical cell of 1e12 and of a scatter3d plot
# whose edge list has fewer nodes than its input has rows.
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
# 300 rows: the gradient's bordered inverse (dimension 301) is assembled by
# block elimination, its matrix products written into views of one buffer
outtree spiral --rows 300 --seed 3 --output "$dir/big.csv"
# the objective column of a fit's log never decreases, and its last value,
# read off the block elimination's ln Z, is a fresh LU ln Z of the written
# model plus its penalty to within 1e-9 of its size
check_fit() {
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - "$@" <<'PY'
import sys
from outtree import cli, io, likelihood
data, path = cli.ingest_csv(sys.argv[1]).X, sys.argv[2]
with open(path + ".log") as log:
    trace = [float(line.split("\t")[1]) for line in log if line[0].isdigit()]
assert len(trace) > 1 and all(b >= a for a, b in zip(trace, trace[1:])), trace
model = io.read_model(path)
fresh = likelihood.tdid_log_likelihood(data, model) + model.penalty(model.param_vector())[0]
assert abs(trace[-1] - fresh) <= 1e-9 * abs(fresh), (trace[-1], fresh)
PY
}
outtree fit --input "$dir/big.csv" --output "$dir/big.model" --max-iters 3
check_fit "$dir/big.csv" "$dir/big.model"
# the same rows moved by 1e5 in every column: the seed model's objective
# (iteration 0) is the unmoved rows' to within 1e-11 of its size, since the
# weights expand each squared distance about a centre row (about the
# origin it moved by 3e-9). The fits then part: the gradient in the
# regression matrix grows with the offset, so only the first line is shared
awk -F, -v OFS=, 'NR > 1 { for (i = 1; i <= NF; i++) $i = sprintf("%.17g", $i + 1e5) } 1' \
  "$dir/big.csv" > "$dir/shift.csv"
outtree fit --input "$dir/shift.csv" --output "$dir/shift.model" --max-iters 3
check_fit "$dir/shift.csv" "$dir/shift.model"
python - "$dir/big.model.log" "$dir/shift.model.log" <<'PY'
import sys
first = [float(open(path).readlines()[1].split("\t")[1]) for path in sys.argv[1:]]
assert abs(first[1] - first[0]) <= 1e-11 * abs(first[0]), first
PY
outtree fit --input "$dir/train.csv" --output "$dir/m.model" --max-iters 3
outtree eval --input "$dir/train.csv" --test "$dir/test.csv" \
  --model "$dir/m.model" --output "$dir/score.tsv"
rows "$dir/score.tsv" 1
# a kernel model anchored at the training rows: scoring reads the stored
# anchor distances for the training rows and computes the union's afresh
outtree fit --input "$dir/train.csv" --output "$dir/k.model" --model-family kernel \
  --max-iters 3
outtree eval --input "$dir/train.csv" --test "$dir/test.csv" \
  --model "$dir/k.model" --output "$dir/kscore.tsv"
rows "$dir/kscore.tsv" 1
# semi-supervised labels under the stored model: every third label hidden
awk -F, 'NR == 1 { print $0 ",y"; next } { print $0 "," (NR % 3 ? NR % 2 : "") }' \
  "$dir/test.csv" > "$dir/labeled.csv"
outtree semisup --input "$dir/labeled.csv" --label-column y --model "$dir/m.model" \
  --seed 4 --output "$dir/labels.csv"
rows "$dir/labels.csv" 10
# three classes: each hidden node's two other labels are ranked by the
# first-order screen off the session's inverse before the best is scored
outtree semisup --input "$dir/labeled.csv" --label-column y --model "$dir/m.model" \
  --classes 3 --seed 4 --output "$dir/labels3.csv"
rows "$dir/labels3.csv" 10
head -n 1 "$dir/labels3.csv" | grep -q ',delta_2$'
outtree sample --model "$dir/m.model" --rows 15 --seed 3 --output "$dir/draw.csv"
rows "$dir/draw.csv" 15
printf 'a,b\n0,1\n1,1\n2,0\n0,0\n1,2\n2,2\n' > "$dir/cats.csv"
outtree vb --input "$dir/cats.csv" --max-rounds 2 --output "$dir/state.ckpt"
rows "$dir/state.ckpt.trace.tsv" 3
outtree vb --input "$dir/cats.csv" --max-rounds 2 --resume "$dir/state.ckpt" \
  --output "$dir/resumed.ckpt"
rows "$dir/resumed.ckpt.trace.tsv" 5
# every row equal: one row type, whose structure step is in closed form
printf 'a,b\n1,2\n1,2\n1,2\n1,2\n' > "$dir/same.csv"
outtree vb --input "$dir/same.csv" --max-rounds 2 --output "$dir/same.ckpt"
rows "$dir/same.ckpt.trace.tsv" 3
# 200 000 rows over a 3 x 3 alphabet: the rounds run over the 9 row types,
# and the fit makes nothing of the rows squared (their W would take 320 GB)
awk 'BEGIN { print "a,b"; for (i = 0; i < 200000; i++) print i % 3 "," int(i / 7) % 3 }' \
  > "$dir/many.csv"
outtree vb --input "$dir/many.csv" --max-rounds 3 --output "$dir/many.ckpt"
rows "$dir/many.ckpt.trace.tsv" 4
# eval takes the row format from the model: a tabular model's rows are
# categorical with no family flag
outtree fit --input "$dir/cats.csv" --output "$dir/cats.model" --model-family tabular \
  --max-iters 3
outtree eval --input "$dir/cats.csv" --test "$dir/cats.csv" --model "$dir/cats.model" \
  --output "$dir/cscore.tsv"
rows "$dir/cscore.tsv" 1
# all-zero columns leave a tabular model no free parameter: the fit stops
# at once, on its empty gradient, and eval scores the model it writes
printf 'a,b\n0,0\n0,0\n0,0\n' > "$dir/zeros.csv"
outtree fit --input "$dir/zeros.csv" --output "$dir/zeros.model" --model-family tabular
grep -q "gradient_tolerance" "$dir/zeros.model.log"
outtree eval --input "$dir/zeros.csv" --test "$dir/zeros.csv" --model "$dir/zeros.model" \
  --output "$dir/zscore.tsv"
rows "$dir/zscore.tsv" 1
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
# numeric flags out of range are usage errors, checked as they are parsed
expect_error 2 semisup --input "$dir/labeled.csv" --label-column y --model "$dir/m.model" \
  --sigma-scale -1 --seed 4 --output "$dir/never.csv"
test "$(wc -l < "$dir/err")" -eq 1
# a stickiness of 1 draws no labelling with a minority: exit 2, not a hang
expect_error 2 semisup-bench --alpha-true 1 --seed 1 --output "$dir/never.tsv"
expect_error 2 sample --model "$dir/m.model" --rows 0 --seed 1 --output "$dir/never.csv"
expect_error 2 spiral --turns nan --seed 1 --output "$dir/never.csv"
expect_error 2 spiral --seed -1 --output "$dir/never.csv"
# one row cannot give both classes a minority: exit 2, not a hang
expect_error 2 semisup-bench --rows 1 --seed 1 --output "$dir/never.tsv"
expect_error 2 spiral-bench --rows 40 --folds 1 --bandwidth-grid 0 --seed 1 \
  --output "$dir/never.tsv"
test ! -e "$dir/never.csv" && test ! -e "$dir/never.tsv"
head -n 4 "$dir/state.ckpt" > "$dir/truncated.ckpt"
expect_error 3 vb --input "$dir/cats.csv" --resume "$dir/truncated.ckpt" \
  --output "$dir/never.ckpt"
# a labelled row of 1e200 overflows the weights: one JSON line, no warning
awk -F, -v OFS=, 'NR == 5 { $1 = $2 = $3 = "1e200" } 1' "$dir/labeled.csv" \
  > "$dir/overflow.csv"
expect_error 3 semisup --input "$dir/overflow.csv" --label-column y \
  --model "$dir/m.model" --seed 4 --output "$dir/never.csv"
test "$(wc -l < "$dir/err")" -eq 1
# a model document with a NaN mean is rejected as it is read
sed 's/^mu_c vector 3 [^ ]*/mu_c vector 3 nan/' "$dir/m.model" > "$dir/nan.model"
grep -q "^mu_c vector 3 nan " "$dir/nan.model"
expect_error 3 sample --model "$dir/nan.model" --rows 5 --seed 1 --output "$dir/never.csv"
test "$(wc -l < "$dir/err")" -eq 1
printf 'a,b\n0,1\n1.5,2\n' > "$dir/halves.csv"
expect_error 3 eval --input "$dir/cats.csv" --test "$dir/halves.csv" \
  --model "$dir/cats.model"
grep -q "row 3, column 'a'" "$dir/err"
# a file of blank lines has no attribute columns, a header alone no rows
printf '\n\n\n' > "$dir/blank.csv"
expect_error 3 fit --input "$dir/blank.csv" --output "$dir/never.model"
printf 'a,b\n' > "$dir/header.csv"
expect_error 3 vb --input "$dir/header.csv" --output "$dir/never.ckpt"
# one row gives no seed model in either family; a category of 1e12 would
# ask for a table of terabytes
printf 'a,b\n1,2\n' > "$dir/one.csv"
expect_error 3 fit --model-family kernel --input "$dir/one.csv" --output "$dir/never.model"
test "$(wc -l < "$dir/err")" -eq 1
printf 'a,b\n0,1\n1,1000000000000\n' > "$dir/huge.csv"
expect_error 3 fit --model-family tabular --input "$dir/huge.csv" --output "$dir/never.model"
grep -q "row 3, column 'b'" "$dir/err"
test ! -e "$dir/never.model"
# a 2-node edge list for 3 rows: no plot is written
printf 'x,y,z\n0,0,0\n1,1,1\n2,2,2\n' > "$dir/xyz.csv"
printf 'child,parent\n0,root\n1,0\n' > "$dir/two.edges"
expect_error 3 plotdata --kind scatter3d --input "$dir/xyz.csv" --edges "$dir/two.edges" \
  --output "$dir/never.tsv"
test ! -e "$dir/never.tsv"
