#!/bin/sh
# Replay every fixture record through the installed tpim script, under
# PYTHONHASHSEED 0 and 1: bit-exact replay must not depend on the string
# hashing of the process. Exits non-zero at the first record that does not
# replay. Run it from the repository root:
#
#   sh tests/replay_records.sh [output-dir]
#
# The 22 records in tests/data/records/ name builtin graphs. Of the 4 in
# tests/data/, native-select.json reads file:ex1.tpim, relative to the
# working directory, and the others read file:family8.tpim, the native
# graph beside them.
set -eu
data="$PWD/tests/data"
out="${1:-$(mktemp -d)}"
mkdir -p "$out/native"
(cd "$out/native" && tpim datasets export-builtin example1 --output ex1.tpim > /dev/null)
for hash_seed in 0 1; do
    export PYTHONHASHSEED=$hash_seed
    for r in "$data"/records/*.json; do
        tpim rerun "$r" --output-dir "$out/replay"
    done
    (cd "$out/native" && tpim rerun "$data/native-select.json" --output-dir replay)
    for r in oracle-family-f.json oracle-family-sigma.json select-spic.json; do
        (cd "$data" && tpim rerun "$r" --output-dir "$out/oracle-family")
    done
    echo "PYTHONHASHSEED=$hash_seed: every fixture record replays"
done
