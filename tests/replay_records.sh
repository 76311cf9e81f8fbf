#!/bin/sh
# Replay every fixture record through the installed tpim script, under
# PYTHONHASHSEED 0 and 1: bit-exact replay must not depend on the string
# hashing of the process. Without an installed tpim it runs the package in
# src/ as python -m twophase_im.cli. Every record is replayed, whatever
# fails before it; the script then lists the records that did not replay,
# with their hash seed, and exits non-zero if there is any. Run it from the
# repository root:
#
#   sh tests/replay_records.sh [output-dir]
#
# The records in tests/data/records/ name builtin graphs. Of those in
# tests/data/, native-select.json reads file:ex1.tpim, relative to the
# working directory, and the others read a native graph beside them.
set -eu
data="$PWD/tests/data"
src="$PWD/src"
if ! command -v tpim > /dev/null; then
    tpim() { PYTHONPATH="$src" python -m twophase_im.cli "$@"; }
fi
out="${1:-$(mktemp -d)}"
mkdir -p "$out/native"
(cd "$out/native" && tpim datasets export-builtin example1 --output ex1.tpim > /dev/null)
failed=""
# replay DIR RECORD OUTPUT: rerun RECORD from DIR, noting it if it fails
replay() {
    if ! (cd "$1" && tpim rerun "$2" --output-dir "$3"); then
        failed="$failed
PYTHONHASHSEED=$PYTHONHASHSEED $2"
    fi
}
for hash_seed in 0 1; do
    export PYTHONHASHSEED=$hash_seed
    for r in "$data"/records/*.json; do
        replay "$PWD" "$r" "$out/replay"
    done
    for r in "$data"/*.json; do
        case "$r" in
            */native-select.json) replay "$out/native" "$r" replay ;;
            *) replay "$data" "$r" "$out/data" ;;
        esac
    done
done
if [ -n "$failed" ]; then
    echo "records that did not replay:$failed" >&2
    exit 1
fi
echo "every fixture record replays under PYTHONHASHSEED 0 and 1"
