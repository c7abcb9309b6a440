#!/usr/bin/env bash
# Store determinism contract: same-seed umon_sim runs with a multi-shard
# collector must write byte-identical segment files. Shard workers decode
# in parallel, but the collector flushes sealed epochs into the analyzer
# (and the store behind it) in seal order, so thread timing must not
# reach the bytes on disk.
#
#   store_determinism.sh UMON_SIM WORK_DIR
set -eu

SIM=$(readlink -f "$1")
WORK=$2
RUNS=3

rm -rf "$WORK"
mkdir -p "$WORK"
for i in $(seq 1 "$RUNS"); do
  "$SIM" --ms 8 --load 0.1 --collector-shards 4 \
      --store-dir "$WORK/store_$i" > "$WORK/run_$i.log" 2>&1
done

segs=("$WORK"/store_1/*.useg)
if [ ! -e "${segs[0]}" ]; then
  echo "no segment files written; log:" >&2
  cat "$WORK/run_1.log" >&2
  exit 1
fi
for i in $(seq 2 "$RUNS"); do
  if ! diff <(ls "$WORK/store_1") <(ls "$WORK/store_$i") >&2; then
    echo "run $i wrote a different set of files than run 1" >&2
    exit 1
  fi
  for f in "${segs[@]}"; do
    if ! cmp "$f" "$WORK/store_$i/$(basename "$f")"; then
      echo "segment $(basename "$f") differs between same-seed runs" >&2
      exit 1
    fi
  done
done
echo "store_determinism: ${#segs[@]} segment file(s) identical over $RUNS runs"
