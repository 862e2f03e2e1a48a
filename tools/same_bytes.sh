#!/bin/sh
# Checks that a change leaves every output byte as its parent wrote it.
# Builds two source trees, the parent and the tree this script sits in,
# with the benches and examples; runs each of the 12 paper benches in its
# own directory and compares their stdout, exit status and CSVs with
# `diff -r` (the benches print no timings); then runs four lots through
# `shard_coordinator --shards=2` and compares the stores with `cmp`:
#
#   ideal       an ideal lot that also measures distortion
#   cmos035     generator and modulator both cmos035 (noisy modulators)
#   chopped     the chopped offset mode
#   dictionary  a small severity-grid dictionary
#
# Prints one line per output and exits 1 if any differs.  It is not part of
# the CMake build or CI.
#
#   tools/same_bytes.sh <parent-tree> <work-dir>
#
# <parent-tree> is an unpacked copy of the parent commit, for instance
# `git archive <commit> | tar -x -C <dir>`.  <work-dir> receives the two
# builds (build-parent, build-new), which a second run reuses, and the
# outputs (out-parent, out-new).  JOBS sets the build parallelism (default
# nproc).
set -e
if [ $# -ne 2 ]; then
    echo "usage: $0 <parent-tree> <work-dir>" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
new=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$2"
work=$(cd "$2" && pwd)
jobs=${JOBS:-$(nproc)}

build() {
    cmake -S "$2" -B "$work/build-$1" -DBISTNA_BUILD_TESTS=OFF > "$work/configure-$1.log"
    cmake --build "$work/build-$1" -j "$jobs" > "$work/build-$1.log"
}
build parent "$parent"
build new "$new"

lots="ideal cmos035 chopped dictionary"
manifest() {
    engine='"engine": {"threads": 1, "lanes": 4}'
    case $1 in
    ideal) echo "{\"dice\": 8, \"measure_distortion\": true, $engine}" ;;
    cmos035) echo "{\"dice\": 8, \"generator\": \"cmos035\", \"modulator\": \"cmos035\", $engine}" ;;
    chopped) echo "{\"dice\": 8, \"offset\": \"chopped\", $engine}" ;;
    dictionary) echo "{\"workload\": \"dictionary\", \"dictionary\": {\"grid_points\": 2}, $engine}" ;;
    esac
}

for side in parent new; do
    build=$work/build-$side
    out=$work/out-$side
    rm -rf "$out"
    mkdir -p "$out/bench" "$out/lots"
    for bench in "$build"/bench_*; do
        name=$(basename "$bench")
        mkdir "$out/bench/$name"
        status=0
        (cd "$out/bench/$name" && "$bench" > stdout.txt 2>&1) || status=$?
        echo "$status" > "$out/bench/$name/exit_status"
    done
    for lot in $lots; do
        manifest "$lot" > "$out/lots/$lot.json"
        "$build/shard_coordinator" --manifest="$out/lots/$lot.json" \
            --out="$out/lots/$lot.store" --shards=2 > "$out/lots/$lot.log" 2>&1 ||
            echo "$side: shard_coordinator failed on $lot (see $out/lots/$lot.log)"
    done
done

differ=0
benches=$(ls "$work/out-parent/bench")
if [ "$(echo "$benches" | wc -l)" -ne 12 ]; then
    echo "expected 12 paper benches, found: $benches"
    differ=1
fi
for name in $benches; do
    if diff -r "$work/out-parent/bench/$name" "$work/out-new/bench/$name" > /dev/null 2>&1; then
        echo "same    bench $name"
    else
        echo "DIFFERS bench $name"
        differ=1
    fi
done
for lot in $lots; do
    if cmp -s "$work/out-parent/lots/$lot.store" "$work/out-new/lots/$lot.store"; then
        echo "same    store $lot ($(wc -c < "$work/out-new/lots/$lot.store") bytes)"
    else
        echo "DIFFERS store $lot"
        differ=1
    fi
done
exit $differ
