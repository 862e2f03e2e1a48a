#!/bin/sh
# Times sd::modulator_bank's kernel at every vector width on one host, for
# two source trees (a change and its parent).  lotbench and the tests only
# run the kernel clone the host dispatches; this builds the bank sources
# once per -march with the clones compiled out, so each build runs the
# width its target gives (x86-64-v4: 8 doubles, x86-64-v3: 4, x86-64: 2).
# Needs GCC 12 or later and a host that runs AVX-512.
#
#   tools/isa_bank_bench.sh build <source-root> <out-dir>
#       builds <out-dir>/bench_<march> from <source-root>'s bank sources
#       and this directory's isa_bank_bench.cpp; <out-dir>/override holds a
#       copy of <source-root>'s common/kernel.hpp with the clones off,
#       earlier on the include path than <source-root>/src.
#   tools/isa_bank_bench.sh rounds <parent-out> <new-out> <rounds> [cpu]
#       prints "march mode lanes parent-ns new-ns" rows, ns per lane-sample
#       (per channel for the ideal and cmos pairs), the two sides run back
#       to back on one core (default 0).  A shared host moves one reading
#       by 20% or more: compare the ranges over several rounds.
#
# Rows: the pair (ideal, cmos), grounded and one-bank (single) entries at
# 16 lanes under each -march; then, under x86-64-v4, the pair and grounded
# entries at every other bank width the lotbench workloads run (1, 2, 6, 8,
# 9, 15; cmos at 8 for lot_cmos035's 8-die daemon requests) and at 24 and
# 33 lanes, which only the tests run.
set -e
marches="x86-64-v4 x86-64-v3 x86-64"
case "$1" in
build)
    src=$2
    out=$3
    here=$(dirname "$0")
    mkdir -p "$out/override/common"
    sed 's/^#if defined(__x86_64__) && defined(__GNUC__)/#if 0 \&\& defined(__x86_64__)/' \
        "$src/src/common/kernel.hpp" > "$out/override/common/kernel.hpp"
    grep -q '^#if 0 &&' "$out/override/common/kernel.hpp"
    for march in $marches; do
        g++ -std=c++20 -O3 -DNDEBUG -ffp-contract=off -march=$march \
            -I "$out/override" -I "$src/src" "$here/isa_bank_bench.cpp" \
            "$src/src/sd/modulator_bank.cpp" "$src/src/sd/modulator.cpp" \
            "$src/src/common/normal.cpp" "$src/src/common/rng.cpp" \
            "$src/src/common/error.cpp" -o "$out/bench_$march"
    done
    ;;
rounds)
    parent=$2
    new=$3
    cpu=${5:-0}
    row() {
        printf '%s %s %s %s %s\n' "$1" "$2" "$3" \
            "$(taskset -c "$cpu" "$parent/bench_$1" "$3" "$2")" \
            "$(taskset -c "$cpu" "$new/bench_$1" "$3" "$2")"
    }
    round=0
    while [ "$round" -lt "$4" ]; do
        for march in $marches; do
            for mode in ideal cmos grounded single; do
                row "$march" "$mode" 16
            done
        done
        for lanes in 1 2 6 8 9 15 24 33; do
            row x86-64-v4 ideal "$lanes"
            row x86-64-v4 grounded "$lanes"
        done
        row x86-64-v4 cmos 8
        round=$((round + 1))
    done
    ;;
*)
    echo "usage: $0 build <source-root> <out-dir> | rounds <parent-out> <new-out> <rounds> [cpu]" >&2
    exit 2
    ;;
esac
