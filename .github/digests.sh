#!/usr/bin/env bash
# Checks that every supported Python must pass: each pins CLI output bytes
# that a change in the interpreter's big-integer or Fraction code could move
# (3.12 and 3.13 both changed them).  Needs no numpy.  Run it from the
# repository root with the package importable, for example
#
#   PYTHONPATH=src bash .github/digests.sh
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

egyptfrac() { python3 -m egyptfrac "$@"; }
# check NAME DIGEST: the file $tmp/NAME must hash to DIGEST
check() { echo "$2  $tmp/$1" | sha256sum -c -; }
full() {
  python3 -c "import json, sys; print(json.load(open('bench/digests.json'))['full'][sys.argv[1]])" "$1"
}

# the full-size expand, recover and gaps runs of the benchmark's cli-mix;
# gaps --method both is the only CLI comparison of the modular kernel with
# exact arithmetic
egyptfrac expand --r 185/358 --kind pseudo --terms 20 --format csv > "$tmp/expand"
check expand "$(full expand)"
egyptfrac recover --sum "(5-1 sqrt 5)/2" --beta 1/3 --terms 18 --format json > "$tmp/recover"
check recover "$(full recover)"
egyptfrac gaps --r 185/358 --terms 20 --method both > "$tmp/gaps"
check gaps "$(full gaps)"

# the benchmark's recover is quadratic; a rational recover prints its rows
# through expand's row-from-the-row-before path (Sylvester's sequence, 22 terms)
egyptfrac recover --sum 1 --beta 1 --terms 22 --format csv > "$tmp/recover-rational"
check recover-rational aeed394f12bceec7df7b9ef280f079753b5dc9031e52342a09ea641b40f1473f

# the human tables, which the benchmark pins only for gaps --method both
egyptfrac expand --r 185/358 --kind pseudo --terms 14 > "$tmp/expand-table"
check expand-table cb8bb1fa8fdb7225d1c77c006622b81fa45e9c8b10d0f1323f22ce709863f456
egyptfrac recover --sum "(5-1 sqrt 5)/2" --beta 1/3 --terms 12 > "$tmp/recover-table"
check recover-table c686614ca2a73296fd6b7baf2cb263bde3204fce4624b1787275f3c7f7bcb453
egyptfrac gaps --r 11/29 --terms 12 --method fast > "$tmp/gaps-table"
check gaps-table 0e2ddf78f369d04512d5a4ea248d5e1bba672c4453fa2f2f74d2e58a12955015
egyptfrac seq growth --m 1 --depth 8 > "$tmp/growth-table"
check growth-table 95efc40183ef0e27964e595057059a7104dd1f0e54bad36a65a16d94b4244179
egyptfrac seq sylvester --m 2 --terms 8 > "$tmp/sylvester-table"
check sylvester-table e58da22cb6227722e705bdad98b4963999d9143ac608f7e63c288b236cc37814

# the growth estimate's JSON keys come from its record's fields, in order;
# the scan summary is pinned by the benchmark, the walk JSON by the workflow's
# full-size walk digests
egyptfrac seq growth --m 1 --depth 8 --format json > "$tmp/growth-json"
check growth-json a160cce42a32b8b4e5b81ca0650aac6a456980a73d38706fd59600c8f733da7e

# no benchmark digest pins seq; F_{2^24} (11.6M bits) takes the big-integer
# products and the decimal conversion to full size
egyptfrac seq fib2 --terms 24 --format csv > "$tmp/fib2"
check fib2 fe08c283bf1a270de3c3c51826a58fc1861e51a423d93019d7042f80830709c1

# the benchmark's selfcheck scans only q <= 60, where one pair reaches the
# residue chain; at q <= 600, 293 do, and both worker counts must write the
# reference bytes
for jobs in 1 2; do
  egyptfrac scan --qmin 1 --qmax 600 --maxiter 10000 --jobs "$jobs" --out "$tmp/scan-j$jobs.csv"
  check "scan-j$jobs.csv" "$(full scan.csv)"
done

# no digest pins q near 10^4; each of these 21 groups rechecks its deepest
# row's exact prefix against the residue chain from d_1 = q, and both worker
# counts must write the same bytes
for jobs in 1 2; do
  egyptfrac scan --qmin 9990 --qmax 10010 --maxiter 10000 --jobs "$jobs" --out "$tmp/far-j$jobs.csv"
done
cmp "$tmp/far-j1.csv" "$tmp/far-j2.csv"

# expand prints each row from the row before in decimal arithmetic; the rows
# must equal those printed by the interpreter's own str() of the same
# records (tests/oracles.py)
oracle() {
  egyptfrac expand --r 185/358 "$@" --format csv > "$tmp/got.csv"
  python3 tests/oracles.py --r 185/358 "$@" > "$tmp/want.csv"
  cmp "$tmp/got.csv" "$tmp/want.csv"
}
for kind in greedy odd pseudo; do
  oracle --kind "$kind" --terms 20
done
# the oracle decides the digit cap by itself: at 1 every d is blank, and
# 185/358's d_14 has exactly 3,437 digits, so at 3437 row 14 shows its d and
# row 15 (6,870 digits) does not
for cap in 1 3437 1000000; do
  oracle --kind pseudo --terms 20 --digit-cap "$cap"
done
