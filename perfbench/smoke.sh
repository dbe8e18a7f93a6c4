#!/usr/bin/env bash
# Smoke test of the benchmark: every workload at a tiny size, untraced
# and traced. Each run must print every metric BENCHMARK.json names, with
# its unit, and finish with nothing failed. The listed workloads print
# exactly those metrics; [served], which is not listed, also prints
# sustained_ops_s. Run from the repository root:
#   bash perfbench/smoke.sh
set -euo pipefail
dune build --root . ./perfbench/main.exe
for w in lookup churn served graph; do
  for t in 0 1; do
    out=$(./_build/default/perfbench/main.exe --workload "$w" --seed 1 --seconds 1 --trace "$t" --scale 10)
    printf '%s\n' "$out" | grep -q '^failed_frac  *0.0000 ratio$' || {
      printf '%s\n' "$out" | grep -v '^{' >&2
      echo "smoke: $w trace=$t: failed_frac is not 0" >&2
      exit 1
    }
    printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
w, t = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
r = json.loads(sys.stdin.read())
want = spec["per_layer" if t == "1" else "end_to_end"]
got = r["metrics"]
assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1, (w, t, r["failed"])
names = {m["name"] for m in want}
listed = w in {x["name"] for x in spec["workloads"]}
assert (set(got) == names) if listed else (set(got) >= names), (w, t, sorted(set(got) ^ names))
for m in want:
    assert got[m["name"]]["unit"] == m["unit"], (w, t, m["name"])
print("smoke: %s trace=%s ok (%d metrics)" % (w, t, len(got)))
' "$w" "$t"
  done
done
