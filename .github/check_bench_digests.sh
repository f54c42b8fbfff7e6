#!/bin/sh
# Run each benchmark workload and seed listed in .github/bench-digests.txt
# for half a second and fail unless every op passes its check and the run
# prints the pinned digest of its outputs. Run from the root of a checkout:
#
#     sh .github/check_bench_digests.sh
#
# The digests were taken with Python 3.11, the version the CI job runs.
status=0
while read -r workload seed digest; do
    if ! out=$(python3 bench/run.py --workload "$workload" --seed "$seed" --seconds 0.5 --trace 0); then
        echo "$workload seed $seed: the run failed"
        status=1
        continue
    fi
    if ! printf '%s\n' "$out" | tail -n 1 | python3 -c 'import json, sys; sys.exit(not json.load(sys.stdin)["correct"])'; then
        echo "$workload seed $seed: an op failed its check"
        status=1
    fi
    if printf '%s\n' "$out" | grep -qx "digest $digest (same across every checked op)"; then
        echo "$workload seed $seed: digest $digest"
    else
        echo "$workload seed $seed: expected digest $digest, got:"
        printf '%s\n' "$out" | grep '^digest'
        status=1
    fi
done < .github/bench-digests.txt
exit $status
