#!/usr/bin/env bash
# CI perf gate: benchmark a base ref against the checked-out tree and fail if
# an end-to-end metric got worse by more than its bound in BENCHMARK.json.
#
#   .github/bench-gate.sh <base-ref>
#
# Runs all four workloads short — the two HoneyBadger ones (one bound by
# threshold crypto, one by the scheduler, codec, transport and allocator),
# alea_overload (the one with crash-and-rejoin) and dumbo_clustered (the
# two-tier deployment, whose fixed-interval arrivals make airtime_eff track
# the bytes on air per second) — for three input seeds, alternating which
# side goes first, then hands both record files to
# `benchmark/run.sh -compare`, whose exit code is this script's: non-zero on
# `worse`. A run with a failed epoch — a rejoiner its peers stranded, say —
# makes the benchmark exit non-zero, which stops the gate at once. The
# table it prints also says whether the trajectory digests still agree.
# The base is exported with `git archive` into a temporary directory (no
# worktree to register or prune); each side builds its own benchmark from
# its own source, and nothing is fetched. About two minutes on a 2-core
# runner.
set -euo pipefail
base="${1:?usage: bench-gate.sh <base-ref>}"
root="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"

run() { # run <checkout> <records> <workload> <seed>
	bash "$1/benchmark/run.sh" -workload "$3" -seed "$4" -seconds 4 -trace 0 -json "$2" >/dev/null
}
for seed in 1 2 3; do
	for workload in hb_lc_baseline hb_sc_batched alea_overload dumbo_clustered; do
		if ((seed % 2)); then
			run "$tmp/base" "$tmp/base.jsonl" "$workload" "$seed"
			run "$root" "$tmp/head.jsonl" "$workload" "$seed"
		else
			run "$root" "$tmp/head.jsonl" "$workload" "$seed"
			run "$tmp/base" "$tmp/base.jsonl" "$workload" "$seed"
		fi
	done
done
bash "$root/benchmark/run.sh" -compare "$tmp/base.jsonl" "$tmp/head.jsonl"
