#!/usr/bin/env bash
# Production-coverage census: which internal/ functions does no real entry
# point execute?
#
#   .github/prodcover.sh [checkout]
#
# Builds the three commands, every example and benchmark/ with
# `-cover -coverpkg=repro/...`, runs every entry point the repository
# documents — `wbft-bench -exp all`, the README's `wbft` invocations plus the
# flags they miss, `wbft-packets`, the examples, and the benchmark on all four
# workloads in both modes — into one GOCOVERDIR, then lists the internal/
# functions at 0 % with `go tool covdata func`. Exits non-zero when one of
# them is not named in .github/prodcover.allow (name, then a one-line reason:
# test observer, test fake or driver, reference, error path), or when the
# allowlist names a function that ran or no longer exists, and when an entry
# point fails: a failing run is named, the rest still run, and the census is
# still printed, so one failure hides no other. Everything is built into a
# temporary directory; nothing is fetched. ≈ 45 s on two cores.
set -euo pipefail
root="$(cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}" && pwd)"
allow="$root/.github/prodcover.allow"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin" "$tmp/cov" "$tmp/out"
export GOCOVERDIR="$tmp/cov" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

cd "$root"
for cmd in wbft wbft-bench wbft-packets; do
	go build -cover -coverpkg=repro/... -o "$tmp/bin/$cmd" "./cmd/$cmd"
done
for ex in examples/*/; do
	go build -cover -coverpkg=repro/... -o "$tmp/bin/ex-$(basename "$ex")" "./$ex"
done
go build -C benchmark -cover -coverpkg=repro/... -o "$tmp/bin/benchmark" .

cd "$tmp/out" # -json and -csv files land here
failed="" # the entry points that exited non-zero, one a line
step() {
	echo "prodcover: $*" >&2
	"$@" >/dev/null || {
		echo "prodcover: exit $?: $*" >&2
		failed+="  $*"$'\n'
	}
}
wbft() { step "$tmp/bin/wbft" "$@"; }

step "$tmp/bin/wbft-bench" -list
step "$tmp/bin/wbft-bench" -exp all -parallel 4 -epochs 1 -reps 1 -chain-epochs 2 -json all.json -csv all.csv
step "$tmp/bin/wbft-bench" -exp chain -filter "HB-SC/batched" -chain-epochs 2 -v
step "$tmp/bin/wbft-packets"
for ex in "$tmp"/bin/ex-*; do
	step "$ex"
done

# README.md, "Single simulations from flags", in order, shortened where the
# epoch count does not change which code runs.
wbft -protocol honeybadger -coin SC -epochs 2
wbft -protocol dumbo -coin LC -baseline -loss 0.05 -crash 3
wbft -protocol beat -coin CP -topology clustered
wbft -workload chain -depth 2 -epochs 4
wbft -workload chain -protocol dumbo -depth 4 -epochs 6 -txinterval 2s
wbft -topology clustered -workload chain -epochs 3 -txinterval 2s
wbft -workload chain -epochs 14 -scenario "crash@4m:2;recover@8m:2"
wbft -scenario "partition@1m:0,1/2,3;heal@3m;jam@4m+60s"
wbft -workload chain -epochs 8 -scenario "byz@0s:3:equivocate"
wbft chain -epochs 6 -arrival poisson -rate 0.08 -mempool-cap 2048
wbft chain -epochs 6 -arrival onoff -rate 0.08 -clients 500 -mempool-cap 2048
wbft -topology clustered -workload chain -epochs 4 -arrival poisson -rate 0.05
wbft chain -epochs 6 -scenario "mobility@0s:20,900"
wbft chain -epochs 6 -scenario "dutycycle@0s:0.8,60s;churn@30s:1m,30s"
# What the README's list leaves out: the fourth engine, the heavy parameter
# set, the delay adversary, the Report's JSON writer, and an Alea node that
# crashes after proposing and comes back with its epochs as it left them.
# A crash pauses a node, so no crash reaches Transport.request, which
# answers a peer whose NACK row lost a bit: the Byzantine equivocators of
# wbft-bench's byz and alea sweeps do.
wbft -protocol alea -coin SC -heavy -epochs 1 -scenario "delay:0.25,10s"
wbft chain -protocol alea -epochs 6 -scenario "crash@2m:2;recover@4m:2" -json report.json

# The benchmark's core rigs (benchmark/layers.go) are the one entry point that
# runs core.New, Transport.BindStation and Transport.ReceiveFrame — a
# standalone transport, epoch 0 of a mux of its own; every node is built on
# core.NewMux. They ran, so they are not in the allowlist.
cd "$root"
for w in hb_sc_batched hb_lc_baseline alea_overload dumbo_clustered; do
	for trace in 0 1; do
		step "$tmp/bin/benchmark" -workload "$w" -seed 1 -seconds 1 -trace "$trace"
	done
done

# One line per function: "<file>:<line>:\t<name>\t<percent>%"; a method's name
# carries its receiver, so file:name is the key.
go tool covdata func -i "$tmp/cov" | awk '$1 ~ /^repro\/internal\//' >"$tmp/funcs"
awk '$NF == "0.0%" { split($1, p, ":"); print p[1] ":" $2 }' "$tmp/funcs" | sort >"$tmp/zero"
echo "prodcover: $(wc -l <"$tmp/zero") of $(wc -l <"$tmp/funcs") internal/ functions never executed:"
sed 's/^/  /' "$tmp/zero"

grep -v '^\s*\(#\|$\)' "$allow" | awk '{ print $1 }' | sort >"$tmp/allowed"
fail=0
if [ -n "$failed" ]; then
	echo "prodcover: entry points that exited non-zero (the census counts what they ran before they stopped):" >&2
	printf '%s' "$failed" >&2
	fail=1
fi
if new=$(comm -23 "$tmp/zero" "$tmp/allowed") && [ -n "$new" ]; then
	echo "prodcover: never executed and not in .github/prodcover.allow — delete it, run it, or allow it with a reason:" >&2
	echo "$new" | sed 's/^/  /' >&2
	fail=1
fi
if stale=$(comm -13 "$tmp/zero" "$tmp/allowed") && [ -n "$stale" ]; then
	echo "prodcover: in .github/prodcover.allow but executed or gone — drop the line:" >&2
	echo "$stale" | sed 's/^/  /' >&2
	fail=1
fi
exit $fail
