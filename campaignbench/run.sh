#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it.
# Usage (from the checkout root):
#   bash campaignbench/run.sh --workload minimd-ml --seed 1 --seconds 30 --trace 0
# Everything the build and the run leave behind goes under .bench_build and
# .bench_out at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache" GOPATH="${build}/gopath" GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "${root}/campaignbench" && go build -trimpath -o "${build}/campaignbench" .)
exec "${build}/campaignbench" -root "${root}" "$@"
