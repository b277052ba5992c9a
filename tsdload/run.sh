#!/usr/bin/env bash
# Builds the tsdload benchmark from source and runs it. Every build
# product, cache and scratch file stays under .bench_build in the
# directory it is run from (the repository root):
#
#   bash tsdload/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# The build needs the trussdiv module one directory up (see go.mod); run
# without it, the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=mod

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
bin="$out/tsdload-bin"
if ! (cd "$root/tsdload" && go build -buildvcs=false -ldflags "-X main.gitCommit=$commit" -o "$bin" .) >&2; then
	echo "tsdload: build failed" >&2
	exit 2
fi
exec "$bin" --workdir "$out/tsdload" "$@"
