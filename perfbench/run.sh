#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it with the given
# arguments; run it from the repository root. See README.md here.
#
# On x86-64 every branch is kept off 32-byte boundaries. Intel CPUs with
# the jump-conditional-code erratum fix do not cache decoded instructions
# for a jump that crosses or ends on such a boundary, so a hot loop's speed
# otherwise depends on where the linker happens to place it. Without this,
# building the same source from another directory moved
# cluster_checkpointed's wall_s by 1.5x on a Xeon.
set -euo pipefail
if [ "$(uname -m)" = x86_64 ]; then
    export RUSTFLAGS="${RUSTFLAGS:-} -C llvm-args=-x86-branches-within-32B-boundaries"
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- "$@"
