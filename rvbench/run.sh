#!/usr/bin/env bash
# Build rv and the benchmark from source, then run one workload:
#
#   bash rvbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object (see rvbench/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build artefact inside the tree (no shared dune cache).
export DUNE_CACHE=disabled
# A shell that has not loaded the opam environment finds dune through opam.
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
dune build --root . ./bin/rv.exe ./rvbench/rvbench.exe 1>&2
exec ./_build/default/rvbench/rvbench.exe --rv ./_build/default/bin/rv.exe "$@"
