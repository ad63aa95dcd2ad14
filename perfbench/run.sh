#!/usr/bin/env bash
# Build the checker and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root.  Build output goes to stderr, so the last
# line of standard output is the benchmark's result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: no checker sources here; run from the repository root" >&2
  exit 2
fi

# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe ./bin/oqec_cli.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
