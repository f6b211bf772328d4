#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to dune's _build.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/perfbench.ml ]; then
  echo "perfbench: run from the root of a repository checkout (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi
dune build --root . --cache=disabled --display quiet ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
