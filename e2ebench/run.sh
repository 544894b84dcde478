#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it. From the root of
# a checkout:
#
#   bash e2ebench/run.sh --workload des_p16 --seed 1 --seconds 30 --trace 0
#
# The build goes to _build/ (dune's shared cache is disabled, so nothing
# is written outside the checkout); build output goes to stderr, so the
# last line of stdout is the benchmark's result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f e2ebench/main.ml ]; then
  echo "e2ebench: run from the root of a checkout of the repository" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2ebench/main.exe >&2
exec ./_build/default/e2ebench/main.exe "$@"
