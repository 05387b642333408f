#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run from the root of a full checkout.  The last line on stdout is the
# JSON result; build output and the human-readable report go to stderr.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full checkout (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
