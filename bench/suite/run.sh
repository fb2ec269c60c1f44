#!/bin/sh
# Build the daemon and the benchmark from source, then run the benchmark
# with the given arguments (see README.md), from the repository root.
# The build stays inside the checkout: no shared dune cache.
set -e
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -f bin/dbp.ml ]; then
  echo "bench/suite/run.sh: needs a full checkout of the repository" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bin/dbp.exe ./bench/suite/main.exe 1>&2
exec ./_build/default/bench/suite/main.exe "$@"
