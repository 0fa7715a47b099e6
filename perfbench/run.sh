#!/bin/sh
# Build the benchmark from the sources of this checkout, then run it:
#
#   sh perfbench/run.sh --workload sweep|compile|verify --seed N \
#     --seconds S --trace 0|1
#
# Build output goes to standard error, so the last line of standard
# output stays the benchmark's result.
set -e
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no ilp sources next to perfbench/; run from a checkout" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
revision=none
if [ -d .git ]; then
  revision=$(git rev-parse --short=12 HEAD 2>/dev/null || echo none)
fi
exec ./_build/default/perfbench/main.exe --revision "$revision" "$@"
