#!/usr/bin/env bash
# Build the benchmark and the qnet_serve daemon from source, then run
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# from the repository root. Build output goes to stderr; the last line
# of stdout is the run's JSON result. Fails (without a result) when the
# repository's sources are not there to build.
set -euo pipefail

command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true

# build inside the checkout only, without dune's shared cache
export DUNE_CACHE=disabled
dune build --root . ./perfbench/qbench.exe ./bin/qnet_serve.exe 1>&2
exec ./_build/default/perfbench/qbench.exe "$@"
