#!/usr/bin/env bash
# bench_e2e: the whole-pipeline benchmark. Options and output are
# described in run.py and README.md.
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
