#!/usr/bin/env bash
# Run every in-tree experiment grid and collect dated run folders under
# experiments/ (override with OUT=...). Fails if any grid's pass criterion
# fails, so the committed DESIGN.md claims stay regenerable with one command:
#
#   ./scripts/experiments/run_all.sh
#
# The paper grids (scripts/paper/) are not run here: their verdict grades the
# reproduction against the published numbers and names rows that fail for
# reasons DESIGN.md "Paper fidelity" explains. Run them one at a time with
# blasys-exp -grid scripts/paper/<grid>.json.
#
# A fixed STAMP=YYYY-MM-DD_hhmmss makes the folder names reproducible.
set -euo pipefail
cd "$(dirname "$0")/../.."

OUT="${OUT:-experiments}"
STAMP="${STAMP:-$(date -u +%Y-%m-%d_%H%M%S)}"

go build -o /tmp/blasys-exp ./cmd/blasys-exp

status=0
for grid in scripts/experiments/*.json; do
  name="$(basename "$grid" .json)"
  echo "=== $name ==="
  if ! /tmp/blasys-exp -grid "$grid" -out "$OUT" -stamp "$STAMP" -quiet; then
    echo "FAIL: $name" >&2
    status=1
  fi
done
exit $status
