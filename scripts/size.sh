#!/bin/sh
# Size report: the numbers a simplicity PR quotes in CHANGES.md, from one
# command (run from the repository root; CI prints it on every push).
# Lines are non-blank lines of Go outside bench/; flags are what each
# binary's -h lists.
set -eu
lines() { find . -name '*.go' "$@" ! -path './bench/*' -print0 | xargs -0 cat | grep -cv '^[[:space:]]*$'; }
echo "non-test Go lines: $(lines ! -name '*_test.go')"
echo "test Go lines:     $(lines -name '*_test.go')"
for bin in avgi avgisim avgid; do
	echo "$bin flags: $(go run ./cmd/$bin -h 2>&1 | grep -cE "$(printf '^  -[a-z0-9-]+( [a-z0-9]+)?($|\t)')")"
done
