#!/bin/sh
# Named-test gate: sh scripts/gates.sh LOG NAME...
# Fails unless every named test shows a "--- PASS: NAME (" line in LOG, the
# output of a `go test -v` run, so a CI gate can require tests by name
# without running them a second time. A renamed, skipped or failed test, or
# one that never ran, fails the gate.
set -eu
log=$1
shift
status=0
for t in "$@"; do
	grep -qF -- "--- PASS: $t (" "$log" || { echo "$t did not pass" >&2; status=1; }
done
exit $status
