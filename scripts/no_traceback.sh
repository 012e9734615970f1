#!/usr/bin/env bash
# Run a command; fail if it fails OR if it printed a Python traceback to
# stderr. The live CI gates run under this: asyncio teardown noise
# ("Exception in callback ... CancelledError") does not change an exit
# code, so without the grep it could come back unnoticed.
#
#   bash scripts/no_traceback.sh python -m repro bench --suite live --check
set -u
log=$(mktemp)
trap 'rm -f "$log"' EXIT
"$@" 2> "$log"
status=$?
cat "$log" >&2
if grep -q "Traceback" "$log"; then
    echo "no_traceback: stderr contains a Python traceback" >&2
    exit 1
fi
exit "$status"
