#!/bin/sh
# Usage: cli_golden.sh RV_EXE
# Runs the rv CLI on a fixed list of deterministic commands and prints,
# for each, the command line, its combined stdout/stderr and its exit
# status.  The runtest rule in test/dune diffs this transcript against
# golden/cli.golden, so any change to what these commands print or how
# they exit shows up as a diff.  The two `sweep` lines overlap CI's
# "Smoke-test the multicore sweep engine" step, which cmp's the same
# -j 1 and -j 2 tables against each other.
rv=$1
while read -r args; do
  echo "\$ rv $args"
  # shellcheck disable=SC2086 # each line is a word-split argv
  "$rv" $args 2>&1
  echo "[exit $?]"
done <<'COMMANDS'
run
run -g torus:3x4 -e euler -a cheap --start-b 5 --delay-b 3 --trace
run -g grid:3x4 -a fwr:2 --parachute --trace
sweep -g ring:16 -L 16 -j 1
sweep -g ring:16 -L 16 -j 2
explore -g petersen
lb cheap
gather
async
dot -g ring:6
exp A
run -g bogus
run -a bogus
run -e bogus
COMMANDS
