#!/bin/sh
# The command-line contract of one voprof binary (tools/command_line.hpp).
#
#   sh tests/cli_contract.sh BINARY WORDS VALUE_FLAG INT_FLAG
#
# WORDS are the command words and operands placed before the flags
# ("" for none, "train", "trace summary t.json"). VALUE_FLAG is a flag
# the command declares that takes a value, INT_FLAG one declared as an
# integer; "-" stands for none. Checks that:
#   * --help and -h exit 0 with a "usage:" line on stdout;
#   * an unknown flag, VALUE_FLAG without its value, a stray argument
#     and a malformed INT_FLAG each exit 2 before any work runs: nothing
#     on stdout, and stderr names the offending token and shows usage.
set -u
bin=$1 words=$2 value_flag=$3 int_flag=$4
err=$(mktemp)
trap 'rm -f "$err"' EXIT
status=0

# check WANT_RC NEEDLE ARG...: run "$bin" $words ARG... and compare.
check() {
  want=$1 needle=$2
  shift 2
  # shellcheck disable=SC2086  # $words is split on purpose
  out=$("$bin" $words "$@" 2>"$err")
  rc=$?
  if [ "$want" = 0 ]; then
    printf '%s\n' "$out" | grep -q '^usage: ' && [ "$rc" = 0 ] && return
  else
    [ "$rc" = 2 ] && [ -z "$out" ] && grep -qF -- "$needle" "$err" &&
      grep -q '^usage: ' "$err" && return
  fi
  echo "FAIL: $bin $words $* -> exit $rc, want $want (needle '$needle')"
  echo "stdout: $out"
  echo "stderr: $(cat "$err")"
  status=1
}

check 0 '' --help
check 0 '' -h
check 2 --bogus --bogus 1
check 2 stray-arg stray-arg
[ "$value_flag" = - ] || check 2 "$value_flag" "$value_flag"
[ "$int_flag" = - ] || check 2 "$int_flag" "$int_flag" abc
exit $status
