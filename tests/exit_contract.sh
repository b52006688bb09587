#!/bin/sh
# How a voprof binary reports a bad command line or a bad input file
# (tools/command_line.hpp, voprof/util/result.hpp).
#
#   sh tests/exit_contract.sh usage BINARY ARG...
#       A command line the flag table rejects (a missing required flag,
#       a value outside a flag's choices or below its bound): exit 2,
#       nothing on stdout, the error and "usage:" on stderr, before any
#       work runs.
#   sh tests/exit_contract.sh RC BINARY ARG...
#       An input the program cannot read: exit RC, nothing on stdout,
#       and exactly one line "voprofctl: <code> error: ... (at ...)" on
#       stderr, never a "precondition failed" report.
# Either way the existing output file keep.txt must keep its contents.
#
# Runs in a fresh directory holding these fixtures, which ARGs may name:
#   events5.json       a voprof trace whose traceEvents is 5
#   no_column.csv      an observation CSV without the hyp_cpu column
#   obs.csv            an observation CSV with 12 single-VM rows
#   nan.csv            obs.csv with a nan pm_cpu cell in its last row
#   one_row.csv        an observation CSV with 1 single-VM row
#   malformed.json     a truncated JSON document
#   no_spans.json      a voprof trace without events
#   typo.conf          a scenario with a misspelt key, [vm web] cpu_pct
#   no_cpu_trace.conf  a scenario replaying no_cpu_trace.csv, a trace
#                      CSV without the vm_cpu column
#   ok.conf            a valid 2 s scenario
#   inf.conf           ok.conf with an infinite bw
#   keep.txt           an existing output file holding "keep"
# and no directory no_dir, so no_dir/FILE is an output that cannot be
# opened.
set -u
mode=$1 bin=$2
shift 2
want=$mode
[ "$mode" = usage ] && want=2

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
trap 'exit 1' HUP INT TERM
cd "$dir" || exit 1
printf '{"schema":"voprof-trace-1","traceEvents":5}\n' >events5.json
printf 'n_vms,vm_cpu,vm_mem,vm_io,vm_bw,pm_cpu,pm_mem,pm_io,pm_bw,dom0_cpu\n' \
  >no_column.csv
printf '1,10,100,5,50,30,800,20,60,17\n' >>no_column.csv
header='n_vms,vm_cpu,vm_mem,vm_io,vm_bw,pm_cpu,pm_mem,pm_io,pm_bw,dom0_cpu,hyp_cpu'
printf '%s\n1,10,100,5,50,30,800,20,60,17,3\n' "$header" >one_row.csv
printf '%s\n' "$header" >obs.csv
for i in 1 2 3 4 5 6 7 8 9 10 11 12; do
  printf '1,%d,%d,%d,%d,%d,800,20,60,17,3\n' $((i * 7)) $((i * 50)) \
    $((i * 3)) $((i * 40)) $((i * 7 + 20)) >>obs.csv
done
{ cat obs.csv; printf '1,10,100,5,50,nan,800,20,60,17,3\n'; } >nan.csv
printf '{"schema":"voprof-bench-1","benchmarks":[' >malformed.json
printf '{"schema":"voprof-trace-1","traceEvents":[]}\n' >no_spans.json
printf '[cluster]\n[vm web]\ncpu_pct = 80\n[run]\nduration = 2\n' >typo.conf
printf 'vm_mem,vm_io\n10,5\n' >no_cpu_trace.csv
printf '[cluster]\n[vm web]\ntrace = no_cpu_trace.csv\n' >no_cpu_trace.conf
printf '[cluster]\n[vm web]\ncpu = 50\n[run]\nduration = 2\n' >ok.conf
printf '[cluster]\n[vm web]\ncpu = 50\nbw = inf\n[run]\nduration = 2\n' >inf.conf
printf 'keep\n' >keep.txt

out=$("$bin" "$@" 2>stderr.txt)
rc=$?
fail() {
  echo "FAIL: $bin $* -> exit $rc: $why"
  echo "stdout: $out"
  echo "stderr: $(cat stderr.txt)"
  exit 1
}
why="want exit $want"
[ "$rc" = "$want" ] || fail "$@"
if [ "$(cat keep.txt)" != keep ]; then
  why="a failing run changed the existing output keep.txt"
  fail "$@"
fi
if grep -q 'precondition failed' stderr.txt; then
  why="a precondition reported an input error"
  fail "$@"
fi
if [ "$mode" = usage ]; then
  why="want empty stdout and usage on stderr"
  [ -z "$out" ] && grep -q '^usage: ' stderr.txt || fail "$@"
else
  why="want empty stdout and one 'voprofctl: <code> error: ...' line"
  [ -z "$out" ] && [ "$(wc -l <stderr.txt)" = 1 ] &&
    grep -Eq '^voprofctl: [a-z]+ error: .* \(at .+\)$' stderr.txt || fail "$@"
fi
exit 0
