#!/usr/bin/env bash
# Golden transcript of a fixed run matrix, one block per command: the
# command's stdout (minus the "kernel" line, which prints the compile
# time), its exit code, and a digest of the events file it wrote. The
# events files themselves are not committed: ring runs write ~6 MB.
#
# The experiments mode pins the quick-mode reports instead, and the
# full-mode exact report. The analyze mode pins the IR dump of every
# catalogue entry at n = 3 and 4, the certifying report and the digest
# of each certificate it writes.
# The timeline mode pins the summary of the events of one single soak
# and one batch soak, with and without a recovery budget, and the exit
# codes of usage errors; the plot mode pins the exit codes of usage
# errors. The examples mode pins the stdout of each example binary it is
# given.
#
#   pin.sh ssr_sim          PATH/ssr_sim.exe          > ssr_sim.out
#   pin.sh fleet            PATH/fleet.exe            > fleet.out
#   pin.sh experiments      PATH/experiments_main.exe > experiments.out
#   pin.sh analyze          PATH/analyze.exe          > analyze.out
#   pin.sh timeline         PATH/timeline.exe PATH/ssr_sim.exe > timeline.out
#   pin.sh plot             PATH/plot.exe             > plot.out
#   pin.sh examples         PATH/EXAMPLE.exe...       > examples.out
set -u
mode=$1
exe=$2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

digest() { md5sum < "$1" | cut -d' ' -f1; }

# ssr ARGS...: stdout, exit code and events digest of one ssr_sim run,
# and the lumping its manifest records (count engine, non-complete
# topology only).
ssr() {
  echo "== ssr_sim $*"
  "$exe" "$@" --events "$tmp/ev.jsonl" 2> "$tmp/err" | grep -v '^kernel'
  echo "exit ${PIPESTATUS[0]}"
  if [ -f "$tmp/ev.jsonl" ]; then echo "events $(digest "$tmp/ev.jsonl")"; fi
  sed -n 's/.*"lumping":"\([a-z]*\)".*/lumping \1/p' "$tmp/ev.jsonl.manifest.json" 2> /dev/null
  rm -f "$tmp"/ev.jsonl*
}

# plain ARGS...: stdout and exit code of a run that writes no events.
plain() {
  echo "== ssr_sim $*"
  "$exe" "$@" 2> "$tmp/err" | grep -v '^kernel'
  echo "exit ${PIPESTATUS[0]}"
}

# status ARGS...: the exit code alone (usage errors; their wording is free).
status() {
  "$exe" "$@" > /dev/null 2>&1
  local code=$?
  echo "== ${REPRO_JOBS:+REPRO_JOBS=$REPRO_JOBS }$(basename "$exe" .exe) $* -> exit $code"
}

# walls ARGS...: how many trial wall times a --metrics run recorded.
walls() {
  "$exe" "$@" --metrics "$tmp/m.json" > /dev/null 2>&1
  echo "== ssr_sim $* --metrics -> trial_wall_s count" \
    "$(grep -o '"trial_wall_s":{"count":[0-9]*' "$tmp/m.json" | cut -d: -f3)"
  rm -f "$tmp/m.json"
}

# report [--full] NAME...: the named experiments' reports (quick mode
# unless --full) at seed 2024 on two domains; then the exit code.
report() {
  local args=()
  for name in "$@"; do
    case $name in --*) args+=("$name") ;; *) args+=(-e "$name") ;; esac
  done
  "$exe" "${args[@]}" --seed 2024 --jobs 2 2> "$tmp/err"
  echo "exit $?"
}

case $mode in
ssr_sim)
  # single runs: agent engine under both kernels, count engine
  ssr -p optimal -n 32 --seed 5
  ssr -p optimal -n 32 --seed 5 --kernel compiled
  ssr -p silent -n 256 -s worst-case --seed 3 --engine count
  ssr -p silent -n 256 -s worst-case --seed 3 --engine count --kernel compiled
  # a lazy count-engine start past the 4096-cell eager limit: one agent
  # per cell throughout, then a burst whose dead and new cells end that
  ssr -p optimal -n 5000 -s correct --seed 1 --engine count
  ssr -p optimal -n 5000 -s correct --seed 1 --engine count --chaos burst:20000,corrupt:0.001 --horizon 20
  # restricted topologies: agent sampler, exact star lumping, compiled kernel
  ssr -p optimal -n 24 -s duplicate-rank --topology ring --seed 2
  ssr -p optimal -n 24 -s duplicate-rank --topology ring --seed 2 --kernel compiled
  ssr -p optimal -n 24 --topology star --engine count --kernel compiled --seed 4
  ssr -p silent -n 32 --topology star --engine count --seed 4
  # annealed lumping: the warning is printed once per process
  ssr -p silent -n 16 --topology ring --engine count --trials 3 --seed 2 --jobs 1
  echo "stderr:"; cat "$tmp/err"
  # batches
  ssr -p optimal -n 16 --trials 12 --seed 9 --kernel compiled --jobs 2
  ssr -p silent -n 64 --trials 5 --seed 2 --engine count --jobs 2
  # chaos soaks: single and batch, both engines, a compiled kernel, pins
  ssr -p silent -n 32 -s correct --seed 3 --chaos burst:1000,corrupt:0.2 --horizon 8000 --sla 4000 --engine count
  ssr -p silent -n 32 -s correct --seed 3 --chaos burst:1000,corrupt:0.2 --horizon 8000 --sla 4000 --engine count --kernel compiled
  ssr -p silent -n 64 -s correct --seed 7 --chaos poisson:0.2,corrupt:0.1 --trials 8 --jobs 2
  ssr -p optimal -n 16 -s correct --seed 4 --chaos periodic:300,stuck:2:200 --horizon 600
  ssr -p optimal -n 16 -s correct --seed 6 --chaos poisson:0.05,kill-leader --horizon 800 --sla 30 --trials 3 --jobs 1
  # verbose timeline, randomized protocol; loose election
  ssr -p sublinear -n 16 -H 4 -s name-collision -v
  plain -p loose -n 32
  plain -p loose -n 32 -v
  # the trial wall-time histogram: one entry per trial
  walls -p optimal -n 16 --trials 4 --seed 9 --jobs 2
  walls -p optimal -n 16 --seed 9
  # usage errors
  status -p optimal -n 8 --jobs 0
  status -p optimal -n 8 --trials 0
  status -p optimal -n 8 -s bogus
  status -p warp -n 8
  status -p sublinear -n 8 --engine count
  status -p sublinear -n 8 --kernel compiled
  status -p optimal -n 8 --topology torus
  status -p optimal -n 8 --chaos nope
  status -p optimal -n 8 --sla 3
  status -p loose -n 8 --trials 2
  # a malformed REPRO_JOBS is a usage error for a batch; a single run has
  # no pool and never reads it
  REPRO_JOBS=zero status -p optimal -n 8 --trials 2
  REPRO_JOBS=zero status -p optimal -n 8
  # time spans whose interaction count is not an int are usage errors; a
  # Poisson arrival past the last interaction never fires
  status -n 8 --chaos burst:5,corrupt:0.1 --horizon nan
  status -n 8 --chaos burst:5,corrupt:0.1 --horizon 1e308
  status -n 8 --chaos burst:5,corrupt:0.1 --sla nan
  # command-line parse errors are usage errors too
  status -n 8 --chaos burst:5,corrupt:0.1 --horizon -1
  status -n abc
  plain -n 8 --chaos poisson:1e-18,corrupt:0.1
  # the loose protocol checks what it cannot honour
  status -p loose -n 1
  status -p loose -n 8 -s bogus
  status -p loose -n 8 --topology ring
  ;;
fleet)
  cat > "$tmp/jobs.jsonl" <<'JOBS'
{"id":"agent","protocol":"optimal","n":32,"seed":3,"trials":3}
{"id":"count","protocol":"silent","n":64,"seed":4,"engine":"count","kernel":"compiled","scenario":"worst-case"}
{"id":"soak","protocol":"silent","n":32,"seed":5,"engine":"count","scenario":"correct","chaos":"poisson:0.01,corrupt:0.2","horizon":600,"sla":200}
JOBS
  echo "== fleet --workers 1"
  "$exe" "$tmp/jobs.jsonl" --out-dir "$tmp/out" --workers 1 2> "$tmp/err" | grep -v '^fleet: journal'
  echo "exit ${PIPESTATUS[0]}"
  for id in agent count soak; do echo "$id events $(digest "$tmp/out/$id.events.jsonl")"; done
  # a command-line parse error is a usage error
  status --workers abc
  ;;
experiments)
  # every experiment; table1 and chaos take about 11 s of the total
  report tradeoff figures silent_lb quadratic_lb nonuniform reset scale exact ablation loose \
    topology scenarios epidemic engines table1 chaos
  # the exact chain up to n = 7 (under a second)
  report --full exact
  status --jobs abc
  ;;
examples)
  for ex in "${@:2}"; do
    echo "== $(basename "$ex")"
    "$ex" 2> "$tmp/err"
    echo "exit $?"
  done
  ;;
analyze)
  for key in $("$exe" --list | cut -d' ' -f1); do
    for n in 3 4; do
      echo "== analyze --dump-ir $key --n $n"
      "$exe" --dump-ir "$key" --n "$n"
      echo "exit $?"
    done
  done
  echo "== analyze --protocol all --n 3 --n 4 --jobs 2 --certify"
  "$exe" --protocol all --n 3 --n 4 --jobs 2 --certify --certify-dir "$tmp/certs"
  echo "exit $?"
  for cert in "$tmp"/certs/*.json; do echo "$(basename "$cert") $(digest "$cert")"; done
  echo "== analyze -p reset --n 3 --report json"
  "$exe" -p reset --n 3 --report json
  echo "exit $?"
  status --n abc
  ;;
timeline)
  ssr_sim=$3
  "$ssr_sim" -p silent -n 32 -s correct --seed 3 --chaos burst:1000,corrupt:0.2 --horizon 8000 \
    --engine count --events "$tmp/single.jsonl" > /dev/null 2>&1
  "$ssr_sim" -p optimal -n 16 -s correct --seed 6 --chaos poisson:0.05,kill-leader --horizon 800 \
    --trials 3 --jobs 1 --events "$tmp/batch.jsonl" > /dev/null 2>&1
  for soak in single batch; do
    for sla in "" "--sla 4000" "--sla 30"; do
      echo "== timeline $sla $soak.jsonl" | tr -s ' '
      # shellcheck disable=SC2086
      "$exe" $sla "$tmp/$soak.jsonl"
      echo "exit $?"
    done
  done
  # a budget of 5310.5 interactions rounds up to the recovery's 5311: the
  # soak and the timeline of its events read the same verdict
  echo "== ssr_sim and timeline --sla 165.953125 single.jsonl"
  "$ssr_sim" -p silent -n 32 -s correct --seed 3 --chaos burst:1000,corrupt:0.2 --horizon 8000 \
    --engine count --sla 165.953125 --events "$tmp/sla.jsonl" 2> /dev/null | grep '^SLA'
  "$exe" --sla 165.953125 "$tmp/sla.jsonl" | grep 'SLA'
  # command-line parse errors are usage errors, like a missing file
  status --port abc x.jsonl
  status --bogus x.jsonl
  status missing.jsonl
  ;;
plot)
  status --bogus
  status --chart bogus x.jsonl
  ;;
esac
