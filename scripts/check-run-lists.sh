#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` or `-bench` pattern in the CI
# workflow names no test (or benchmark) in the packages that step runs.
# `go test -run 'TestGone'` passes with "no tests to run", and a `-bench`
# pattern that matches nothing runs nothing just as quietly, so without this
# check a renamed or deleted test drops out of a stress step unnoticed.
#
# Usage, from the repository root:
#   bash scripts/check-run-lists.sh [workflow.yml]
set -euo pipefail

wf=${1:-.github/workflows/ci.yml}
status=0
checked=0

# check PATTERN KIND NAMES: every |-alternative of PATTERN must match one of
# NAMES (the `go test -list` lines of the step's packages of that kind).
check() {
	local pattern=$1 kind=$2 names=$3 alt
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		if ! grep -Eq -- "$alt" <<<"$names"; then
			echo "$wf: $kind alternative '$alt' matches nothing in ${pkgs[*]}" >&2
			status=1
		fi
	done
}

while IFS= read -r line; do
	read -ra words <<<"${line//\'/}"
	run="" bench="" pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		case ${words[i]} in
		-run) run=${words[i + 1]} && i=$((i + 1)) ;;
		-bench) bench=${words[i + 1]} && i=$((i + 1)) ;;
		.*) pkgs+=("${words[i]}") ;;
		esac
	done
	# '^$' deliberately runs no test (bench and fuzz steps); '.' is every
	# benchmark, so it cannot go empty by a rename.
	[[ $run == '^$' ]] && run=""
	[[ $bench == . ]] && bench=""
	[[ -z $run && -z $bench ]] && continue
	names=$(go test -list . "${pkgs[@]}")
	if [[ -n $run ]]; then
		check "$run" -run "$(grep -E '^(Test|Example|Fuzz)' <<<"$names" || true)"
	fi
	if [[ -n $bench ]]; then
		check "$bench" -bench "$(grep -E '^Benchmark' <<<"$names" || true)"
	fi
done < <(grep -E 'go test .*-(run|bench) ' "$wf")
echo "checked $checked -run/-bench alternatives in $wf"
exit $status
