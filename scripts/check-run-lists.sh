#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` pattern in the CI workflow
# names no test in the packages that step runs. `go test -run 'TestGone'`
# passes with "no tests to run", so without this check a renamed or deleted
# test drops out of a stress step unnoticed.
#
# Usage, from the repository root:
#   bash scripts/check-run-lists.sh [workflow.yml]
set -euo pipefail

wf=${1:-.github/workflows/ci.yml}
status=0
checked=0
while IFS= read -r line; do
	read -ra words <<<"${line//\'/}"
	pattern="" pkgs=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		case ${words[i]} in
		-run) pattern=${words[i + 1]} ;;
		.*) pkgs+=("${words[i]}") ;;
		esac
	done
	# '^$' deliberately runs no test (bench and fuzz steps).
	[[ -z $pattern || $pattern == '^$' ]] && continue
	names=$(go test -list . "${pkgs[@]}" | grep -E '^(Test|Example|Fuzz)' || true)
	IFS='|' read -ra alts <<<"$pattern"
	for alt in "${alts[@]}"; do
		checked=$((checked + 1))
		if ! grep -Eq -- "$alt" <<<"$names"; then
			echo "$wf: -run alternative '$alt' matches no test in ${pkgs[*]}" >&2
			status=1
		fi
	done
done < <(grep -E 'go test .*-run ' "$wf")
echo "checked $checked -run alternatives in $wf"
exit $status
