#!/usr/bin/env bash
# Prints the size of the codebase the way CHANGES.md quotes it, so every PR
# counts the same thing: non-test Go lines outside bench/ with analyzer
# testdata excluded (and listed on its own line), per top-level directory
# and in total; the package count; the option surface (fields of
# lsmstore.Options, server.Config and lsmclient.Options); and the flag
# definitions under cmd/.
# Lines are raw `wc -l` lines of gofmt-ed source: comments and blanks count.
#
#   scripts/size.sh                     the working tree
#   scripts/size.sh --against <git-ref> the ref (a `git archive` of it in a
#                                       temp dir), the working tree, and the
#                                       difference, row by row
#   scripts/size.sh --against <git-ref> --no-new-knobs
#                                       the same, and exit 1 when the options,
#                                       config, client or flags row grew: the
#                                       configuration surface grows only by a
#                                       change that edits this gate's caller
#                                       and says why
set -euo pipefail
cd "$(dirname "$0")/.."
usage='usage: scripts/size.sh [--against <git-ref> [--no-new-knobs]]'

sources() { # non-test Go files under $1, outside bench/ and testdata/
	find "$1" -name '*.go' -not -name '*_test.go' \
		-not -path './bench/*' -not -path '*/testdata/*' -not -path './.bench_build/*'
}
lines() { xargs -r cat | wc -l; }

# fields NAME FILE: the number of fields of struct NAME declared in FILE.
fields() {
	awk -v name="$1" '
		$0 ~ "^type " name " struct {" { in_struct = 1; next }
		in_struct && /^}/ { print n + 0; exit }
		in_struct {
			line = $0
			sub(/^[ \t]+/, "", line)
			if (line == "" || line ~ /^\/\//) next
			k = split(line, tok, " ")
			for (i = 1; i <= k; i++) { n++; if (tok[i] !~ /,$/) break }
		}' "$2"
}

# measure DIR: one "row<TAB>count<TAB>note" line per row of the table, for
# the tree rooted at DIR.
measure() (
	cd "$1"
	for d in $(find . -mindepth 1 -maxdepth 1 -type d -not -name '.*' -not -name bench | sort); do
		n=$(sources "$d" | lines)
		[ "$n" -gt 0 ] && printf '%s\t%d\t\n' "${d#./}" "$n"
	done
	printf '(root)\t%d\t\n' "$(find . -maxdepth 1 -name '*.go' -not -name '*_test.go' | lines)"
	printf 'total\t%d\tnon-test Go outside bench/, testdata excluded\n' "$(sources . | lines)"
	printf 'testdata\t%d\tanalyzer testdata, not in the total\n' \
		"$(find . -name '*.go' -not -name '*_test.go' -path '*/testdata/*' -not -path './bench/*' | lines)"
	printf 'packages\t%d\t\n' "$(sources . | xargs -r -n1 dirname | sort -u | wc -l)"
	printf 'options\t%d\tlsmstore.Options fields\n' "$(fields Options lsmstore/lsmstore.go)"
	printf 'config\t%d\tserver.Config fields\n' "$(fields Config internal/server/server.go)"
	printf 'client\t%d\tlsmclient.Options fields\n' "$(fields Options lsmclient/lsmclient.go)"
	printf 'flags\t%d\tflag definitions under cmd/\n' \
		"$(find cmd -name '*.go' -not -name '*_test.go' -print0 |
			xargs -0 grep -hoE '\bflag\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var)?\(' | wc -l)"
)

case "${1:-}" in
"")
	printf '%-12s %7s\n' "directory" "lines"
	measure . | awk -F'\t' '{ printf "%-12s %7d%s\n", $1, $2, ($3 == "" ? "" : "   " $3) }'
	;;
--against)
	ref=${2:?$usage}
	gate=${3:-}
	if [ -n "$gate" ] && [ "$gate" != --no-new-knobs ]; then
		echo "$usage" >&2
		exit 2
	fi
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	git archive "$ref" | tar -x -C "$tmp"
	printf '%-12s %9.9s %9s %7s\n' "directory" "$ref" "tree" "delta"
	# Rows are keyed by name: a directory present on one side only counts 0
	# on the other, and keeps the order of the side that has it.
	awk -F'\t' -v gate="$gate" '
		NR == FNR { ref[$1] = $2; if (!($1 in seen)) { seen[$1]; order[++n] = $1 }; next }
		{ tree[$1] = $2; note[$1] = $3; if (!($1 in seen)) { seen[$1]; order[++n] = $1 } }
		END {
			for (i = 1; i <= n; i++) {
				k = order[i]
				printf "%-12s %9d %9d %+7d%s\n", k, ref[k], tree[k], tree[k] - ref[k], (note[k] == "" ? "" : "   " note[k])
				if (gate != "" && (k == "options" || k == "config" || k == "client" || k == "flags") && tree[k] > ref[k]) {
					printf "size.sh: the %s row grew (%d -> %d)\n", k, ref[k], tree[k] > "/dev/stderr"
					grew = 1
				}
			}
			exit grew
		}' <(measure "$tmp") <(measure .)
	;;
*)
	echo "$usage" >&2
	exit 2
	;;
esac
