#!/usr/bin/env bash
# Prints the size of the codebase the way CHANGES.md quotes it, so every PR
# counts the same thing: non-test Go lines outside bench/ with analyzer
# testdata excluded (and listed on its own line), per top-level directory
# and in total; the package count; the option surface (fields of
# lsmstore.Options and server.Config); and the flag definitions under cmd/.
# Lines are raw `wc -l` lines of gofmt-ed source: comments and blanks count.
set -euo pipefail
cd "$(dirname "$0")/.."

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

printf '%-12s %7s\n' "directory" "lines"
for d in $(find . -mindepth 1 -maxdepth 1 -type d -not -name '.*' -not -name bench | sort); do
	n=$(sources "$d" | lines)
	[ "$n" -gt 0 ] && printf '%-12s %7d\n' "${d#./}" "$n"
done
printf '%-12s %7d\n' "(root)" "$(find . -maxdepth 1 -name '*.go' -not -name '*_test.go' | lines)"
printf '%-12s %7d   non-test Go outside bench/, testdata excluded\n' "total" "$(sources . | lines)"
printf '%-12s %7d   analyzer testdata, not in the total\n' "testdata" \
	"$(find . -name '*.go' -not -name '*_test.go' -path '*/testdata/*' -not -path './bench/*' | lines)"
printf '%-12s %7d\n' "packages" "$(sources . | xargs -r -n1 dirname | sort -u | wc -l)"
printf '%-12s %7d   lsmstore.Options fields\n' "options" "$(fields Options lsmstore/lsmstore.go)"
printf '%-12s %7d   server.Config fields\n' "config" "$(fields Config internal/server/server.go)"
printf '%-12s %7d   flag definitions under cmd/\n' "flags" \
	"$(find cmd -name '*.go' -not -name '*_test.go' -print0 |
		xargs -0 grep -hoE '\bflag\.(Bool|BoolFunc|Duration|Float64|Func|Int|Int64|String|TextVar|Uint|Uint64|Var)(Var)?\(' | wc -l)"
