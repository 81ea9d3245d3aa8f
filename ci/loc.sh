#!/usr/bin/env sh
# Non-test line counts of the workspace, per crate and in total.
#
#   sh ci/loc.sh
#
# Counts every .rs file under crates/ and src/ outside tests/ directories,
# with each `#[cfg(test)]` module (the attribute line through the brace
# that closes the module) left out. Prints two counts per row: all lines,
# and code lines (blank lines and lines starting with `//` left out, so
# doc comments do not count as code). It only prints; nothing gates on it.
set -eu
cd "$(dirname "$0")/.."

find crates src -name '*.rs' -not -path '*/tests/*' | LC_ALL=C sort |
    xargs awk '
    FNR == 1 {
        unit = FILENAME
        if (unit ~ /^crates\//) {
            sub(/^crates\//, "", unit)
            sub(/\/.*/, "", unit)
            unit = "crates/" unit
        } else {
            unit = "src"
        }
        if (!(unit in all)) {
            order[++units] = unit
            all[unit] = 0
            code[unit] = 0
        }
        pending = 0
        depth = 0
    }
    {
        line = $0
        if (depth > 0) {
            opens = gsub(/\{/, "{", line)
            closes = gsub(/\}/, "}", line)
            depth += opens - closes
            next
        }
        if (pending) {
            if (line ~ /^[ \t]*#\[/) { held++; next }
            if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+[ \t]*\{/) {
                pending = 0
                opens = gsub(/\{/, "{", line)
                closes = gsub(/\}/, "}", line)
                depth = opens - closes
                next
            }
            # The attribute guarded something other than a module: count
            # the lines held back and carry on.
            all[unit] += held
            code[unit] += held
            pending = 0
        }
        if (line ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/) {
            pending = 1
            held = 1
            next
        }
        all[unit]++
        if (line !~ /^[ \t]*$/ && line !~ /^[ \t]*\/\//) code[unit]++
    }
    END {
        printf "%-22s %8s %8s\n", "unit", "lines", "code"
        for (i = 1; i <= units; i++) {
            u = order[i]
            printf "%-22s %8d %8d\n", u, all[u], code[u]
            total_all += all[u]
            total_code += code[u]
        }
        printf "%-22s %8d %8d\n", "total", total_all, total_code
    }'
