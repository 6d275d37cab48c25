#!/bin/sh
# Prints the number of non-test lines in the Rust sources under crates/:
# each .rs file counts up to its first top-level `#[cfg(test)]` that is
# followed by a `mod … {` line, and a file compiled in only as a
# `#[cfg(test)] mod x;` counts not at all. Then, over the same lines
# (comment lines left out), the `unsafe` blocks (`unsafe {`) and the
# `unsafe fn` definitions. Run from anywhere in the repo.
set -eu
cd "$(dirname "$0")/.."
awk '
    # `#[cfg(test)] mod x;` in dir/a.rs names dir/a/x.rs (dir/x.rs from a
    # mod.rs, lib.rs or main.rs).
    FNR == 1 {
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/^.*\//, "", base); sub(/\.rs$/, "", base)
        if (base != "mod" && base != "lib" && base != "main") dir = dir "/" base
        prev = ""
    }
    prev ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/ && $0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/ {
        name = $0; sub(/^.*mod /, "", name); sub(/;.*$/, "", name)
        skip[dir "/" name ".rs"] = 1; skip[dir "/" name "/mod.rs"] = 1
    }
    { line[FILENAME, FNR] = $0; len[FILENAME] = FNR; prev = $0 }
    END {
        for (f in len) {
            if (f in skip) continue
            n = len[f]
            for (i = 1; i < len[f]; i++)
                if (line[f, i] == "#[cfg(test)]" && line[f, i + 1] ~ /^(pub(\([a-z]+\))? )?mod .*\{[ \t]*$/) { n = i - 1; break }
            total += n
            for (i = 1; i <= n; i++) {
                if (line[f, i] ~ /^[ \t]*\/\//) continue
                blocks += gsub(/unsafe[ \t]*\{/, "&", line[f, i])
                fns += gsub(/unsafe (extern "C" )?fn [A-Za-z_]/, "&", line[f, i])
            }
        }
        print total
        print "unsafe blocks: " blocks
        print "unsafe fns: " fns
    }' $(find crates -name '*.rs' | sort)
