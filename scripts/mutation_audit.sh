#!/usr/bin/env bash
# Mutation audit: every row of scripts/mutants.tsv must be caught by its tests.
#
#   scripts/mutation_audit.sh
#
# A row is four tab-separated fields: a file, an exact text in it, the
# replacement (empty for a deletion), and the `cargo test` arguments that
# must fail under the mutant. Blank lines and lines starting with '#' are
# skipped.
#
# The audit runs on a copy of the tree (tracked and untracked files, not
# ignored ones) in a fresh temporary directory, so the checkout is never
# mutated. It fails when
#   * a row's text does not occur exactly once in its file (a stale row);
#   * the tests of some row fail on the unmutated copy, before or after the
#     rows, or run no test at all;
#   * a mutant does not build;
#   * a mutant's tests pass (the mutant survived).
#
# Cargo decides freshness by mtime, so each restored file is touched: a file
# restored with its old mtime would silently reuse the mutated build.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
table=$root/scripts/mutants.tsv
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
log=$tmp/log backup=$tmp/backup

mkdir "$tmp/tree"
git -C "$root" ls-files -z --cached --others --exclude-standard |
    tar -C "$root" --null --files-from=- --ignore-failed-read -cf - |
    tar -C "$tmp/tree" -xf -
cd "$tmp/tree"

files=() texts=() repls=() args=()
# Split on each tab by hand: `read` would merge the two tabs around an
# empty replacement into one separator.
while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in '' | '#'*) continue ;; esac
    tabs=${line//[!$'\t']/}
    file=${line%%$'\t'*} rest=${line#*$'\t'}
    text=${rest%%$'\t'*} rest=${rest#*$'\t'}
    repl=${rest%%$'\t'*} test_args=${rest#*$'\t'}
    if [ "${#tabs}" -ne 3 ] || [ -z "$text" ] || [ -z "$test_args" ]; then
        echo "malformed row (needs four tab-separated fields): $line" >&2
        exit 1
    fi
    files+=("$file") texts+=("$text") repls+=("$repl") args+=("$test_args")
done <"$table"
echo "${#files[@]} mutants from $table"
for i in "${!files[@]}"; do
    file=${files[$i]} text=${texts[$i]}
    n=$(grep -oF -- "$text" "$file" 2>/dev/null | wc -l || true)
    if [ "$n" -ne 1 ]; then
        echo "row $((i + 1)) is stale: '$text' occurs $n times in $file, expected once" >&2
        exit 1
    fi
done

# Each distinct set of test arguments must pass on the unmutated tree and
# run at least one test.
mapfile -t distinct < <(printf '%s\n' "${args[@]}" | sort -u)
baseline() {
    local a
    for a in "${distinct[@]}"; do
        # shellcheck disable=SC2086 # the arguments are word-split on purpose
        if ! cargo test -q $a >"$log" 2>&1; then
            cat "$log"
            echo "baseline ($1): cargo test $a fails on the unmutated tree" >&2
            exit 1
        fi
        if ! grep -Eq 'test result: ok\. [1-9]' "$log"; then
            cat "$log"
            echo "baseline ($1): cargo test $a runs no test" >&2
            exit 1
        fi
        echo "baseline ($1): cargo test $a passes"
    done
}

baseline before
survived=0
for i in "${!files[@]}"; do
    file=${files[$i]} text=${texts[$i]} repl=${repls[$i]} a=${args[$i]}
    row="row $((i + 1)) ($file: '$text' -> '$repl')"
    cp "$file" "$backup"
    content=$(cat "$file"; printf x)
    content=${content%x}
    printf '%s' "${content/"$text"/"$repl"}" >"$file"
    start=$SECONDS
    # shellcheck disable=SC2086
    if ! cargo test -q --no-run $a >"$log" 2>&1; then
        cat "$log"
        echo "$row: the mutant does not build" >&2
        exit 1
    fi
    # shellcheck disable=SC2086
    if cargo test -q $a >"$log" 2>&1; then
        echo "$row: SURVIVED cargo test $a"
        survived=$((survived + 1))
    else
        failed=$(grep -E '^---- .* stdout ----$' "$log" | sed 's/^---- //; s/ stdout ----$//' || true)
        echo "$row: killed by cargo test $a (${failed//$'\n'/, }) in $((SECONDS - start)) s"
    fi
    cp "$backup" "$file"
    touch "$file"
done
baseline after

if [ "$survived" -ne 0 ]; then
    echo "$survived of ${#files[@]} mutants survived" >&2
    exit 1
fi
echo "all ${#files[@]} mutants killed"
