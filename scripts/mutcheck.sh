#!/usr/bin/env sh
# Mutation gate: applies each mutant listed in scripts/mutants.txt to a
# temporary copy of the repo, one at a time, and runs the go test -run
# pattern the entry names in the mutated file's package, or in the
# package its pkg key names. The gate fails when
#   - a mutant survives (its tests pass), so a lock has gone weak;
#   - a mutant's text no longer matches the source, so a refactor
#     cannot quietly retire a mutant;
#   - a mutant no longer compiles, so it would be killed by the build
#     rather than by a test.
# The list format is described at the top of scripts/mutants.txt. It
# needs only sh, sed and go.
#
#   sh scripts/mutcheck.sh
set -eu
cd "$(dirname "$0")/.."
list=scripts/mutants.txt

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tmp=$work/repo
out=$work/out
mkdir "$tmp"
for e in * .[!.]*; do
    case $e in .git | .bench_build | '.[!.]*') continue ;; esac
    cp -R "$e" "$tmp/"
done

# bre TEXT -> TEXT as a sed basic regular expression matching itself.
bre() { printf '%s\n' "$1" | sed 's/[][\/.*^$]/\\&/g'; }
# repl TEXT -> TEXT escaped for the right-hand side of a sed s command.
repl() { printf '%s\n' "$1" | sed 's/[\/&]/\\&/g'; }
# lines PATTERN FILE -> how many lines of FILE match PATTERN.
lines() { sed -n "/$1/=" "$2" | sed -n '$='; }

status=0
n=0
killed=0
file='' after='' from='' to='' tpkg=''
while read -r key val; do
    case $key in
    '' | \#*) continue ;;
    file) file=$val ;;
    after) after=$val ;;
    from) from=$val ;;
    to) to=$val ;;
    pkg) tpkg=$val ;;
    run)
        n=$((n + 1))
        name="$file: '$from' -> '$to'"
        if [ -z "$file" ] || [ -z "$from" ] || [ -z "$to" ] || [ -z "$val" ]; then
            echo "mutcheck: entry $n is missing file, from, to or run" >&2
            exit 2
        fi
        src=$tmp/$file
        pat=$(bre "$from")
        stale=''
        if [ ! -f "$src" ]; then
            stale='no such file'
        elif [ -n "$after" ]; then
            apat=$(bre "$after")
            if [ "$(lines "$apat" "$src")" != 1 ]; then
                stale="'$after' is not on exactly one line"
            elif [ -z "$(sed -n "/$apat/,\$ { /$apat/d; /$pat/= }" "$src")" ]; then
                stale="no match after '$after'"
            else
                sed "/$apat/,/$pat/ s/$pat/$(repl "$to")/" "$file" >"$src"
            fi
        elif [ "$(lines "$pat" "$src")" != 1 ]; then
            stale='not on exactly one line'
        else
            sed "s/$pat/$(repl "$to")/" "$file" >"$src"
        fi
        if [ -n "$stale" ]; then
            echo "mutcheck: STALE $name: $stale" >&2
            status=1
        else
            pkg=./${tpkg:-$(dirname "$file")}/
            if ! (cd "$tmp" && go test -count=1 -run '^$' "$pkg") >"$out" 2>&1; then
                echo "mutcheck: BROKEN $name does not compile:" >&2
                sed 's/^/    /' "$out" >&2
                status=1
            elif (cd "$tmp" && go test -count=1 -run "$val" "$pkg") >"$out" 2>&1; then
                echo "mutcheck: SURVIVED $name ($val passed)" >&2
                status=1
            else
                killed=$((killed + 1))
                echo "mutcheck: killed $name by $val"
            fi
            cp "$file" "$src"
        fi
        file='' after='' from='' to='' tpkg=''
        ;;
    *)
        echo "mutcheck: unknown key '$key' in $list" >&2
        exit 2
        ;;
    esac
done <"$list"
echo "mutcheck: $killed of $n mutants killed"
exit $status
