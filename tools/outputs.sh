#!/bin/sh
# Run the demos, the molphase commands and the ```python example that
# README.md lists, and tools/record_digest.py, under python -W error, each
# tree importing molphase from its own src/. Given REV, do the same in a git
# worktree of REV and diff the two trees' files and stdout byte for byte.
# Both trees run this checkout's README lists, example and digest script
# (which use only API that older trees also have), and each its own demos.
# The Python and numpy versions come first in the output.
#
#     sh tools/outputs.sh          # every run must succeed
#     sh tools/outputs.sh HEAD~1   # and print the same bytes as HEAD~1
#
# Exits non-zero on a failed run or any difference. An empty REV is no REV.
set -euf
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$work/tree" 2>/dev/null || true; rm -rf "$work"' EXIT
trap 'exit 2' HUP INT TERM

run() (  # source tree, output directory
    export PYTHONPATH="$1/src"
    python -c 'import molphase, sys; assert molphase.__file__.startswith(sys.argv[1])' "$1/src"
    mkdir "$2"
    cd "$2"
    for demo in $(sed -n 's|^python demos/\([^ ]*\)\.py.*|\1|p' "$root/README.md"); do
        python -W error "$1/demos/$demo.py" > "$demo.stdout"
    done
    sed -n 's/^molphase //p' "$root/README.md" | while read -r args; do
        # shellcheck disable=SC2086  # the README line splits into arguments
        python -W error -m molphase.cli $args < /dev/null >> stdout.txt
    done
    example=$(awk '/^```python$/ {on = 1; next} /^```/ {on = 0} on' "$root/README.md")
    test -n "$example"
    python -W error -c "$example" > example.stdout
    python -W error "$root/tools/record_digest.py" > digest.txt
)

python -c 'import sys, numpy; print("python", sys.version.split()[0], "numpy", numpy.__version__)'

run "$root" "$work/head"
if [ -n "${1:-}" ]; then
    git -C "$root" worktree add --quiet --detach "$work/tree" "$1"
    run "$work/tree" "$work/base"
    diff -r "$work/base" "$work/head"
fi
