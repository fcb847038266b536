#!/bin/sh
# Check the library layering of src/: a file in src/<lib> may include
# headers of its own library and of the libraries below it, never of
# one above. Bottom to top:
#
#   util < device < codec < control < model < mem < trace < sim
#
# Usage: tools/check_layers.sh [SRC_DIR]   (default: src next to tools/)
# Prints one line per upward include and exits 1 if there is any.

src=${1:-$(dirname "$0")/../src}
layers="util device codec control model mem trace sim"

rank() {
    i=0
    for l in $layers; do
        [ "$l" = "$1" ] && { echo $i; return; }
        i=$((i + 1))
    done
    echo -1
}

status=0
for lib in $layers; do
    own=$(rank "$lib")
    for file in "$src/$lib"/*.hh "$src/$lib"/*.cc; do
        [ -f "$file" ] || continue
        for dep in $(sed -n 's|^#include "\([a-z_]*\)/.*"|\1|p' \
                         "$file" | sort -u); do
            if [ "$(rank "$dep")" -gt "$own" ]; then
                echo "${file#"$src"/}: $lib includes $dep (a higher" \
                     "layer)"
                status=1
            fi
        done
    done
done
[ $status -eq 0 ] && echo "layering ok: $layers"
exit $status
