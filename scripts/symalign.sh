#!/bin/sh
# Print, side by side, where the simulator's hot functions start in two
# builds, as the address mod 64 (the offset in a cache line), for
# example a benchmark binary built from a change and one built from its
# parent:
#
#   scripts/symalign.sh parent/.bench_build/cawaperf .bench_build/cawaperf
#
# A serial workload can move a few percent when a hot loop starts at a
# different offset in its cache line and the change touched nothing on
# its path. Compare the two columns before attributing such a move to
# the change: an offset that differs is a layout shift, not a speedup.
set -e
if [ $# -ne 2 ]; then
    echo "usage: scripts/symalign.sh BINARY_A BINARY_B" >&2
    exit 2
fi
syms='cawa/internal/sm.(*SM).Cycle
cawa/internal/sm.(*SM).issueFrom
cawa/internal/sm.(*SM).readiness
cawa/internal/sm.(*SM).tryIssue
cawa/internal/sm.(*SM).offer
cawa/internal/simt.ExecInto
cawa/internal/memsys.(*L1D).Deficit'
na=$(go tool nm "$1")
nb=$(go tool nm "$2")
# addr BINARY_NM SYMBOL prints the symbol's address mod 64, or "-".
addr() {
    a=$(echo "$1" | awk -v s="$2" '$2 == "T" && $3 == s { print $1; exit }')
    if [ -z "$a" ]; then
        printf -- -
    else
        printf '%d' $((0x$a % 64))
    fi
}
printf '%-40s %6s %6s\n' function A B
echo "$syms" | while read -r s; do
    printf '%-40s %6s %6s\n' "${s#cawa/internal/}" "$(addr "$na" "$s")" "$(addr "$nb" "$s")"
done
