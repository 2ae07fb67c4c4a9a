#!/bin/sh
# Scripted prover for the stub-prover workload: sh plus one awk, so a spawn
# costs a few milliseconds and problem emission stays visible.
#
# Usage: sh stub_prover.sh PROBLEM.p
#
# Rule (bench/gen.py keeps it in step, as STUB_MODULUS): a truth test is
# proved when the index of the first class constant in the conjecture,
# c__cNNNNN, is divisible by 3; the proof cites the first three axioms and
# the last axiom of the file. Every other test, and every falsity test (a
# conjecture that starts with "~"), gives up. So no question is ever
# contradictory.
exec awk -v q="'" '
/^fof\([a-z0-9_]+, axiom, / {
    name = substr($0, 5, index($0, ",") - 5)
    if (cited < 3) first[cited++] = name
    last = name
    next
}
/^fof\([a-z0-9_]+, conjecture, / {
    body = substr($0, index($0, ", conjecture, ") + 14)
    if (substr(body, 1, 1) != "~" && match(body, /c__c[0-9]+/)) {
        proved = (substr(body, RSTART + 4, RLENGTH - 4) + 0) % 3 == 0
    }
}
END {
    if (!proved) {
        print "% SZS status GaveUp for " FILENAME
        exit 0
    }
    print "% SZS status Theorem for " FILENAME
    print "% SZS output start Proof for " FILENAME
    for (i = 0; i < cited; i++)
        print "fof(f" i ", axiom, $true, file(" q "problem" q ", " first[i] "))."
    print "fof(f" cited ", axiom, $true, file(" q "problem" q ", " last "))."
    print "% SZS output end Proof for " FILENAME
}' "$1"
