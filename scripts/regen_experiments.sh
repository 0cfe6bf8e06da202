#!/bin/sh
# Regenerates the measured tables recorded in EXPERIMENTS.md.
#
#   experiments_raw.txt          scale 1   fig1, fig10, abl-*
#   experiments_headline.txt     scale 1   fig9, fig13, fig14, sec552
#   experiments_scale05.txt      scale 0.5 remaining figures
#   experiments_fig9_scale4.json scale 4   fig9, fig10
#
# The full suite at scale 1 (`cawabench -all`) takes about an hour on a
# single core; this script reproduces the documented subsets. The
# scale-4 sweep takes about 7 minutes on two cores.
set -e
go build -o /tmp/cawabench ./cmd/cawabench
/tmp/cawabench -exp fig1,fig10,abl-cpl,abl-dynpart,abl-greedy,abl-partition,abl-signature \
    -scale 1 | tee experiments_raw.txt
/tmp/cawabench -exp fig9,fig13,fig14,sec552 -scale 1 | tee experiments_headline.txt
/tmp/cawabench -exp fig9,fig13,fig11,fig14,fig15,sec552,fig3,fig4,ext-ccws \
    -scale 0.5 | tee experiments_scale05.txt
/tmp/cawabench -exp fig2a,fig2b,fig2c,fig8,fig12,fig16,fig17,tab1,tab2 \
    -scale 0.5 | tee -a experiments_scale05.txt
/tmp/cawabench -exp fig9,fig10 -scale 4 -json | tee experiments_fig9_scale4.json
