#!/bin/sh
# Regenerates every experiment output in results/ (used by EXPERIMENTS.md).
# Each file is the binary's stdout; the run summaries on stderr carry
# timings that differ on every run, so they stay on the terminal.
set -x
cd "$(dirname "$0")"
B=./target/release
$B/fig2 > results/fig2.txt
$B/fig6 > results/fig6.txt
$B/fig7 > results/fig7.txt
$B/fig8 > results/fig8.txt
$B/fig9 > results/fig9.txt
$B/fig10 > results/fig10.txt
$B/fig11 > results/fig11.txt
$B/fig12 > results/fig12.txt
$B/fig13 > results/fig13.txt
$B/table2 > results/table2.txt
$B/table3 > results/table3.txt
$B/ext_estimators > results/ext_estimators.txt
$B/ext_baselines > results/ext_baselines.txt
$B/ext_spearman > results/ext_spearman.txt
$B/ext_budget > results/ext_budget.txt
$B/ext_walks > results/ext_walks.txt
$B/ext_dynamic > results/ext_dynamic.txt
$B/ext_explain > results/ext_explain.txt
$B/ext_embedding_map > results/ext_embedding_map.txt
$B/calibrate > results/calibrate.txt
touch results/.reruns_done
