#!/bin/bash
# Regenerates every table and figure of the paper (DESIGN.md section 4):
# one `fig all`, logged to results/full_log.txt and split on its
# `== <id> ==` lines into results/<id>.txt. Raise BERTI_INSTR for longer
# runs.
set -u
cd "$(dirname "$0")"
mkdir -p results
cargo run -q --release -p berti-bench --bin fig -- all 2>/dev/null | tee results/full_log.txt
awk '/^== .* ==$/ { out = "results/" $2 ".txt"; printf "" > out; next } { print > out }' \
  results/full_log.txt
