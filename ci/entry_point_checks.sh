#!/usr/bin/env bash
# Checks of the installed `pdlsic` entry point, one per line, each with the
# exit code it must return.  Run from anywhere: bash ci/entry_point_checks.sh
# Scratch files go to $RUNNER_TEMP, or to a fresh temporary directory.
set -eu
cd "$(dirname "$0")/.."
tmp=${RUNNER_TEMP:-$(mktemp -d)}

# expect RC CMD...: run CMD and fail unless it exits with RC
expect() {
    local want=$1 rc=0
    shift
    "$@" || rc=$?
    test "$rc" -eq "$want"
}

# the headline penalties and the operating-point FER composition run
pdlsic penalties --pdl-db 6
pdlsic fer --alpha 0.599 --snr-db 13.01 --table1 data/fer_code1_8ask_pas.csv --table2 data/fer_code2_16ask_pas.csv

# curves writes the same bytes to stdout and to --out
pdlsic curves --pdl-db 6 --snr-db-step 0.001 > "$tmp/curves_stdout.csv"
pdlsic curves --pdl-db 6 --snr-db-step 0.001 --out "$tmp/curves_out.csv"
cmp "$tmp/curves_stdout.csv" "$tmp/curves_out.csv"

# curves from -60 to 130 dB, in e-0x and fixed notation, is the same bytes as format(v, ".12g") per value
pdlsic curves --alpha 0.9 --snr-db-min -60 --snr-db-max 130 --snr-db-step 0.01 --out "$tmp/curves_notation.csv"
python -c 'import math, sys, numpy as np; from pdlsic import capacity as c; a = 0.9; d = np.minimum(-60.0 + 0.01 * np.arange(math.floor(190.0 / 0.01 + 1e-9) + 1), 130.0); s = 10.0 ** (d / 10.0); cols = [d, c.c_awgn(s), c.c_compound(a, s), c.c_compound_approx(a, s), c.c_parallel(a, s), c.c_parallel_approx(a, s), c.c_nonjoint(a, s)]; sys.stdout.write("snr_db,c_awgn,c_compound,c_compound_approx,c_parallel,c_parallel_approx,c_nonjoint\n" + "".join(",".join(format(float(v), ".12g") for v in row) + "\n" for row in zip(*cols)))' > "$tmp/curves_notation_ref.csv"
cmp "$tmp/curves_notation.csv" "$tmp/curves_notation_ref.csv"

# a fixed config gives a byte-identical report: reference, fast-fading and Grid runs
pdlsic simulate --config configs/lmmse_sic_6db.json --out "$tmp/report1.json"
pdlsic simulate --config configs/lmmse_sic_6db.json --out "$tmp/report2.json"
cmp "$tmp/report1.json" "$tmp/report2.json"
pdlsic simulate --config configs/lmmse_sic_6db_fastfade.json --out "$tmp/fastfade1.json"
pdlsic simulate --config configs/lmmse_sic_6db_fastfade.json --out "$tmp/fastfade2.json"
cmp "$tmp/fastfade1.json" "$tmp/fastfade2.json"
pdlsic simulate --config configs/lmmse_sic_6db_grid.json --out "$tmp/grid1.json"
pdlsic simulate --config configs/lmmse_sic_6db_grid.json --out "$tmp/grid2.json"
cmp "$tmp/grid1.json" "$tmp/grid2.json"

# the fast-fading simulate --out, its chunks in one workspace per run, is the same bytes under 1 and 2 BLAS threads
OPENBLAS_NUM_THREADS=1 pdlsic simulate --config configs/lmmse_sic_6db_fastfade.json --out "$tmp/fastfade_threads1.json"
OPENBLAS_NUM_THREADS=2 pdlsic simulate --config configs/lmmse_sic_6db_fastfade.json --out "$tmp/fastfade_threads2.json"
cmp "$tmp/fastfade_threads1.json" "$tmp/fastfade_threads2.json"

# a complex PAM(4) ZF-SIC run with a ragged last block is byte-identical
printf '%s\n' '{"model": "ComplexEquivalent", "alpha": 0.599, "snr": {"snr_linear": 8}, "param_mode": "WorstCaseEdge", "scheme": "ZF-SIC", "trials": 2003, "seed": 42, "constellation": "PAM(4)", "block_size": 10}' > "$tmp/pam4.json"
pdlsic simulate --config "$tmp/pam4.json" --out "$tmp/pam4_1.json"
pdlsic simulate --config "$tmp/pam4.json" --out "$tmp/pam4_2.json"
cmp "$tmp/pam4_1.json" "$tmp/pam4_2.json"

# a PAM stream without genie errors still writes a report
printf '%s\n' '{"model": "Real", "alpha": 0.599, "snr": {"snr_linear": 1000}, "param_mode": "WorstCaseEdge", "scheme": "ZF-SIC", "trials": 2000, "seed": 42, "constellation": "PAM(2)", "block_size": 10}' > "$tmp/pam2.json"
pdlsic simulate --config "$tmp/pam2.json" --out "$tmp/pam2_1.json"

# a real-model NoPrecode-ZF run with a ragged last block is byte-identical
printf '%s\n' '{"model": "Real", "alpha": 0.9, "snr": {"snr_linear": 100}, "param_mode": "UniformInterior", "scheme": "NoPrecode-ZF", "trials": 2003, "seed": 7, "block_size": 10}' > "$tmp/noprecode.json"
pdlsic simulate --config "$tmp/noprecode.json" --out "$tmp/noprecode1.json"
pdlsic simulate --config "$tmp/noprecode.json" --out "$tmp/noprecode2.json"
cmp "$tmp/noprecode1.json" "$tmp/noprecode2.json"

# every simulate report above is strict JSON: no NaN, Infinity or -Infinity constants
python -c 'import json, sys; [json.load(open(p), parse_constant=lambda c: sys.exit(f"{p}: non-standard JSON constant {c}")) for p in sys.argv[1:]]' "$tmp"/report[12].json "$tmp"/fastfade[12].json "$tmp"/grid[12].json "$tmp"/pam4_[12].json "$tmp"/pam2_1.json "$tmp"/noprecode[12].json

# a report that would hold NaN or Infinity exits 2 and writes no --out file
printf '%s\n' '{"model": "Real", "alpha": 0.599, "snr": {"snr_linear": 1e306}, "param_mode": "WorstCaseEdge", "scheme": "ZF-SIC", "trials": 2000, "seed": 42, "block_size": 1000}' > "$tmp/overflow.json"
expect 2 pdlsic simulate --config "$tmp/overflow.json" --out "$tmp/overflow_out.json"; test ! -e "$tmp/overflow_out.json"

# a config that is not a JSON object exits 2
printf '%s\n' '[]' > "$tmp/array.json"
expect 2 pdlsic simulate --config "$tmp/array.json" --seed 3

# a run too large for memory exits 2 and writes no --out file
printf '%s\n' '{"model": "Real", "alpha": 0.599, "snr": {"snr_linear": 20}, "param_mode": "WorstCaseEdge", "scheme": "ZF", "trials": 1000000000000000, "seed": 0, "block_size": 1}' > "$tmp/oversized.json"
expect 2 pdlsic simulate --config "$tmp/oversized.json" --out "$tmp/oversized_out.json"; test ! -e "$tmp/oversized_out.json"

# a complex LMMSE-SIC run whose statistics underflow exits 2 and writes no --out file
printf '%s\n' '{"model": "ComplexEquivalent", "alpha": 0.599, "snr": {"snr_linear": 1e-110}, "param_mode": "WorstCaseEdge", "scheme": "LMMSE-SIC", "trials": 200, "seed": 42, "block_size": 10}' > "$tmp/underflow.json"
expect 2 pdlsic simulate --config "$tmp/underflow.json" --out "$tmp/underflow_out.json"; test ! -e "$tmp/underflow_out.json"

# the means suite passes
pdlsic verify --suite means --pdl-db 6

# the star-property --out, tie-first points included, is the same bytes under 1 and 2 BLAS threads
OPENBLAS_NUM_THREADS=1 pdlsic verify --suite star-property --model both --alpha 0.599 --out "$tmp/star_1a.json"
OPENBLAS_NUM_THREADS=1 pdlsic verify --suite star-property --model both --alpha 0.599 --out "$tmp/star_1b.json"
OPENBLAS_NUM_THREADS=2 pdlsic verify --suite star-property --model both --alpha 0.599 --out "$tmp/star_2.json"
cmp "$tmp/star_1a.json" "$tmp/star_1b.json"
cmp "$tmp/star_1a.json" "$tmp/star_2.json"

# the real 0,2,1,3 control fails on the default 201-gamma grid, the same bytes under 1 and 2 BLAS threads
expect 1 env OPENBLAS_NUM_THREADS=1 pdlsic verify --suite star-property --model real --alpha 0.599 --permute 0,2,1,3 --out "$tmp/permuted_1.json"
expect 1 env OPENBLAS_NUM_THREADS=2 pdlsic verify --suite star-property --model real --alpha 0.599 --permute 0,2,1,3 --out "$tmp/permuted_2.json"
cmp "$tmp/permuted_1.json" "$tmp/permuted_2.json"

# the complex identity control fails on the default grid, the same bytes under 1 and 2 BLAS threads;
# its Gram plan leaves out 20 of the 36 entries, a different pattern from the universal precoder's 16
expect 1 env OPENBLAS_NUM_THREADS=1 pdlsic verify --suite star-property --model complex --precoder identity --alpha 0.599 --out "$tmp/identity_1.json"
expect 1 env OPENBLAS_NUM_THREADS=2 pdlsic verify --suite star-property --model complex --precoder identity --alpha 0.599 --out "$tmp/identity_2.json"
cmp "$tmp/identity_1.json" "$tmp/identity_2.json"

# 135 complex theta rows run as slabs of 67 and 68 rows, one ending inside a gamma sheet:
# the same bytes under 1 and 2 BLAS threads, and the identity control still fails
OPENBLAS_NUM_THREADS=1 pdlsic verify --suite star-property --model complex --alpha 0.599 --n-gamma 3 --n-theta 45 --out "$tmp/rows_1.json"
OPENBLAS_NUM_THREADS=2 pdlsic verify --suite star-property --model complex --alpha 0.599 --n-gamma 3 --n-theta 45 --out "$tmp/rows_2.json"
cmp "$tmp/rows_1.json" "$tmp/rows_2.json"
expect 1 pdlsic verify --suite star-property --model complex --alpha 0.599 --n-gamma 3 --n-theta 45 --precoder identity

# the star-property oracle fails both controls
expect 1 pdlsic verify --suite star-property --model real --alpha 0.599 --n-gamma 3 --permute 0,2,1,3
expect 1 pdlsic verify --suite star-property --model complex --alpha 0.599 --n-gamma 3 --precoder identity

# a --permute order that misfits a model exits 2 with no output
expect 2 pdlsic verify --suite star-property --alpha 0.599 --n-gamma 3 --permute 0,2,1,3 > "$tmp/misfit.txt"; test ! -s "$tmp/misfit.txt"

# the star-property oracle passes the universal precoder at -140 dB, where its rates are 7e-15 bits
pdlsic verify --suite star-property --model both --alpha 0.9 --n-gamma 5 --snr-db -140

# every other verify suite passes, worst-case at -100 dB too
pdlsic verify --suite orthogonality --alpha 0.9
pdlsic verify --suite snr-closed-forms --alpha 0.9
pdlsic verify --suite worst-case --pdl-db 6
pdlsic verify --suite worst-case --alpha 0.9 --snr-db -100

# worst-case refuses with exit 2 a grid that would fail it by construction: an even --n-beta
# misses beta = 1/2, and one gamma point misses gamma = -alpha or +alpha
expect 2 pdlsic verify --suite worst-case --alpha 0.5 --n-beta 200
expect 2 pdlsic verify --suite worst-case --alpha 0.5 --n-gamma 1

# the orthogonality and snr-closed-forms suites fail the identity and 0,2,1,3 controls
expect 1 pdlsic verify --suite orthogonality --alpha 0.9 --precoder identity
expect 1 pdlsic verify --suite snr-closed-forms --alpha 0.9 --model real --permute 0,2,1,3

# snr-closed-forms refuses with exit 2 and no --out file where its rounding floor reaches the tolerance (from 205 dB on both models)
expect 2 pdlsic verify --suite snr-closed-forms --alpha 0.5 --snr-db 230 --out "$tmp/floor.json"; test ! -e "$tmp/floor.json"

# means refuses a control with exit 2
expect 2 pdlsic verify --suite means --pdl-db 6 --precoder identity

# curves past the float range exits 2 with no output
expect 2 pdlsic curves --alpha 0.9 --snr-db-min 3080 --snr-db-max 3082 --snr-db-step 1 > "$tmp/overflow_curves.csv"; test ! -s "$tmp/overflow_curves.csv"

# a verify --out that would hold Infinity exits 2 and writes no file
expect 2 pdlsic verify --suite means --alpha 0.5 --snr-db 1550 --out "$tmp/means_overflow.json"; test ! -e "$tmp/means_overflow.json"

# an overflowing means run without --out exits 2 with no output
expect 2 pdlsic verify --suite means --alpha 0.5 --snr-db 1550 > "$tmp/means_overflow.txt"; test ! -s "$tmp/means_overflow.txt"

# an overflowing --pdl-db exits 2
expect 2 pdlsic penalties --pdl-db 3100

# a --model on means exits 2
expect 2 pdlsic verify --suite means --alpha 0.5 --model real
