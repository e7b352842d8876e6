# Runner for the opt-in serving-throughput gate (see C64FFT_BENCH_CHECK):
# run fft_loadgen's compare mode (a coalesced pass and a one-request-
# per-phase baseline pass over the same mixed traffic), then gate the
# emitted LG_* rows with bench_check:
#
#   cmake -DLOADGEN=<bin> -DBENCH_CHECK=<bin> -DBASELINE=<json> \
#         -DOUT=<json> [-DTOLERANCE=0.50] [-DRATIO_MIN=1.5] \
#         -P run_loadgen_check.cmake
#
# Three properties are asserted:
#   1. zero steady-state dispatch-path allocations and a realized
#      coalescing factor (fft_loadgen --assert-* flags, exit status);
#   2. per-row throughput vs the committed BENCH_baseline.json LG_ rows
#      (tolerance is wide — serving throughput swings more than the
#      microbenches because the passes time wall-clock mixed traffic);
#   3. the coalescing payoff itself: coalesced items_per_second over the
#      uncoalesced baseline's must be >= RATIO_MIN. Both rows come from
#      the same run on the same machine, so the ratio — the property the
#      serving front-end exists to deliver — is immune to host drift.
#
# The traffic shape is pinned (8 clients x 4 tenants x 3 lanes, mixed
# precision, N in {64, 96, 101, 128}, 8 outstanding each, workers=2): the
# payoff being gated is phase-overhead amortization, so the executor must
# actually run scheduler phases (workers >= 2 — a 1-worker team runs
# inline, where there is no wake to amortize and per-buffer cache
# locality dominates instead). The size mix deliberately
# spans all three plan routes — pow2 classic, 7-smooth composite (96,
# mixed-radix) and prime (101, Bluestein) — so the gate covers exact-N
# serving, not just pow2.
#
# Regenerating the committed LG_ baseline rows: run this compare mode
# several times on a quiet machine and keep, per row, the run with the
# SMALLEST items_per_second (the conservative envelope, mirroring the
# per-row max real_time rule in run_bench_check.cmake).

foreach(var LOADGEN BENCH_CHECK BASELINE OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_loadgen_check: -D${var}=... is required")
  endif()
endforeach()
if(NOT DEFINED TOLERANCE)
  set(TOLERANCE 0.50)
endif()
if(NOT DEFINED RATIO_MIN)
  set(RATIO_MIN 1.5)
endif()

execute_process(
  COMMAND ${LOADGEN} --mode=compare
          --clients=8 --tenants=4 --outstanding=8
          --sizes=64,96,101,128 --precision=mixed --workers=2
          --warmup-ms=200 --duration-ms=500
          --json=${OUT}
          --assert-min-coalesce=2
          --assert-zero-alloc
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run_loadgen_check: fft_loadgen failed (${rc})")
endif()

# --filter=^LG_ scopes the diff to the serving rows: the committed
# baseline also carries the micro_kernels BM_ rows, which only
# run_bench_check.cmake regenerates.
execute_process(
  COMMAND ${BENCH_CHECK} --baseline=${BASELINE} --current=${OUT}
          --tolerance=${TOLERANCE} --metric=items_per_second --filter=^LG_
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run_loadgen_check: bench_check reported regressions (${rc})")
endif()

execute_process(
  COMMAND ${BENCH_CHECK} --current=${OUT} --metric=items_per_second
          --ratio-num=LG_ServeCoalesced --ratio-den=LG_ServeUncoalesced
          --ratio-min=${RATIO_MIN}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run_loadgen_check: coalescing speedup gate failed (${rc})")
endif()
