# Runner for the opt-in perf-regression ctest (see C64FFT_BENCH_CHECK):
# produce a fresh google-benchmark JSON report from micro_kernels, then
# gate it against the committed baseline with bench_check.
#
#   cmake -DMICRO_KERNELS=<bin> -DBENCH_CHECK=<bin> -DBASELINE=<json> \
#         -DOUT=<json> [-DTOLERANCE=0.30] -P run_bench_check.cmake
#
# Regenerating the committed baseline: run micro_kernels (same
# --benchmark_min_time=0.05) several times on a quiet machine and keep,
# per benchmark, the run with the LARGEST real_time. A single lucky
# fast-window run as baseline turns every later steady-state run into a
# false regression on hosts whose clock drifts under sustained load; the
# per-row max is the conservative envelope the tolerance is meant to
# guard from.

foreach(var MICRO_KERNELS BENCH_CHECK BASELINE OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_bench_check: -D${var}=... is required")
  endif()
endforeach()
if(NOT DEFINED TOLERANCE)
  set(TOLERANCE 0.30)
endif()

execute_process(
  COMMAND ${MICRO_KERNELS}
          --benchmark_out=${OUT}
          --benchmark_out_format=json
          --benchmark_min_time=0.05
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run_bench_check: micro_kernels exited with ${rc}")
endif()

# Compare wall time, not the default cpu_time: the executor rows run
# UseRealTime with the work on the team's threads, so their main-thread
# cpu_time is scheduler noise; real_time is the meaningful metric for
# them and equivalent for the single-threaded kernel rows.
# --exclude=^LG_ scopes the diff to this binary's rows: the committed
# baseline also carries the fft_loadgen serving rows, which only the
# loadgen gate (run_loadgen_check.cmake) regenerates.
execute_process(
  COMMAND ${BENCH_CHECK} --baseline=${BASELINE} --current=${OUT}
          --tolerance=${TOLERANCE} --metric=real_time --exclude=^LG_
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run_bench_check: bench_check reported regressions (${rc})")
endif()

# RATIO_FILTER/RATIO_NUM/RATIO_DEN/RATIO_MIN (optional, given together)
# add the cross-row speedup gate: a second, filtered run re-measures just
# the paired rows with randomly interleaved repetitions, and
# min(current[RATIO_NUM]) / min(current[RATIO_DEN]) over each row's
# repetitions must be >= RATIO_MIN. Both rows come from the same run on
# the same machine (drift-immune), and gating on each side's fastest
# repetition measures the uncontended runtimes — the property the gate
# asserts is a speedup of the code, not of the neighbor load, and
# interference only ever adds time. 31 repetitions give both rows enough
# chances to land in quiet windows even on a busy host (medians were
# tried first and still swung +/-10% with the noise).
#
# RATIO2_*/RATIO3_* (same four variables each) add independent further
# gates with their own filtered runs — one bench_check ctest can then pin
# several unrelated speedup pairs (the SIMD payoff, the hierarchical-vs-
# classic large-N payoff, the exact-N mixed-radix-vs-padded-pow2 payoff)
# without paying the full baseline sweep repeatedly.
foreach(gate "" "2" "3")
  if(DEFINED RATIO${gate}_MIN)
    execute_process(
      COMMAND ${MICRO_KERNELS}
              --benchmark_out=${OUT}.ratio${gate}.json
              --benchmark_out_format=json
              "--benchmark_filter=${RATIO${gate}_FILTER}"
              --benchmark_min_time=0.05
              --benchmark_repetitions=31
              --benchmark_enable_random_interleaving=true
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "run_bench_check: ratio${gate} rerun exited with ${rc}")
    endif()
    execute_process(
      COMMAND ${BENCH_CHECK} --current=${OUT}.ratio${gate}.json --metric=real_time
              --ratio-num=${RATIO${gate}_NUM} --ratio-den=${RATIO${gate}_DEN}
              --ratio-min=${RATIO${gate}_MIN} --ratio-agg=min
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "run_bench_check: ratio${gate} gate failed (${rc})")
    endif()
  endif()
endforeach()
