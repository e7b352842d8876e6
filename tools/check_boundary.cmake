# The production/harness boundary, checked on the built tree. Production
# is what c64fft_serve links: the c64fft_fft, c64fft_codelet,
# c64fft_serve and c64fft_util libraries (src/fft, src/codelet,
# src/serve, and the util modules production uses: aligned_buffer,
# bit_ops, cpu_features). Fails when
#   * a production source includes a header of the paper harness (paper/),
#     the simulator (simfft/, c64/) or the static analyzer (analysis/), or
#     a util header outside those three modules (the harness-side util
#     library c64fft_harness_util: stats, tables, CLI, signals, JSON, ...),
#     or
#   * `nm -C` over a production archive shows a harness symbol, defined or
#     referenced: the paper's plan/codelet/table machinery, the reference
#     transforms the tests hold production to, or a harness util symbol.
#
#   cmake -DSOURCE_DIR=<repo> -DNM=<nm> "-DARCHIVES=<a.a;b.a;c.a;d.a>" \
#         -P tools/check_boundary.cmake
if(NOT DEFINED SOURCE_DIR OR NOT NM OR NOT DEFINED ARCHIVES)
  message(FATAL_ERROR "check_boundary: SOURCE_DIR, NM and ARCHIVES are required")
endif()

set(production_util "(aligned_buffer|bit_ops|cpu_features)")
set(violations "")
file(GLOB_RECURSE sources
  ${SOURCE_DIR}/src/fft/*.hpp ${SOURCE_DIR}/src/fft/*.cpp
  ${SOURCE_DIR}/src/codelet/*.hpp ${SOURCE_DIR}/src/codelet/*.cpp
  ${SOURCE_DIR}/src/serve/*.hpp ${SOURCE_DIR}/src/serve/*.cpp)
file(GLOB util_sources ${SOURCE_DIR}/src/util/*.hpp ${SOURCE_DIR}/src/util/*.cpp)
list(FILTER util_sources INCLUDE REGEX "/${production_util}\\.(hpp|cpp)$")
list(APPEND sources ${util_sources})
foreach(src ${sources})
  file(STRINGS ${src} hits
    REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<]((paper|simfft|c64|analysis)/|util/)")
  foreach(hit ${hits})
    if(NOT hit MATCHES "util/${production_util}\\.hpp")
      string(APPEND violations "\n  ${src}: ${hit}")
    endif()
  endforeach()
endforeach()

set(harness "(FftPlan|StageInfo|run_codelet|fft_host|run_pool_phase|DependencyCounters|CodeletGraph|FineOrdering|TrafficCensus|PaperFftOptions|BasicTwiddleTable|TwiddleLayout|fft_serial_inplace|fft_recursive|dft_reference|ifft_reference|bit_reverse_permute)")
set(harness_util "c64fft::util::(RunningStats|WindowedSeries|TextTable|CliParser|ToneSpec|SignalBuilder|random_complex|Json|json_parse|BenchD|diff_benchmarks|has_regression|format_bench_report|benchmark_metric|metric_is_rate|percentile|mean|imbalance_ratio|geomean|WindowKind|make_window|apply_window|coherent_gain|power_spectrum|alloc_count)")
foreach(archive ${ARCHIVES})
  execute_process(COMMAND ${NM} -C ${archive}
    RESULT_VARIABLE code OUTPUT_VARIABLE symbols ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "check_boundary: ${NM} -C ${archive} exited ${code}\n${err}")
  endif()
  string(REGEX MATCHALL "[^\n]*(${harness}|${harness_util})[^\n]*" hits
    "${symbols}")
  foreach(hit ${hits})
    string(APPEND violations "\n  ${archive}: ${hit}")
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR "production code reaches the harness:${violations}")
endif()
