# The production/harness boundary, checked on the built tree. Production
# is what c64fft_serve links: the c64fft_fft, c64fft_codelet,
# c64fft_serve and c64fft_util libraries (src/fft, src/codelet,
# src/serve, src/util). Fails when
#   * a production source includes a header of the paper harness (paper/),
#     the simulator (simfft/, c64/) or the static analyzer (analysis/), or
#   * `nm -C` over a production archive shows a harness symbol, defined or
#     referenced.
#
#   cmake -DSOURCE_DIR=<repo> -DNM=<nm> "-DARCHIVES=<a.a;b.a;c.a;d.a>" \
#         -P tools/check_boundary.cmake
if(NOT DEFINED SOURCE_DIR OR NOT NM OR NOT DEFINED ARCHIVES)
  message(FATAL_ERROR "check_boundary: SOURCE_DIR, NM and ARCHIVES are required")
endif()

set(violations "")
file(GLOB_RECURSE sources
  ${SOURCE_DIR}/src/fft/*.hpp ${SOURCE_DIR}/src/fft/*.cpp
  ${SOURCE_DIR}/src/codelet/*.hpp ${SOURCE_DIR}/src/codelet/*.cpp
  ${SOURCE_DIR}/src/serve/*.hpp ${SOURCE_DIR}/src/serve/*.cpp
  ${SOURCE_DIR}/src/util/*.hpp ${SOURCE_DIR}/src/util/*.cpp)
foreach(src ${sources})
  file(STRINGS ${src} hits
    REGEX "^[ \t]*#[ \t]*include[ \t]*[\"<](paper|simfft|c64|analysis)/")
  foreach(hit ${hits})
    string(APPEND violations "\n  ${src}: ${hit}")
  endforeach()
endforeach()

set(harness "(FftPlan|StageInfo|run_codelet|fft_host|run_pool_phase|DependencyCounters|CodeletGraph|FineOrdering|TrafficCensus|PaperFftOptions|BasicTwiddleTable|TwiddleLayout)")
foreach(archive ${ARCHIVES})
  execute_process(COMMAND ${NM} -C ${archive}
    RESULT_VARIABLE code OUTPUT_VARIABLE symbols ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "check_boundary: ${NM} -C ${archive} exited ${code}\n${err}")
  endif()
  string(REGEX MATCHALL "[^\n]*${harness}[^\n]*" hits "${symbols}")
  foreach(hit ${hits})
    string(APPEND violations "\n  ${archive}: ${hit}")
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR "production code reaches the paper harness:${violations}")
endif()
