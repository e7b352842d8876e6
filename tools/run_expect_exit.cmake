# Runs TOOL with ARGS (semicolon-separated) and fails unless the exit
# code equals EXPECTED — the harness behind the exit-code contract tests
# (fft_lint's failed-check classes, fft_loadgen's usage errors), which pin
# each failure to its documented status (ctest itself can only assert
# zero/nonzero).
if(NOT DEFINED TOOL OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "run_expect_exit: TOOL and EXPECTED are required")
endif()
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${TOOL} ${arg_list}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code EQUAL EXPECTED)
  message(FATAL_ERROR
    "expected exit ${EXPECTED}, got ${code}\nstdout:\n${out}\nstderr:\n${err}")
endif()
