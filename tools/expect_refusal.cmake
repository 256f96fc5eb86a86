# ctest driver for masq_scaletest's input checks: runs EXE with ARGS and
# passes only when it exits with status 2 after printing the usage text.
#
#   cmake -DEXE=<masq_scaletest> "-DARGS=<flags>" -P expect_refusal.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT out MATCHES "usage:")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${rc}, expected 2 with the "
                      "usage text\n${out}${err}")
endif()
