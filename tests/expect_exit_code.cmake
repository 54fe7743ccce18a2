# Run CMD (a ;-separated command line) and fail unless it exits with EXPECT.
# Usage: cmake -DCMD="prog;arg1;arg2" -DEXPECT=2 -P expect_exit_code.cmake
execute_process(COMMAND ${CMD} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "expected exit code ${EXPECT}, got ${rc}")
endif()
