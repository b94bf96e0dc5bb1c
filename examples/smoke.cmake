# Runs one example (cmake -DEXAMPLE=<binary> [-DEXPECT=<regex>] -P smoke.cmake):
# fails on a nonzero exit, or when EXPECT is set and the output lacks it.
execute_process(COMMAND "${EXAMPLE}" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
if(EXPECT AND NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${EXAMPLE}: no output line matches '${EXPECT}'")
endif()
