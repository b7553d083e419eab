# Runs CLI with --input=INPUT plus one optional FLAG and fails unless the
# exit code is EXPECTED. Used by the example CLI tests in
# examples/CMakeLists.txt:
#   cmake -DCLI=... -DINPUT=... [-DFLAG=...] -DEXPECTED=N -P expect_exit.cmake
execute_process(
  COMMAND ${CLI} --input=${INPUT} ${FLAG}
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECTED}")
  message(FATAL_ERROR
    "${CLI} --input=${INPUT} ${FLAG}: exit ${code}, expected ${EXPECTED}\n"
    "stdout:\n${out}\nstderr:\n${err}")
endif()
