# Smoke test for `ldla_cli sweep`: simulate a region with a planted sweep
# into an ms file, scan it, and require exit status 0 from both commands
# and the "peak omega" line from the scan.
#
#   cmake -DCLI=<path to ldla_cli> -DWORK_DIR=<scratch dir> \
#         -P cli_sweep_smoke.cmake
set(input "${WORK_DIR}/cli_sweep_smoke.ms")

execute_process(COMMAND "${CLI}" simulate --sweep 0.5 --out "${input}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ldla_cli simulate exited ${rc}:\n${out}${err}")
endif()

execute_process(COMMAND "${CLI}" sweep "${input}" --grid 20
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
file(REMOVE "${input}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ldla_cli sweep exited ${rc}:\n${out}${err}")
endif()
if(NOT out MATCHES "peak omega [0-9]")
  message(FATAL_ERROR "ldla_cli sweep printed no peak omega line:\n${out}")
endif()
message(STATUS "${out}")
