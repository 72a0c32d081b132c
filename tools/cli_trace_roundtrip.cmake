# CLI trace round trip, run as a ctest through `cmake -P`:
#   1. vcoma_sim records a live FFT run as a packed trace (--record);
#   2. vcoma_trace validate accepts the file;
#   3. vcoma_sim replays it (--workload TRACE:FILE) and prints the
#      same stats sheet, byte for byte, as the live run.
# Inputs: -DSIM=<vcoma_sim> -DTRACE_TOOL=<vcoma_trace> -DWORK_DIR=<dir>

foreach(var SIM TRACE_TOOL WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_trace_roundtrip: -D${var}=... missing")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/f.vctrace")

function(run_checked out_var)
    execute_process(COMMAND ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "'${ARGN}' exited ${rc}:\n${out}${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

run_checked(live "${SIM}" --workload FFT --scale 0.05
            --record "${trace}" --dump-stats)
if(NOT EXISTS "${trace}")
    message(FATAL_ERROR "--record did not write ${trace}")
endif()
run_checked(validated "${TRACE_TOOL}" validate "${trace}")
run_checked(replayed "${SIM}" --workload "TRACE:${trace}" --dump-stats)

if(NOT live STREQUAL replayed)
    file(WRITE "${WORK_DIR}/live.txt" "${live}")
    file(WRITE "${WORK_DIR}/replayed.txt" "${replayed}")
    message(FATAL_ERROR "replayed sheet differs from the live run; "
                        "see ${WORK_DIR}/live.txt and replayed.txt")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
