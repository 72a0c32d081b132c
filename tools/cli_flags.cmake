# Strict CLI number parsing, run as a ctest through `cmake -P`: every
# malformed numeric flag value must make vcoma_sim and vcoma_batch
# exit 2 with a message naming the flag, never run with a misread
# number. Each bad flag comes after a tiny valid config, so a lax
# parser would run that config (exit 0, or die of a wrapped value)
# and fail the test rather than hang on a full-size simulation.
# Inputs: -DSIM=<vcoma_sim> -DBATCH=<vcoma_batch> -DWORK_DIR=<dir>

foreach(var SIM BATCH WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_flags: -D${var}=... missing")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(tiny --workload UNIFORM --nodes 4 --scale 0.05)
# FLAG=VALUE pairs, split below (CMake lists cannot nest).
set(bad_flags --entries=8x --nodes=4oops --scale=0.05x --entries=-1
              --seed=-3)

function(expect_rejected tool)
    foreach(pair IN LISTS bad_flags)
        string(REPLACE "=" ";" pair "${pair}")
        list(GET pair 0 flag)
        list(GET pair 1 value)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E env VCOMA_NO_CACHE=1
                    ${tool} ${tiny} ${ARGN} ${flag} ${value}
            WORKING_DIRECTORY "${WORK_DIR}"
            RESULT_VARIABLE rc
            OUTPUT_VARIABLE out
            ERROR_VARIABLE err)
        if(NOT rc EQUAL 2)
            message(FATAL_ERROR
                "${tool} ${flag} ${value}: exit ${rc}, expected 2\n"
                "${out}${err}")
        endif()
        string(FIND "${err}" "${flag}" named)
        if(named EQUAL -1)
            message(FATAL_ERROR
                "${tool} ${flag} ${value}: message does not name "
                "${flag}:\n${err}")
        endif()
    endforeach()
endfunction()

expect_rejected("${SIM}")
expect_rejected("${BATCH}" --jsonl "${WORK_DIR}/unused.jsonl")

# The same flags with well-formed values still run.
execute_process(
    COMMAND ${SIM} ${tiny} --entries 8 --seed 3
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "valid flags rejected (exit ${rc}):\n${out}${err}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
