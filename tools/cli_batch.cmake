# vcoma_batch end to end, run as a ctest through `cmake -P`:
#   1. a tiny sweep under VCOMA_JOBS=1 and VCOMA_JOBS=4, each on a
#      fresh cache, writes byte-identical JSONL, every config
#      reported "(simulated)";
#   2. a warm rerun reports every config "(cached)" and writes the
#      same bytes;
#   3. a poisoned config (--inject-fault) appends its placeholder line
#      and exits 1, leaving the lines already written intact;
#   4. a batch mixing a failing config with a good one still writes
#      the good config's sheet, then the placeholder, and exits 1.
# Inputs: -DBATCH=<vcoma_batch> -DWORK_DIR=<dir>

foreach(var BATCH WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "cli_batch: -D${var}=... missing")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(sweep --workloads UNIFORM,STRIDE --schemes L0,VCOMA --scale 0.05)

# batch(<expected exit> <jobs> <cache> <jsonl> <stderr var> args...)
function(batch expect jobs cache jsonl err_var)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env VCOMA_JOBS=${jobs}
                "VCOMA_CACHE_DIR=${WORK_DIR}/${cache}"
                ${BATCH} ${ARGN} --jsonl "${WORK_DIR}/${jsonl}"
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL expect)
        message(FATAL_ERROR "vcoma_batch ${ARGN}: exit ${rc}, expected "
                            "${expect}\n${out}${err}")
    endif()
    set(${err_var} "${err}" PARENT_SCOPE)
endfunction()

function(count_matches out_var text needle)
    string(REGEX MATCHALL "${needle}" hits "${text}")
    list(LENGTH hits n)
    set(${out_var} ${n} PARENT_SCOPE)
endfunction()

function(expect_provenance err simulated cached)
    count_matches(s "${err}" "vcoma_batch: [^\n]* \\(simulated\\)")
    count_matches(c "${err}" "vcoma_batch: [^\n]* \\(cached\\)")
    if(NOT s EQUAL simulated OR NOT c EQUAL cached)
        message(FATAL_ERROR "expected ${simulated} simulated and "
                            "${cached} cached, got ${s} and ${c}:\n${err}")
    endif()
endfunction()

# 1. Serial and parallel, each cold.
batch(0 1 serial serial.jsonl err ${sweep})
expect_provenance("${err}" 4 0)
batch(0 4 parallel parallel.jsonl err ${sweep})
expect_provenance("${err}" 4 0)
file(READ "${WORK_DIR}/serial.jsonl" serial)
file(READ "${WORK_DIR}/parallel.jsonl" parallel)
count_matches(lines "${serial}" "\n")
if(NOT lines EQUAL 4)
    message(FATAL_ERROR "expected 4 JSONL lines, got ${lines}")
endif()
if(NOT serial STREQUAL parallel)
    message(FATAL_ERROR "VCOMA_JOBS=1 and VCOMA_JOBS=4 sweeps differ; "
                        "see ${WORK_DIR}/serial.jsonl and parallel.jsonl")
endif()

# 2. Warm rerun on the parallel cache.
batch(0 4 parallel warm.jsonl err ${sweep})
expect_provenance("${err}" 0 4)
file(READ "${WORK_DIR}/warm.jsonl" warm)
if(NOT warm STREQUAL serial)
    message(FATAL_ERROR "warm rerun wrote different bytes; see "
                        "${WORK_DIR}/warm.jsonl and serial.jsonl")
endif()

# 3. A poisoned config appended to the same file.
batch(1 4 parallel warm.jsonl err
      --workload UNIFORM --scheme VCOMA --scale 0.05
      --inject-fault corrupt-am-state)
file(READ "${WORK_DIR}/warm.jsonl" poisoned)
string(LENGTH "${serial}" head_len)
string(SUBSTRING "${poisoned}" 0 ${head_len} head)
string(SUBSTRING "${poisoned}" ${head_len} -1 tail)
if(NOT head STREQUAL serial)
    message(FATAL_ERROR "the poisoned run disturbed earlier lines")
endif()
if(NOT tail MATCHES
   "^{\"schema\":1,\"key\":\"UNIFORM-V-COMA-[^\"\n]*-fcorrupt-am-state\",\"error\":\"[^\n]+\"}\n$")
    message(FATAL_ERROR "no placeholder line for the poisoned config:\n"
                        "${tail}")
endif()

# 4. One batch: a good config, then one that cannot simulate.
batch(0 4 parallel good.jsonl err --workload UNIFORM --scheme VCOMA
      --scale 0.05)
batch(1 4 parallel mixed.jsonl err --workloads UNIFORM,NO_SUCH_WORKLOAD
      --scheme VCOMA --scale 0.05)
file(READ "${WORK_DIR}/good.jsonl" good)
file(READ "${WORK_DIR}/mixed.jsonl" mixed)
string(LENGTH "${good}" good_len)
string(SUBSTRING "${mixed}" 0 ${good_len} head)
string(SUBSTRING "${mixed}" ${good_len} -1 tail)
if(NOT head STREQUAL good)
    message(FATAL_ERROR "the good config's sheet is missing from a "
                        "batch with a failing config:\n${mixed}")
endif()
if(NOT tail MATCHES
   "^{\"schema\":1,\"key\":\"NO_SUCH_WORKLOAD-V-COMA-[^\"\n]*\",\"error\":\"[^\n]+\"}\n$")
    message(FATAL_ERROR "no placeholder line for the failing config:\n"
                        "${tail}")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
