# Run a bench's exact baseline gate against a copy of its baseline
# and require an exit status.
#
#   cmake -DBENCH=bench_lazycache -DBASELINE=BENCH_x.baseline.json
#         -DCOPY=out.json -DEDIT=1 -DEXPECT=1 -P bench_gate_digest.cmake
#
# With EDIT=1 the copy's first row digest is changed (its gated field
# is not), so the gate must see a mismatch and exit 1.
file(READ ${BASELINE} text)
if(EDIT)
    string(REGEX MATCH "\"digest\": \"[0-9a-f]+\"" digest "${text}")
    if(NOT digest)
        message(FATAL_ERROR "no digest in ${BASELINE}")
    endif()
    string(REPLACE "${digest}" "\"digest\": \"0123456789abcdef\""
           text "${text}")
endif()
file(WRITE ${COPY} "${text}")
execute_process(COMMAND ${BENCH} --check-against=${COPY}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECT}")
    message(FATAL_ERROR
            "'${BENCH} --check-against=${COPY}' exited ${status}, "
            "expected ${EXPECT}\n${out}${err}")
endif()
