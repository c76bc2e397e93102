# Run one command line and require a given exit status.
#
#   cmake -DCMD="prog;--flag=value" -DEXPECT=2 -P cli_expect_exit.cmake
#
# Used by the command-line argument tests: a malformed numeric option
# must stop the tool with status 2 before any simulation runs.
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECT}")
    message(FATAL_ERROR
            "'${CMD}' exited ${status}, expected ${EXPECT}\n${out}${err}")
endif()
