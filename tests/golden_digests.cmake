# Require latrsim_check's state digests to match the committed golden
# files byte for byte, so an engine change that claims to leave the
# simulation untouched is checked against the build that recorded
# them, not against a second code path.
#
#   cmake -DCHECK=path/to/latrsim_check -DGOLDEN_DIR=tests/golden \
#         -P golden_digests.cmake
#
# Regenerate (only after an intended model change) with
#   latrsim_check --digest=100 > tests/golden/digest_small.txt
#   latrsim_check --digest=20 --machine=large > tests/golden/digest_large.txt
function(expect_digest golden)
    execute_process(COMMAND ${CHECK} ${ARGN}
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "latrsim_check ${ARGN} exited ${status}\n${err}")
    endif()
    file(READ ${GOLDEN_DIR}/${golden} expected)
    if(NOT out STREQUAL expected)
        file(WRITE ${golden}.got "${out}")
        message(FATAL_ERROR "latrsim_check ${ARGN} differs from "
                "${GOLDEN_DIR}/${golden}; diff it against "
                "${CMAKE_CURRENT_BINARY_DIR}/${golden}.got")
    endif()
endfunction()

expect_digest(digest_small.txt --digest=100)
expect_digest(digest_large.txt --digest=20 --machine=large)
