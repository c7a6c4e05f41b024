# Run BIN and compare its full stdout with the committed GOLDEN file:
#   cmake -DBIN=<binary> -DGOLDEN=<file> -P compare.cmake
# On a mismatch the actual output is left next to the binary as
# <binary>.out, to diff against the golden file.
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    file(WRITE ${BIN}.out "${actual}")
    message(FATAL_ERROR "output differs from the golden file:\n"
                        "  diff ${GOLDEN} ${BIN}.out")
endif()
