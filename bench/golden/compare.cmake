# Run BIN (with the space-separated ARGS, if any) and compare its full
# stdout with the committed GOLDEN file:
#   cmake -DBIN=<binary> [-DARGS="<args>"] -DGOLDEN=<file> -P compare.cmake
# On a mismatch the actual output is left next to the binary as
# <golden name>.out, to diff against the golden file.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args} OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(dir ${BIN} DIRECTORY)
    get_filename_component(name ${GOLDEN} NAME_WE)
    file(WRITE ${dir}/${name}.out "${actual}")
    message(FATAL_ERROR "output differs from the golden file:\n"
                        "  diff ${GOLDEN} ${dir}/${name}.out")
endif()
