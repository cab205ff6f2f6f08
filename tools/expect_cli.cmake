# Runs one CLI invocation and checks its exit code and output:
#   cmake -DCLI=<binary> -DARGS=<args, "|"-separated> -DEXPECT_EXIT=<code>
#         -DEXPECT_OUTPUT=<regex over stdout+stderr> -P expect_cli.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT code STREQUAL "${EXPECT_EXIT}")
    message(FATAL_ERROR "exit ${code}, expected ${EXPECT_EXIT}:\n${out}")
endif()
if(NOT out MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}':\n${out}")
endif()
