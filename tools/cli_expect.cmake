# Run a command and require exit status 2 with stderr matching EXPECT.
#
#   cmake -DEXPECT=<regex> -P cli_expect.cmake -- <program> [args...]
#
# PASS_REGULAR_EXPRESSION alone would ignore the exit status, so a
# command that printed the text and then aborted would still pass.

set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_separator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(after_separator TRUE)
    endif()
endforeach()

execute_process(COMMAND ${command}
    RESULT_VARIABLE status
    ERROR_VARIABLE err
    OUTPUT_QUIET
    TIMEOUT 50)
if(NOT status EQUAL 2)
    message(FATAL_ERROR
        "expected exit status 2, got '${status}'\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
