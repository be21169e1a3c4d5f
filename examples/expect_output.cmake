# Fails unless EXE, run with the whitespace-separated ARGS, exits with
# EXIT_CODE and prints EXPECT (stdout and stderr together), and unless its
# output carries no contract condition (UPN_REQUIRE) and no source path.
# Usage: cmake -DEXE=<program> -DARGS=<args> -DEXIT_CODE=<n> -DEXPECT=<text>
#              -P expect_output.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE code
                OUTPUT_VARIABLE output ERROR_VARIABLE output)
message("${output}")
if(NOT code STREQUAL EXIT_CODE)
  message(FATAL_ERROR "exit code ${code}, expected ${EXIT_CODE}")
endif()
string(FIND "${output}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output lacks: ${EXPECT}")
endif()
foreach(forbidden "UPN_REQUIRE" ".cpp:" ".hpp:")
  string(FIND "${output}" "${forbidden}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "output carries '${forbidden}'")
  endif()
endforeach()
