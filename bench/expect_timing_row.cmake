# Fails unless the BENCH json at JSON holds a kTiming row named SPAN.
# Usage: cmake -DJSON=<BENCH_name.json> -DSPAN=<span name> -P expect_timing_row.cmake
file(READ "${JSON}" report)
string(FIND "${report}" "{\"name\": \"${SPAN}\", \"type\": \"histogram\", \"kind\": \"timing\"" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${JSON}: no timing row for span ${SPAN}")
endif()
