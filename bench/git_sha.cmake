# Writes ${OUT}: a header defining PROBCON_BENCH_GIT_SHA as the source tree's HEAD commit
# (with "-dirty" when tracked files differ from it), or "unknown" outside a git checkout.
# Run at every build; the header is rewritten only when its text changes, so unchanged
# provenance recompiles nothing.
execute_process(COMMAND git rev-parse --short=12 HEAD
                WORKING_DIRECTORY ${SOURCE_DIR}
                OUTPUT_VARIABLE sha OUTPUT_STRIP_TRAILING_WHITESPACE
                RESULT_VARIABLE failed ERROR_QUIET)
if(failed OR sha STREQUAL "")
  set(sha "unknown")
else()
  execute_process(COMMAND git diff --quiet HEAD --
                  WORKING_DIRECTORY ${SOURCE_DIR}
                  RESULT_VARIABLE dirty ERROR_QUIET)
  if(dirty)
    set(sha "${sha}-dirty")
  endif()
endif()
file(WRITE ${OUT}.tmp "#define PROBCON_BENCH_GIT_SHA \"${sha}\"\n")
execute_process(COMMAND ${CMAKE_COMMAND} -E copy_if_different ${OUT}.tmp ${OUT})
