# The W1 append-only gate must actually bite: mutate a copy of the
# committed schema lock three ways (reorder a metric, delete a metric,
# renumber an enumerator) and require hds_lint to exit nonzero for each.
#
# Inputs: HDS_LINT, SOURCE_DIR, WORK_DIR.

file(READ ${SOURCE_DIR}/tests/golden/schema.lock ORIGINAL)

function(expect_w1_failure NAME MUTATED)
  if(MUTATED STREQUAL "${ORIGINAL}")
    message(FATAL_ERROR "${NAME}: mutation did not change the lock "
                        "(pattern no longer matches schema.lock)")
  endif()
  set(LOCK ${WORK_DIR}/schema.lock.${NAME})
  file(WRITE ${LOCK} "${MUTATED}")
  execute_process(
    COMMAND ${HDS_LINT} --rule W1 --schema-lock ${LOCK}
            ${SOURCE_DIR}/src ${SOURCE_DIR}/tools ${SOURCE_DIR}/bench
            ${SOURCE_DIR}/tests
    RESULT_VARIABLE RC
    OUTPUT_VARIABLE OUT)
  if(RC EQUAL 0)
    message(FATAL_ERROR "${NAME}: hds_lint accepted a ${NAME} schema lock")
  endif()
  if(NOT RC EQUAL 1)
    message(FATAL_ERROR "${NAME}: hds_lint failed unexpectedly "
                        "(exit ${RC}): ${OUT}")
  endif()
endfunction()

# Reordered metric: the cache hits/misses ids swap places in the lock, so
# the tree's order no longer matches the locked order.
string(REPLACE "hits 0\nmisses 1" "misses 1\nhits 0" MUTATED "${ORIGINAL}")
expect_w1_failure(reordered "${MUTATED}")

# Deleted metric: drop the first entry of the first metrics section.
string(REGEX REPLACE "\\[metrics ([A-Za-z_]+)\\]\n[^\n]+\n"
       "[metrics \\1]\n" MUTATED "${ORIGINAL}")
expect_w1_failure(deleted "${MUTATED}")

# Renumbered enumerator: Prefetcher::Kind Markov moves from 1 to 9 in the
# lock while the tree still says 1.
string(REPLACE "Markov 1" "Markov 9" MUTATED "${ORIGINAL}")
expect_w1_failure(renumbered "${MUTATED}")
