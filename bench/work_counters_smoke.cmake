# Exact work-counter gate, run as a ctest (label "bench-smoke"): runs
# work_counters (every Fig. 9 cell at 552 doubles on 48 cores) and diffs
# every column against the committed baseline with zero tolerance, both
# ways. The columns are deterministic integers, so any difference is a
# change in simulated time, volume or host-side work (events, parks,
# waiters woken, per-phase charge events).
#
# Required -D variables: WORK_COUNTERS, COMPARE (target binaries), BASELINE
# (committed JSON), WORK_DIR (scratch; bench_results/ is written inside).
foreach(var WORK_COUNTERS COMPARE BASELINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "work_counters_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(
  COMMAND "${WORK_COUNTERS}"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_QUIET
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "work_counters failed (exit ${bench_rc})")
endif()

execute_process(
  COMMAND "${COMPARE}"
    "--baseline=${BASELINE}"
    "--current=${WORK_DIR}/bench_results/work_counters.json"
    "--key=cell"
    "--rel-tol=0"
    "--abs-tol=0"
    "--two-sided"
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
    "work-counter gate failed (exit ${compare_rc}); if the change in work "
    "is intended, re-commit bench_results/baselines/work_counters.json from "
    "the fresh ${WORK_DIR}/bench_results/work_counters.json and list the "
    "moved columns in CHANGES.md")
endif()
