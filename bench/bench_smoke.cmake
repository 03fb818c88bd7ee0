# bench-smoke regression gate, run as a ctest (label "bench-smoke"):
# regenerates one fig9f_allreduce point per variant (552 doubles -- the
# paper's Allreduce spotlight size) and diffs the resulting scc-bench-v1
# JSON against the committed baseline with bench/compare. The simulator is
# deterministic, so any drift beyond the compare tolerance is a real model
# change -- either a regression or an intentional recalibration that must
# re-commit the baseline.
#
# Required -D variables: FIG9F, COMPARE (target binaries), BASELINE
# (committed JSON), WORK_DIR (scratch; bench_results/ is written inside).
foreach(var FIG9F COMPARE BASELINE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")
# --hist adds the per-variant tail-latency histogram block to the JSON;
# compare gates it two-sided whenever the baseline carries one.
execute_process(
  COMMAND "${FIG9F}" --from=552 --to=552 --reps=2 --hist
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "fig9f_allreduce failed (exit ${bench_rc})")
endif()

execute_process(
  COMMAND "${COMPARE}"
    "--baseline=${BASELINE}"
    "--current=${WORK_DIR}/bench_results/fig9f_allreduce.json"
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR
    "bench-smoke gate failed (exit ${compare_rc}); if the latency change is "
    "intentional, re-commit bench_results/baselines/fig9f.json from the "
    "fresh ${WORK_DIR}/bench_results/fig9f_allreduce.json")
endif()
