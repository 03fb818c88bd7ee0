# bench-smoke CLI gate, run as a ctest (label "bench-smoke"): runs each
# figure, table and ablation binary once at its smallest settings and
# requires exit 0, then runs one misspelled flag and requires exit 2 (every
# binary rejects the flags it does not read), and unknown --collective /
# --variant names, which must exit with each binary's error code (2, or 1
# for tab_algo_select). Each binary gets only the
# flags it reads. Outputs land in WORK_DIR/bench_results and are not gated
# here; bench_smoke.cmake gates fig9f's numbers.
#
# Required -D variables: BIN_DIR (directory of the bench binaries),
# WORK_DIR (scratch; bench_results/ is written inside).
foreach(var BIN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_cli_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

# run_bench(<expected exit> <binary> [flags...])
function(run_bench expected name)
  execute_process(
    COMMAND "${BIN_DIR}/${name}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected}")
    message(FATAL_ERROR
      "${name} ${ARGN}: exit ${rc}, expected ${expected}\n${err}")
  endif()
endfunction()

set(sweep --from=552 --to=552 --reps=1)
foreach(fig fig9a_allgather fig9b_alltoall fig9c_reducescatter
            fig9d_broadcast fig9e_reduce fig9f_allreduce tab_speedups)
  run_bench(0 ${fig} ${sweep})
endforeach()
foreach(abl abl_mpb_bug abl_scaling abl_contention)
  run_bench(0 ${abl} --reps=1)
endforeach()
run_bench(0 fig10_gcmc_app --cycles=1)
run_bench(0 tab_wait_profile --cycles=1)
run_bench(0 tab_block_split)
run_bench(2 fig9f_allreduce --form=552)
run_bench(2 work_counters --elements=8)
# Unknown names: the shared parsers reject them through each CLI's own
# error exit.
run_bench(2 perturb_soak --collective=nope)
run_bench(2 obs_report --out=nope.html --collective=nope)
run_bench(1 tab_algo_select --variant=rckmpi)
