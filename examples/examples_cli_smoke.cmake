# Examples CLI gate, run as a ctest (label "bench-smoke"): runs each example
# once at small settings and requires exit 0, then runs misspelled flags and
# unknown --variant/--collective names and requires each example's error
# exit (1).
#
# Required -D variables: BIN_DIR (directory of the example binaries),
# WORK_DIR (scratch; the examples' outputs land inside).
foreach(var BIN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "examples_cli_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

# run_example(<expected exit> <binary> [flags...])
function(run_example expected name)
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

run_example(0 quickstart --elements=48 --reps=1)
run_example(0 topology_explorer --mesh=2x2)
run_example(0 collective_playground --mesh=2x2 --reps=1 --elements=48)
run_example(0 collective_playground --collective=scatter --variant=all
  --mesh=2x2 --reps=1 --elements=16)
run_example(0 gcmc_demo --cycles=1)
run_example(0 cg_solver --rows-per-core=4 --max-iters=20)
run_example(0 heat_stencil --cells-per-core=8 --steps=5)

run_example(1 quickstart --elements=48 --rpes=1)
run_example(1 topology_explorer --mesh=2x2 --from_core=1)
run_example(1 collective_playground --varient=mpb)
run_example(1 gcmc_demo --compare --cycels=1)
run_example(1 cg_solver --max-iter=20)
run_example(1 heat_stencil --step=5)
run_example(1 collective_playground --collective=nope)
run_example(1 collective_playground --variant=nope)
run_example(1 gcmc_demo --variant=nope --cycles=1)
run_example(1 cg_solver --variant=rckmpi)
