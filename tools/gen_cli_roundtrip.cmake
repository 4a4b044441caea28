# Round trip from aqua_gen to aqua_cli: every workload aqua_gen emits must
# be answerable by aqua_cli with the schema and example query aqua_gen
# prints. Synthetic p-mappings carry random probabilities (not short
# decimals), so they run over several seeds and mapping counts up to 8.
#
#   cmake -DAQUA_GEN=<aqua_gen> -DAQUA_CLI=<aqua_cli> -DWORK_DIR=<dir> \
#         -P gen_cli_roundtrip.cmake

file(MAKE_DIRECTORY "${WORK_DIR}")
set(cases "ebay:2:1" "realestate:2:1" "employees:2:1")
foreach(mappings 2 4 8)
  foreach(seed RANGE 1 10)
    list(APPEND cases "synthetic:${mappings}:${seed}")
  endforeach()
endforeach()

foreach(case IN LISTS cases)
  string(REPLACE ":" ";" parts "${case}")
  list(GET parts 0 workload)
  list(GET parts 1 mappings)
  list(GET parts 2 seed)
  set(data "${WORK_DIR}/${workload}_${mappings}_${seed}.csv")
  set(mapping "${WORK_DIR}/${workload}_${mappings}_${seed}_pm.txt")
  execute_process(
    COMMAND "${AQUA_GEN}" --workload ${workload} --rows 30
            --mappings ${mappings} --seed ${seed}
            --out-data "${data}" --out-mapping "${mapping}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REGEX MATCH "--schema \"([^\"]*)\"" _ "${out}")
  set(schema "${CMAKE_MATCH_1}")
  string(REGEX MATCH "--query \"([^\"]*)\"" _ "${out}")
  if(NOT rc EQUAL 0 OR schema STREQUAL "" OR CMAKE_MATCH_1 STREQUAL "")
    message(FATAL_ERROR "aqua_gen ${case} failed (${rc}):\n${out}${err}")
  endif()
  foreach(semantics by-table by-tuple)
    execute_process(
      COMMAND "${AQUA_CLI}" --data "${data}" --schema "${schema}"
              --mapping "${mapping}" --query "${CMAKE_MATCH_1}"
              --semantics ${semantics} --answer range
      RESULT_VARIABLE rc OUTPUT_VARIABLE answer ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "aqua_cli rejected aqua_gen ${case} "
                          "(${semantics}, exit ${rc}):\n${answer}${err}")
    endif()
  endforeach()
endforeach()
