# cmake -DXML=<report> -DSUITE=<fixture> -DCASE=<case> -P gtest_case_result.cmake
#
# Passes when the gtest XML report records SUITE.CASE as run to
# completion without a failure.  gtest writes such a case as an empty
# <testcase .../> element; a failed case carries <failure> children and
# a skipped one has result="skipped".
if(NOT EXISTS "${XML}")
    message(FATAL_ERROR "no report ${XML}: run the ${SUITE} test first")
endif()
file(READ "${XML}" report)
string(REGEX MATCH "<testcase name=\"${CASE}\"[^>]*classname=\"${SUITE}\"[^>]*>"
    tag "${report}")
if(tag STREQUAL "")
    message(FATAL_ERROR "${SUITE}.${CASE} is not in ${XML}")
endif()
if(NOT tag MATCHES "result=\"completed\"" OR NOT tag MATCHES "/>$")
    message(FATAL_ERROR
        "${SUITE}.${CASE} failed or was skipped; see the ${SUITE} test")
endif()
