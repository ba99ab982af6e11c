# Adds bench/perf to the repo's own build.  run.sh passes this file as
# CMAKE_PROJECT_pps_delay_INCLUDE, so it runs right after the root
# project() call; bench/perf/CMakeLists.txt is included at the end of the
# root CMakeLists.txt, once every library target it links exists.
cmake_language(DEFER CALL include "${CMAKE_SOURCE_DIR}/bench/perf/CMakeLists.txt")
