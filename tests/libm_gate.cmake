# Libm gate: the pinned numeric paths call no host transcendental.
#
#   cmake -DNM=<nm> -DLIB=<libcomet_core.a> -P libm_gate.cmake
#
# Normal draws (rng.cc) are defined by the fdlibm kernels in
# src/util/fdlibm.h and GELU (activation.cc) by its fdlibm tanhf (with the
# expm1f paths it reaches), so neither object may reference the libm symbols
# those replace: whichever variant the host libm picks would otherwise decide
# the bits of every golden. GELU is the only activation, so activation.cc.o
# references no exponential either.
cmake_minimum_required(VERSION 3.20)

execute_process(COMMAND ${NM} -A -u ${LIB}
                OUTPUT_VARIABLE symbols RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${NM} -A -u ${LIB} failed (${status})")
endif()
string(REPLACE "\n" ";" lines "${symbols}")
set(forbidden_rng log sin cos sincos)
set(forbidden_activation tanh tanhf exp expf)
set(seen_rng FALSE)
set(seen_activation FALSE)
set(violations "")
foreach(line IN LISTS lines)
  # Lines read "<archive>:<object>: U <symbol>".
  if(NOT line MATCHES ":([^:]+\\.o):.* U ([^ ]+)$")
    continue()
  endif()
  set(object "${CMAKE_MATCH_1}")
  set(symbol "${CMAKE_MATCH_2}")
  if(object STREQUAL "rng.cc.o")
    set(seen_rng TRUE)
    if(symbol IN_LIST forbidden_rng)
      list(APPEND violations "${object} references ${symbol}")
    endif()
  elseif(object STREQUAL "activation.cc.o")
    set(seen_activation TRUE)
    if(symbol IN_LIST forbidden_activation)
      list(APPEND violations "${object} references ${symbol}")
    endif()
  endif()
endforeach()
# Both objects reference something (allocation, checks), so finding neither
# means the listing changed shape and the gate would pass vacuously.
if(NOT seen_rng OR NOT seen_activation)
  message(FATAL_ERROR "rng.cc.o or activation.cc.o missing from ${LIB}")
endif()
if(violations)
  string(REPLACE ";" "\n  " violations "${violations}")
  message(FATAL_ERROR "host libm in a pinned path:\n  ${violations}")
endif()
message(STATUS "libm gate: rng.cc.o and activation.cc.o reference no host transcendental")
