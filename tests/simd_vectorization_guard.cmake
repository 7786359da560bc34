# Vectorization guard for the AVX2 kernel table (run as a ctest in
# `cmake -P` mode; see tests/CMakeLists.txt).
#
# Every kernel that build_table() in src/tensor/simd_kernels.inc puts into
# the table must contain at least one ymm instruction in its avx2_impl::
# instantiation. A kernel without one compiled to a scalar loop: usually a
# data-dependent FP choice written as a ternary (gcc's default
# -ftrapping-math blocks if-conversion; use pick()), or more output
# pointers than gcc's runtime alias versioning covers (add __restrict).
#
# Inputs (-D): OBJDUMP, LIBRARY (libpcss.a or the AVX2 object),
# KERNELS_INC (simd_kernels.inc), OUT (scratch disassembly file).

foreach(var OBJDUMP LIBRARY KERNELS_INC OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "simd_vectorization_guard: -D${var}=... is required")
  endif()
endforeach()

# Kernel names: the `t.<kernel> = <kernel>;` assignments of build_table().
file(STRINGS "${KERNELS_INC}" assignments REGEX "^  t\\.[a-z0-9_]+ = [a-z0-9_]+;$")
set(kernels "")
foreach(line IN LISTS assignments)
  string(REGEX REPLACE "^  t\\.([a-z0-9_]+) = .*$" "\\1" kernel "${line}")
  if(NOT kernel STREQUAL "name" AND NOT kernel STREQUAL "isa")
    list(APPEND kernels "${kernel}")
  endif()
endforeach()
list(LENGTH kernels kernel_count)
if(kernel_count EQUAL 0)
  message(FATAL_ERROR "simd_vectorization_guard: no kernels found in ${KERNELS_INC}")
endif()

execute_process(
  COMMAND "${OBJDUMP}" -d -C --no-show-raw-insn "${LIBRARY}"
  OUTPUT_FILE "${OUT}"
  RESULT_VARIABLE objdump_result)
if(NOT objdump_result EQUAL 0)
  message(FATAL_ERROR "simd_vectorization_guard: ${OBJDUMP} failed on ${LIBRARY}")
endif()

# Keep only function headers and ymm lines; attribute each ymm line to the
# kernel whose avx2_impl:: symbol (or a gcc clone of it) encloses it.
file(STRINGS "${OUT}" lines REGEX "^[0-9a-f]+ <.*>:$|ymm")
file(REMOVE "${OUT}")
set(current "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[0-9a-f]+ <.*>:$")
    set(current "")
    if(line MATCHES "avx2_impl::([a-z0-9_]+)[(<]")
      set(current "${CMAKE_MATCH_1}")
      set(seen_${current} TRUE)
    endif()
  elseif(NOT current STREQUAL "")
    set(ymm_${current} TRUE)
  endif()
endforeach()

set(failures "")
foreach(kernel IN LISTS kernels)
  if(NOT seen_${kernel})
    list(APPEND failures "  ${kernel}: no avx2_impl::${kernel} symbol in ${LIBRARY}")
  elseif(NOT ymm_${kernel})
    list(APPEND failures "  ${kernel}: no ymm instruction (the AVX2 build runs it scalar)")
  endif()
endforeach()

if(failures)
  list(JOIN failures "\n" report)
  message(FATAL_ERROR "simd_vectorization_guard: AVX2 kernels that do not vectorize:\n"
                      "${report}")
endif()
message(STATUS "simd_vectorization_guard: all ${kernel_count} AVX2 kernels use ymm registers")
