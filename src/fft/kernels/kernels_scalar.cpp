// Scalar (portable) kernel table: the generic template bodies compiled at
// the build's baseline ISA. This TU deliberately has no extra ISA flags —
// it IS the historical autovectorized path, and the oracle every SIMD
// table is compared against.

#include "fft/kernels/generic_kernels.hpp"
#include "fft/kernels/tables.hpp"

namespace c64fft::fft::kernels::detail {

namespace {

template <typename T>
constexpr KernelDispatch<T> make_scalar_table() {
  return KernelDispatch<T>{
      util::IsaLevel::kScalar,
      "scalar",
      &chain_split_generic<T>,
      &permute_split_generic<T>,
      &scatter_merge_generic<T>,
      &mixed_stage_scalar<T>,
      &transpose_tile_generic<T>,
  };
}

}  // namespace

template <>
const KernelDispatch<float>& scalar_table<float>() {
  static constexpr KernelDispatch<float> t = make_scalar_table<float>();
  return t;
}

template <>
const KernelDispatch<double>& scalar_table<double>() {
  static constexpr KernelDispatch<double> t = make_scalar_table<double>();
  return t;
}

}  // namespace c64fft::fft::kernels::detail
