// Quickstart: transform a small signal with the fine-grain codelet FFT,
// verify it against the naive DFT, and round-trip back. This is the
// 60-second tour of the public API (fft/api.hpp).

#include <complex>
#include <iostream>
#include <vector>

#include "fft/api.hpp"
#include "paper/reference.hpp"
#include "paper/variants.hpp"

using c64fft::fft::cplx;

int main() {
  // 1. Make a signal: a 3-cycle cosine over 1024 samples.
  const std::size_t n = 1024;
  std::vector<cplx> signal(n);
  for (std::size_t i = 0; i < n; ++i)
    signal[i] = cplx(std::cos(2.0 * 3.14159265358979 * 3.0 * i / n), 0.0);

  // 2. Forward FFT in place. The production engine runs the whole
  //    transform as one cache-resident codelet on its worker team.
  c64fft::fft::HostFftOptions opts;
  opts.workers = 4;
  auto spectrum = signal;
  c64fft::fft::forward(spectrum, opts);

  // 3. The energy concentrates in bins 3 and n-3 (real input).
  std::cout << "quickstart: |X[2]| = " << std::abs(spectrum[2])
            << ", |X[3]| = " << std::abs(spectrum[3])
            << ", |X[4]| = " << std::abs(spectrum[4]) << '\n';

  // 4. Cross-check against the O(N^2) DFT and round-trip.
  const auto truth = c64fft::fft::dft_reference(signal);
  std::cout << "quickstart: max |fft - dft| = "
            << c64fft::fft::max_abs_error(spectrum, truth) << '\n';

  auto back = spectrum;
  c64fft::fft::inverse(back, opts);
  std::cout << "quickstart: round-trip max error = "
            << c64fft::fft::max_abs_error(back, signal) << '\n';

  // 5. The paper's schedulers (coarse Alg. 1, fine Alg. 2, guided Alg. 3)
  //    run on the reproduction driver fft_host; results are identical,
  //    only scheduling differs.
  auto guided = signal;
  c64fft::fft::PaperFftOptions paper;
  paper.workers = 4;
  c64fft::fft::fft_host(guided, c64fft::fft::Variant::kGuided, paper);
  std::cout << "quickstart: guided vs production max diff = "
            << c64fft::fft::max_abs_error(guided, spectrum) << '\n';
  return 0;
}
